"""Certificate bundles: checked-in bundles still verify and re-solve, and every
kind rejects a tampered value and a subspace that fails its criterion."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from entropic_doubling.certify import (
    endgame_bundle,
    pfr_bundle,
    set_bundle,
    solve_bundle,
    verify_bundle,
)
from entropic_doubling.dist import Dist, random_dist, uniform_on
from entropic_doubling.endgame import endgame
from entropic_doubling.entropy import doubling_mass, shannon_entropy
from entropic_doubling.errors import ValidationError
from entropic_doubling.gf2 import Subspace
from entropic_doubling.oracle import OBJECTIVE_STATEMENT_B, exhaustive_best_subspace, pfr_subspace
from entropic_doubling.pipeline import (
    SolveResult,
    analyze_set,
    check_many_sums,
    check_rich_cosets,
    check_theorem_11,
    many_sums,
    rich_cosets,
    solve_B,
)
from entropic_doubling.tolerances import IDENTITY_TOL

FIXTURES = Path(__file__).parent / "fixtures"


def load(name: str) -> dict:
    return json.loads((FIXTURES / f"{name}.json").read_text())


def _pair(bundle):
    return Dist.from_json(bundle["inputs"]["p"]), Dist.from_json(bundle["inputs"]["q"])


def _resolve_b(b):
    params = b["certificate"]["parameters"]
    return solve_B(*_pair(b), params["eta"], params["epsilon"], seed=b["seed"]).subspace


def _resolve_rich(b):
    eps = b["certificate"]["parameters"]["epsilon"]
    return rich_cosets(*_pair(b), eps, seed=b["seed"]).subspace


def _resolve_many(b):
    dists = [Dist.from_json(d) for d in b["inputs"]["dists"]]
    eps = b["certificate"]["parameters"]["epsilon"]
    return many_sums(dists, eps, seed=b["seed"]).subspace


def _resolve_t11(b):
    spec = b["inputs"]["set"]
    members = [int(h, 16) for h in spec["elements"]]
    eps = b["certificate"]["parameters"]["epsilon"]
    return analyze_set(members, int(spec["n"]), eps, seed=b["seed"]).subspace


def _resolve_pfr(b):
    return pfr_subspace(*_pair(b)).subspace


# fixture name -> (re-solve its inputs to V, stored keys to perturb, verdicts V = 0 fails)
KINDS = {
    "statement_b": (_resolve_b, ("lhs", "h_total"), ["statement B inequality"]),
    "rich_cosets": (_resolve_rich, ("s_quotient", "s_fiber"), ["quotient interaction"]),
    "many_sums": (_resolve_many, ("lhs", "rhs"), ["k-fold inequality"]),
    "theorem_11": (
        _resolve_t11, ("expected_log_intersection", "bound"), ["intersection bound"]
    ),
    "pfr_cor22": (_resolve_pfr, ("h_proj_x", "pfr_bound"), ["pfr bounds"]),
}
ENDGAME_VALUES = (
    "i_z1_z3",
    "i_z1_z2",
    "expectation",
    "s_xy",
    "h_total",
    "expectation_bound",
    "h_z_given_s",
    "hypothesis_gaps",
)


# The fixtures predate the hyperplane descent, so the stored V is the
# pipeline's.  Re-solving descends inside it to these bases; PFR does not descend.
DESCENDED = {
    "statement_b": (10, 12),
    "rich_cosets": (6,),
    "many_sums": (6,),
    "theorem_11": (4, 8),
}


@pytest.mark.parametrize("name", sorted(KINDS))
def test_fixture_verifies_and_resolves_to_same_basis(name):
    bundle = load(name)
    report = verify_bundle(bundle)
    assert report.ok, report.failures
    resolve = KINDS[name][0]
    stored = Subspace.from_json(bundle["certificate"]["subspace"])
    resolved = resolve(bundle)
    assert resolved.is_subspace_of(stored)
    assert resolved.basis == DESCENDED.get(name, stored.basis)


def test_relabelled_exhaustive_statement_b_rejected():
    # The fixture's V is the pipeline's F_2^4, not the exhaustive scan's
    # first V in (dim, lex) order, although it meets statement B.
    bundle = load("statement_b")
    bundle["certificate"]["search_mode"] = "exhaustive"
    report = verify_bundle(bundle)
    assert not report.ok
    assert report.failures == ["exhaustive scan returns V"]


@pytest.mark.parametrize(
    "name, mode, failure",
    [
        ("statement_b", "greedy", "no STATEMENT_B producer writes search_mode 'greedy'"),
        ("theorem_11", "exhaustive", "no THEOREM_11 producer writes search_mode 'exhaustive'"),
        ("rich_cosets", "oracle", "no RICH_COSETS producer writes search_mode 'oracle'"),
        ("pfr_cor22", "pipeline", "no PFR_COR22 producer writes search_mode 'pipeline'"),
        ("pfr_cor22", "exhaustive", "exhaustive search capped at n <= 6"),
    ],
)
def test_search_mode_no_producer_writes_rejected(name, mode, failure):
    bundle = load(name)
    bundle["certificate"]["search_mode"] = mode
    report = verify_bundle(bundle)
    assert report.failures == [f"bundle rejected: {failure}"]


def test_exhaustive_certificates_verify():
    rng = np.random.default_rng(21)
    p, q = random_dist(4, rng), random_dist(4, rng)
    params = {"eta": 0.3, "epsilon": 0.1}
    cert = exhaustive_best_subspace(p, q, OBJECTIVE_STATEMENT_B, params=params)
    assert cert.search_mode == "exhaustive" and 0 < cert.subspace.dim < 4
    bundle = solve_bundle(SolveResult(certificate=cert, steps=(), seed=0), p, q)
    assert verify_bundle(json.loads(json.dumps(bundle))).ok
    pfr = pfr_subspace(p, q)
    assert pfr.search_mode == "exhaustive"
    assert verify_bundle(json.loads(json.dumps(pfr_bundle(pfr, p, q)))).ok


def test_endgame_fixture_verifies_and_resolves_to_same_table():
    bundle = load("endgame")
    report = verify_bundle(bundle)
    assert report.ok, report.failures
    t = bundle["transcript"]
    fresh = endgame(*_pair(bundle), t["eta"], t["kappa"])
    assert [row[3].to_json() for row in fresh.table] == [row["subspace"] for row in t["table"]]


@pytest.mark.parametrize("name", sorted(KINDS))
def test_perturbed_stored_value_rejected(name):
    for key in KINDS[name][1]:
        bundle = load(name)
        bundle["certificate"]["achieved"][key] += 0.5
        report = verify_bundle(bundle)
        assert not report.ok
        assert any(f.startswith(f"{key}: recomputed") for f in report.failures)


@pytest.mark.parametrize("name", sorted([*KINDS, "endgame"]))
def test_nan_in_each_compared_value_rejected(name):
    if name == "endgame":
        keys = ENDGAME_VALUES
    else:
        keys = [k for k in load(name)["certificate"]["achieved"] if k != "dim"]
    for key in keys:
        bundle = load(name)
        stored = bundle["transcript"] if name == "endgame" else bundle["certificate"]["achieved"]
        # A list's or a dict's first numeric leaf (hypothesis_gaps is nested).
        path = (key,) + next(_numeric_leaves(stored[key]))
        _at(stored, path[:-1])[path[-1]] = float("nan")
        report = verify_bundle(json.loads(json.dumps(bundle)))
        assert not report.ok, key
        assert any(f.startswith(f"{key}: recomputed") for f in report.failures), key


@pytest.mark.parametrize("name", sorted(KINDS))
def test_wrong_stored_dim_rejected(name):
    bundle = load(name)
    bundle["certificate"]["achieved"]["dim"] -= 1
    report = verify_bundle(bundle)
    assert not report.ok
    assert [f for f in report.failures if f.startswith("dim")]


@pytest.mark.parametrize("name", sorted(KINDS))
def test_subspace_failing_criterion_rejected(name):
    bundle = load(name)
    n = bundle["certificate"]["subspace"]["n"]
    bundle["certificate"]["subspace"] = Subspace.zero(n).to_json()
    report = verify_bundle(bundle)
    assert not report.ok
    for verdict in KINDS[name][2]:
        assert verdict in report.failures


def test_endgame_perturbed_value_rejected():
    bundle = load("endgame")
    bundle["transcript"]["expectation"] += 0.5
    report = verify_bundle(bundle)
    assert not report.ok
    assert any(f.startswith("expectation: recomputed") for f in report.failures)


def test_endgame_kappa_above_every_move_mass_rejected():
    # kappa x 1e6 with every value that depends on it restated (each move's
    # rhs and gap, and the 480 kappa bound) is self-consistent, and every
    # endgame inequality holds in it whatever eta is.  The replay refuses
    # the kappa itself.
    bundle = load("endgame")
    t = bundle["transcript"]
    kappa = t["kappa"] * 1e6
    for gap in t["hypothesis_gaps"].values():
        gap["rhs"] += kappa - t["kappa"]
        gap["gap"] = gap["lhs"] - gap["rhs"]
    t["kappa"], t["expectation_bound"] = kappa, 480.0 * kappa
    max_lhs = max(gap["lhs"] for gap in t["hypothesis_gaps"].values())
    report = verify_bundle(bundle)
    assert not report.ok
    assert report.failures == [
        f"bundle rejected: kappa {kappa} exceeds the largest move mass {max_lhs:.6g}"
    ]


def test_endgame_tampered_fiber_subspace_rejected():
    bundle = load("endgame")
    row = next(r for r in bundle["transcript"]["table"] if r["subspace"]["basis"])
    row["subspace"] = Subspace.zero(row["subspace"]["n"]).to_json()
    report = verify_bundle(bundle)
    assert not report.ok
    assert any(f.startswith("table: recomputed") for f in report.failures)


def _capped_endgame_bundle() -> dict:
    # A 24 x 24 fiber grid, over FIBER_CAP = 256 pairs: the grid keeps 16 x 16.
    rng = np.random.default_rng(0)
    p, q = random_dist(5, rng, support_size=6), random_dist(5, rng, support_size=6)
    eta = min(0.5, doubling_mass(p, q) / (shannon_entropy(p) + shannon_entropy(q)))
    t = endgame(p, q, eta)
    assert t.fiber_cap["applied"] and len(t.table) == 16 * 16
    return json.loads(json.dumps(endgame_bundle(t, p, q)))


def test_capped_endgame_bundle_verifies():
    report = verify_bundle(_capped_endgame_bundle())
    assert report.ok, report.failures


def test_endgame_bundle_with_another_fiber_cap_rejected():
    bundle = _capped_endgame_bundle()
    bundle["transcript"]["fiber_cap"]["cap"] = 1024
    report = verify_bundle(bundle)
    assert report.failures == ["fiber_cap: recomputed 256 != stored 1024 at fiber_cap.cap"]


def test_set_bundle_with_repeated_element_verifies():
    # analyze_set certifies the set without the duplicate; so must the bundle.
    elements = [0, 1, 1, 2, 4, 8]
    bundle = set_bundle(analyze_set(elements, 4, 0.2), elements, 4)
    assert bundle["inputs"]["set"]["elements"] == ["0", "1", "2", "4", "8"]
    report = verify_bundle(json.loads(json.dumps(bundle)))
    assert report.ok, report.failures


@pytest.mark.parametrize("identity", [float("nan"), 1e300])
def test_stored_tolerance_cannot_loosen_checks(identity):
    # Either tolerance would pass these two tampered values.
    bundle = load("theorem_11")
    bundle["certificate"]["achieved"]["eta"] = -7.0
    bundle["certificate"]["achieved"]["expected_log_intersection"] = 123.0
    bundle["tolerances"]["identity"] = identity
    report = verify_bundle(json.loads(json.dumps(bundle)))
    assert not report.ok
    assert len(report.failures) == 1
    assert report.failures[0].startswith("identity tolerance")


@pytest.mark.parametrize("big_l", [float("inf"), float("nan")])
def test_non_finite_size_constant_rejected(big_l):
    # An infinite L would make the size bound vacuous.
    bundle = load("statement_b")
    bundle["certificate"]["parameters"]["L_achieved"] = big_l
    report = verify_bundle(json.loads(json.dumps(bundle)))
    assert not report.ok
    assert any(f.startswith("L_achieved: recomputed") for f in report.failures)


def test_many_sums_bundle_with_a_dropped_distribution_rejected():
    bundle = load("many_sums")
    del bundle["inputs"]["dists"][-1]
    report = verify_bundle(bundle)
    assert not report.ok
    assert any(f.startswith("h_proj: recomputed") for f in report.failures)


def _list_support(bundle):
    bundle["inputs"]["p"] = {"n": 3, "support": [1, 2]}


def _fiber_cap_list(bundle):
    bundle["transcript"]["fiber_cap"] = [256]


def _no_dists(bundle):
    bundle["inputs"]["dists"] = []


@pytest.mark.parametrize(
    "name, tamper, failure",
    [
        ("statement_b", _list_support, "bundle rejected: "),
        ("endgame", _fiber_cap_list, "fiber_cap: recomputed"),
        ("many_sums", _no_dists, "bundle rejected: "),
    ],
    ids=["list-support", "fiber-cap-list", "no-dists"],
)
def test_malformed_bundle_gives_failed_report(name, tamper, failure):
    bundle = load(name)
    tamper(bundle)
    report = verify_bundle(bundle)
    assert not report.ok
    assert len(report.failures) == 1
    assert report.failures[0].startswith(failure)


def _zero_v_at(name: str, eps: float) -> dict:
    """The fixture with V = 0, its values from the check at the fixture's own
    epsilon, re-stored at eps with the one eps-dependent value recomputed
    there.  V = 0 fails each criterion at the fixture's epsilon; an epsilon
    outside the range makes the criterion vacuous, and such a bundle passed
    every comparison while no check held epsilon to its range."""
    bundle = load(name)
    cert = bundle["certificate"]
    n = cert["subspace"]["n"]
    zero = Subspace.zero(n)
    own = cert["parameters"]["epsilon"]
    inputs = bundle["inputs"]
    if name == "rich_cosets":
        values = check_rich_cosets(*_pair(bundle), zero, own).values
        values["bound"] = values["s"] - eps * values["h_total"]
    elif name == "many_sums":
        dists = [Dist.from_json(d) for d in inputs["dists"]]
        values = check_many_sums(dists, zero, own).values
        values["rhs"] = sum(values["h_proj"]) - eps * values["h_total"]
    else:
        members = sorted(int(h, 16) for h in inputs["set"]["elements"])
        values = check_theorem_11(members, uniform_on(members, n), zero, own).values
        values["bound"] = (values["eta"] - eps) * math.log2(values["set_size"])
    cert["subspace"] = zero.to_json()
    cert["parameters"]["epsilon"] = eps
    cert["achieved"] = {"dim": 0, **values}
    return json.loads(json.dumps(bundle))


@pytest.mark.parametrize(
    "name, eps, message",
    [
        ("rich_cosets", 1e6, "epsilon must lie in (0, 1], got 1000000.0"),
        ("many_sums", 50.0, "epsilon must lie in (0, 1], got 50.0"),
        ("theorem_11", 50.0, "epsilon must lie in (0, 2], got 50.0"),
    ],
)
def test_epsilon_outside_the_criterion_range_rejected(name, eps, message):
    report = verify_bundle(_zero_v_at(name, eps))
    assert not report.ok
    assert report.failures == [f"bundle rejected: {message}"]


def _leaves(node, path=()):
    """Every leaf of a JSON value, with its path."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, path + (i,))
    else:
        yield path, node


def _numeric_leaves(node):
    return (path for path, x in _leaves(node) if type(x) in (int, float))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


# Each fixture's parameters, which its check reads, and their producer's range.
PARAMETERS_IN_RANGE = {
    "statement_b": lambda c: (
        0 < c["eta"] <= 0.5 and 0 < c["epsilon"] <= 1 and 0 <= c["L_achieved"] < math.inf
    ),
    "rich_cosets": lambda c: 0 < c["epsilon"] <= 1,
    "many_sums": lambda c: 0 < c["epsilon"] <= 1,
    "theorem_11": lambda c: 0 < c["epsilon"] <= 2,
    "pfr_cor22": lambda c: True,
    "endgame": lambda t: (
        0 < t["eta"] <= 0.5
        and 0 <= t["kappa"] <= max(g["lhs"] for g in t["hypothesis_gaps"].values()) + IDENTITY_TOL
    ),
}


def test_fuzzed_numeric_leaf_fails_cleanly_or_stays_in_range():
    # In each fixture, every numeric leaf of the inputs, the parameters and
    # the stored values (an endgame's eta, kappa and compared values) set to
    # NaN, +-inf, 0, -x and 1e6 x in turn: a failed report or a
    # ValidationError, never another exception, and a variant that still
    # verifies has in-range parameters.  In a compared endgame value, every
    # variant outside the bundle's tolerance of the stored leaf fails and
    # names that value.
    for name in sorted(PARAMETERS_IN_RANGE):
        _fuzz_fixture(name)


def _fuzz_fixture(name: str) -> None:
    text = (FIXTURES / f"{name}.json").read_text()
    bundle = json.loads(text)
    if name == "endgame":
        params = ("transcript",)
        roots = [("inputs",)] + [
            ("transcript", key) for key in ("eta", "kappa", *ENDGAME_VALUES)
        ]
    else:
        params = ("certificate", "parameters")
        roots = [("inputs",), params, ("certificate", "achieved")]
    leaves = [root + leaf for root in roots for leaf in _numeric_leaves(_at(bundle, root))]
    assert leaves
    for path in leaves:
        x = _at(bundle, path)
        compared = name == "endgame" and path[0] == "transcript" and path[1] in ENDGAME_VALUES
        for value in (math.nan, math.inf, -math.inf, 0, -x, 1e6 * x):
            variant = json.loads(text)
            _at(variant, path[:-1])[path[-1]] = value
            try:
                report = verify_bundle(variant)
            except ValidationError:
                assert not compared, (path, value)
                continue
            if compared and not abs(value - x) <= bundle["tolerances"]["identity"]:
                assert not report.ok, (path, value)
                assert any(f.startswith(f"{path[1]}: recomputed") for f in report.failures), (
                    path,
                    value,
                    report.failures,
                )
            elif report.ok:
                assert PARAMETERS_IN_RANGE[name](_at(variant, params)), (path, value)


@pytest.mark.parametrize("name", sorted([*KINDS, "endgame"]))
def test_every_stored_leaf_moved_or_flipped_is_rejected(name):
    # Each numeric leaf of achieved (and statement B's L_achieved), or of the
    # endgame transcript endgame() writes apart from its inputs eta and
    # kappa (the fixture's old tolerances copy is not read), moved by 10x
    # the bundle's tolerance, and each bool leaf flipped, fails and is named
    # by its key in achieved, parameters or the transcript.
    text = (FIXTURES / f"{name}.json").read_text()
    bundle = json.loads(text)
    tol = bundle["tolerances"]["identity"]
    if name == "endgame":
        t = bundle["transcript"]
        fresh = endgame(*_pair(bundle), t["eta"], t["kappa"]).to_json()
        roots = [("transcript", key) for key in fresh if key not in ("eta", "kappa")]
    else:
        roots = [("certificate", "achieved", key) for key in bundle["certificate"]["achieved"]]
        if name == "statement_b":
            roots.append(("certificate", "parameters", "L_achieved"))
    moved = 0
    for root in roots:
        for leaf, x in _leaves(_at(bundle, root)):
            if isinstance(x, bool):
                value = not x
            elif isinstance(x, (int, float)):
                value = x + 10 * tol
            else:
                continue
            path = root + leaf
            variant = json.loads(text)
            _at(variant, path[:-1])[path[-1]] = value
            report = verify_bundle(variant)
            assert not report.ok, path
            assert any(f.startswith(f"{root[-1]}: recomputed") for f in report.failures), (
                path,
                report.failures,
            )
            moved += 1
    assert moved >= len(roots)


def test_nonzero_subspace_for_zero_entropy_inputs_rejected():
    # With H[X] + H[Y] = 0 no size constant L admits dim V > 0, though every
    # entropy, and so the statement-B inequality, reads 0 at any V.
    point = Dist(3, np.eye(8)[5])
    bundle = json.loads(json.dumps(solve_bundle(solve_B(point, point, 0.3, 0.1), point, point)))
    assert verify_bundle(bundle).ok
    cert = bundle["certificate"]
    cert["subspace"], cert["achieved"]["dim"] = Subspace.full(3).to_json(), 3
    report = verify_bundle(bundle)
    assert not report.ok
    assert report.failures == ["L_achieved: recomputed inf != stored 0.0"]
