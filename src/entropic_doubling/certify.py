"""Certificate bundles: self-contained JSON records that re-verify offline.

A bundle embeds the inputs (sets or distributions), the tolerances, and
either a certificate (the subspace, its parameters, and an achieved block
holding dim V and each value its criterion's check recomputes, with both
sides of every inequality, each stored once) or an endgame transcript.
verify_bundle checks every kind by one rule: it rebuilds the record from the
embedded inputs with the function its producer used, and matches the stored
record against it leaf by leaf.  A number passes within the bundle's
identity tolerance, which may tighten IDENTITY_TOL but not loosen it: a
bundle whose tolerance is not a number in [0, IDENTITY_TOL] fails.  Each
check holds the stored parameters to its criterion's range, as it does for
the producer, so a parameter that would make the criterion vacuous fails too.

A bundle's blocks are its records' JSON (records.Record: a record's fields
by name, already plain Python values), so only the caller's inputs are made
plain here, and a rebuilt record is matched as it comes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .dist import Dist, uniform_on
from .endgame import EndgameTranscript, endgame
from .errors import ValidationError
from .families import PRNG_ID, set_from_json
from .gf2 import Subspace
from .oracle import (
    CRITERION_B,
    CRITERION_PFR,
    CRITERION_T11,
    OBJECTIVE_PFR,
    OBJECTIVE_STATEMENT_B,
    StatementParams,
    SubspaceCertificate,
    _b_certificate,
    certificate,
    check_pfr,
    exhaustive_best_subspace,
)
from .pipeline import (
    CRITERION_MANY,
    CRITERION_RICH,
    SolveResult,
    check_many_sums,
    check_rich_cosets,
    check_statement_B,
    check_theorem_11,
)
from .records import Record, plain
from .tolerances import IDENTITY_TOL, tolerances_dict


def _bundle(kind: str, inputs: dict, **blocks) -> dict:
    """The envelope every bundle shares: its kind, the PRNG, the embedded
    inputs (made plain), the kind's own blocks (already plain record JSON)
    and the tolerances verification reads."""
    envelope = {"kind": kind, "prng": PRNG_ID, "inputs": plain(inputs)}
    return {**envelope, **blocks, "tolerances": tolerances_dict()}


def _pair(p: Dist, q: Dist) -> dict:
    return {"p": p, "q": q}


def solve_bundle(result: SolveResult, p: Dist, q: Dist) -> dict:
    """Bundle a solve_B / rich_cosets result with its embedded inputs."""
    return _bundle(result.certificate.criterion, _pair(p, q), **result.to_json())


def many_sums_bundle(result: SolveResult, dists: list[Dist]) -> dict:
    return _bundle(CRITERION_MANY, {"dists": dists}, **result.to_json())


def set_bundle(result: SolveResult, elements: list[int], n: int) -> dict:
    # The set analyze_set certified: duplicates dropped.
    members = [format(x, "x") for x in sorted(set(elements))]
    return _bundle(CRITERION_T11, {"set": {"n": n, "elements": members}}, **result.to_json())


def endgame_bundle(transcript: EndgameTranscript, p: Dist, q: Dist) -> dict:
    return _bundle("ENDGAME", _pair(p, q), transcript=transcript.to_json())


def pfr_bundle(cert: SubspaceCertificate, p: Dist, q: Dist) -> dict:
    return _bundle(CRITERION_PFR, _pair(p, q), certificate=cert.to_json())


@dataclass
class VerifyReport(Record):
    kind: str
    ok: bool
    failures: list = field(default_factory=list)
    recomputed: dict = field(default_factory=dict)


def _require(report: VerifyReport, name: str, condition: bool) -> None:
    if not condition:
        report.ok = False
        report.failures.append(name)


def _mismatch(got, stored, tol: float, at: str = ""):
    """The first leaf of the rebuilt value got that stored does not match, as
    (where, got's leaf, stored's leaf), or None.  A number matches a number
    within tol (NaN never), another leaf an equal one of its type, a list only
    a list of its length; extra stored keys are not read, a missing one raises."""
    if isinstance(got, dict):
        if not isinstance(stored, dict):
            return at, got, stored
        pairs = ((f"{at}.{k}", g, stored[k]) for k, g in got.items())
    elif isinstance(got, list):
        if not isinstance(stored, list) or len(stored) != len(got):
            return at, got, stored
        pairs = ((f"{at}[{i}]", g, s) for i, (g, s) in enumerate(zip(got, stored)))
    elif type(got) in (int, float):
        return None if type(stored) in (int, float) and abs(got - stored) <= tol else (at, got, stored)
    else:
        return None if type(stored) is type(got) and stored == got else (at, got, stored)
    return next(filter(None, (_mismatch(g, s, tol, where) for where, g, s in pairs)), None)


def _match(report: VerifyReport, rebuilt: dict, stored: dict, tol: float) -> None:
    """One failure per key of rebuilt whose value stored does not match."""
    for key, got in rebuilt.items():
        report.recomputed[key] = got
        miss = _mismatch(got, stored[key], tol)
        if miss:
            at, leaf, stored_leaf = miss
            where = f" at {key}{at}" if at else ""
            _require(report, f"{key}: recomputed {leaf!r} != stored {stored_leaf!r}{where}", False)


def _load_pair(inputs: dict) -> tuple[Dist, Dist]:
    return Dist.from_json(inputs["p"]), Dist.from_json(inputs["q"])


# The search modes each certificate kind's producers write; any other kind
# writes only "pipeline".  An "exhaustive" certificate claims the first V of
# the exhaustive scan, in (dim, lex) order, so verification reruns the scan
# (n <= MAX_ENUM_N); "pipeline" and "greedy" claim only that V meets its
# criterion, which the check shows.
SEARCH_MODES = {CRITERION_B: ("pipeline", "exhaustive"), CRITERION_PFR: ("exhaustive", "greedy")}


def _rebuild(kind, inputs: dict, stored: dict) -> tuple[dict, dict]:
    """The record the producer of a kind builds from the embedded inputs and
    the stored V, parameters and search mode (an endgame's eta and kappa),
    and the verdicts it requires."""
    if kind == "ENDGAME":
        fresh = endgame(*_load_pair(inputs), float(stored["eta"]), float(stored["kappa"]))
        return fresh.to_json(), fresh.verdicts
    mode, v = stored["search_mode"], Subspace.from_json(stored["subspace"])
    if mode not in SEARCH_MODES.get(kind, ("pipeline",)):
        raise ValidationError(f"no {kind} producer writes search_mode {mode!r}")
    params = stored["parameters"]
    if kind == CRITERION_B:
        b_params = StatementParams(eta=float(params["eta"]), epsilon=float(params["epsilon"]))
        chk = check_statement_B(*_load_pair(inputs), v, b_params)
        record = _b_certificate(mode, v, b_params, chk).to_json()
        scan = OBJECTIVE_STATEMENT_B, {"eta": b_params.eta, "epsilon": b_params.epsilon}
    elif kind == CRITERION_PFR:
        chk = check_pfr(*_load_pair(inputs), v)
        record = certificate(kind, mode, v, {}, chk).to_json()
        scan = OBJECTIVE_PFR, None
    else:
        eps = float(params["epsilon"])
        if kind == CRITERION_RICH:
            chk = check_rich_cosets(*_load_pair(inputs), v, eps)
        elif kind == CRITERION_MANY:
            chk = check_many_sums([Dist.from_json(d) for d in inputs["dists"]], v, eps)
        elif kind == CRITERION_T11:
            members, n = set_from_json(inputs["set"])
            chk = check_theorem_11(members, uniform_on(members, n), v, eps)
        else:
            raise ValidationError(f"unknown bundle kind {kind!r}")
        record = certificate(kind, mode, v, {"epsilon": eps}, chk).to_json()
    verdicts = dict(chk.verdicts)
    if mode == "exhaustive":
        objective, scan_params = scan
        found = exhaustive_best_subspace(*_load_pair(inputs), objective, params=scan_params)
        verdicts["exhaustive scan returns V"] = found.subspace == v
    return record, verdicts


def verify_bundle(payload: dict) -> VerifyReport:
    """Rebuild a bundle's record from its inputs and match the stored one.

    Every kind is checked by one rule.  The record is rebuilt by its
    producer's function: the criterion's check made into a certificate by
    oracle.certificate (oracle._b_certificate for STATEMENT_B), or endgame().
    Every rebuilt leaf must be stored and match (_mismatch); a failure is
    named by its key in achieved, parameters or the transcript, and every
    verdict must hold.  A certificate's search_mode must be one its kind's
    producers write (SEARCH_MODES), and an exhaustive certificate's V must
    be the one the exhaustive scan returns.  What the rebuild does not
    produce (steps, trivial, seed, old parameter keys) is ignored.  A
    payload that is not a JSON object raises ValidationError; any other
    malformed bundle gives a failed report.
    """
    if not isinstance(payload, dict):
        raise ValidationError(
            f"a certificate bundle is a JSON object, not {type(payload).__name__}"
        )
    kind = payload.get("kind")
    report = VerifyReport(kind=str(kind), ok=True)
    try:
        tolerances = payload.get("tolerances", {})
        if not isinstance(tolerances, dict):
            raise ValidationError(
                f"tolerances is a JSON object, not {type(tolerances).__name__}"
            )
        tol = tolerances.get("identity", IDENTITY_TOL)
        # A bundle may tighten its own checks but never loosen them; NaN fails.
        _require(
            report,
            f"identity tolerance {tol!r} is not a number in [0, {IDENTITY_TOL}]",
            type(tol) in (int, float) and 0.0 <= tol <= IDENTITY_TOL,
        )
        if not report.ok:
            return report
        stored = payload["transcript" if kind == "ENDGAME" else "certificate"]
        rebuilt, verdicts = _rebuild(kind, payload["inputs"], stored)
        if kind != "ENDGAME":  # achieved and parameters keys name their own failures
            for block in ("achieved", "parameters"):
                _match(report, rebuilt.pop(block), stored[block], tol)
        _match(report, rebuilt, stored, tol)
        for name, ok in verdicts.items():
            _require(report, name, ok)
    except (
        AttributeError, IndexError, KeyError, OverflowError, TypeError, ValueError, RuntimeError
    ) as exc:
        report.ok = False
        report.failures.append(f"bundle rejected: {exc}")
    return report
