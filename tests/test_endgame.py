"""Endgame bookkeeping: Z-system joints, hypothesis gates, the 480k bound."""

import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from entropic_doubling.dist import (
    Dist,
    FiberFamily,
    condition_on_sum,
    map_joint,
    product,
    random_dist,
    sum_fibers,
    uniform_on,
    uniform_on_subspace,
    xor_convolve,
)
from entropic_doubling.certify import endgame_bundle, verify_bundle
from entropic_doubling.endgame import (
    FiberGrid,
    KeptFibers,
    _budget_grid,
    _move_table,
    cap_fibers,
    endgame,
    endgame_grid,
    endgame_move_quantities,
    z_system_joints,
)
from entropic_doubling.entropy import (
    PairEntropies,
    conditional_doubling_mass,
    conditional_mutual_information,
    doubling_mass,
    fibring_decompose,
    pair_entropies,
    quotient_entropy,
    shannon_entropy,
)
from entropic_doubling.errors import CapacityError, HypothesisViolationError
from entropic_doubling.families import hamming_ball
from entropic_doubling.gf2 import Subspace, all_subspaces, span
from entropic_doubling.oracle import (
    OBJECTIVE_PROJECTED_ENTROPY,
    PFR_SIZE_FACTOR,
    exhaustive_best_subspace,
    lattice_entropies,
)
from entropic_doubling.pipeline import _dict_h_sequence, _h_expectation_sequence
from entropic_doubling.tolerances import IDENTITY_TOL

FIXTURES = Path(__file__).parent / "fixtures"


class TestZSystemJoints:
    def test_matches_product_route(self):
        rng = np.random.default_rng(0)
        for n in (1, 2):
            p, q = random_dist(n, rng), random_dist(n, rng)
            j = product(p, p, q, q)  # X1, X2, Y1, Y2
            ref12 = map_joint(j, [(0, 2), (1, 2), (0, 1, 2, 3)])
            ref13 = map_joint(j, [(0, 2), (0, 1), (0, 1, 2, 3)])
            j12, j13 = z_system_joints(p, q)
            assert np.max(np.abs(j12.mass - ref12.mass)) < 1e-12
            assert np.max(np.abs(j13.mass - ref13.mass)) < 1e-12

    def test_single_bit_mi_is_exactly_zero(self):
        bit = uniform_on([0, 1], 1)
        j12, _ = z_system_joints(bit, bit)
        assert conditional_mutual_information(j12, 0, 1, 2) == pytest.approx(0.0, abs=1e-12)

    def test_z1_z2_symmetry_for_exchangeable_copies(self):
        rng = np.random.default_rng(1)
        p, q = random_dist(2, rng), random_dist(2, rng)
        j = product(p, p, q, q)
        j13 = map_joint(j, [(0, 2), (0, 1), (0, 1, 2, 3)])  # (Z1, Z3, S)
        j23 = map_joint(j, [(1, 2), (0, 1), (0, 1, 2, 3)])  # (Z2, Z3, S)
        i13 = conditional_mutual_information(j13, 0, 1, 2)
        i23 = conditional_mutual_information(j23, 0, 1, 2)
        assert i13 == pytest.approx(i23, abs=1e-9)


class TestMoves:
    def test_move_quantities_consistent(self):
        rng = np.random.default_rng(2)
        p, q = random_dist(3, rng), random_dist(3, rng)
        moves = endgame_move_quantities(p, q)
        conv_pp, conv_qq = xor_convolve(p, p), xor_convolve(q, q)
        assert moves["sumset_1"][0] == pytest.approx(
            doubling_mass(conv_pp, conv_qq), abs=1e-9
        )
        # First-fibring pairing: H[X1|X1+X2] + H[X1+X2] = 2 H[X]
        lhs_pairs = moves["fiber_1"][1] + moves["sumset_1"][1]
        assert lhs_pairs == pytest.approx(
            2 * (shannon_entropy(p) + shannon_entropy(q)), abs=1e-9
        )

    def test_first_fibring_identity(self):
        # s[X1+X2; Y1+Y2] + s[X1|X1+X2; Y1|Y1+Y2] = 2 s[X;Y] + I[Z1:Z3|S]
        rng = np.random.default_rng(20)
        for _ in range(5):
            p, q = random_dist(2, rng), random_dist(2, rng)
            moves = endgame_move_quantities(p, q)
            _, j13 = z_system_joints(p, q)
            i13 = conditional_mutual_information(j13, 0, 1, 2)
            lhs = moves["sumset_1"][0] + moves["fiber_1"][0]
            assert lhs == pytest.approx(2 * doubling_mass(p, q) + i13, abs=1e-9)

    def test_second_fibring_identity(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            p, q = random_dist(2, rng), random_dist(2, rng)
            moves = endgame_move_quantities(p, q)
            j12, _ = z_system_joints(p, q)
            i12 = conditional_mutual_information(j12, 0, 1, 2)
            lhs = moves["sumset_2"][0] + moves["fiber_2"][0]
            assert lhs == pytest.approx(2 * doubling_mass(p, q) + i12, abs=1e-9)

    def test_measured_kappa_makes_hypotheses_hold(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            p, q = random_dist(2, rng), random_dist(2, rng)
            h = shannon_entropy(p) + shannon_entropy(q)
            s = doubling_mass(p, q)
            if s <= 1e-6:
                continue
            eta = min(0.5, s / h)
            transcript = endgame(p, q, eta)
            assert transcript.mi_bound_holds
            assert transcript.z_entropy_gap_holds
            assert transcript.expectation_holds


class TestEndgameTranscript:
    def test_uniform_subspace_trivial_case(self):
        u = uniform_on_subspace(span([1, 2], 3))
        t = endgame(u, u, 0.5)
        assert t.i_z1_z3 == pytest.approx(0.0, abs=1e-9)
        assert t.i_z1_z2 == pytest.approx(0.0, abs=1e-9)
        assert {entry[3] for entry in t.table} == {span([1, 2], 3)}
        assert t.expectation == pytest.approx(0.0, abs=1e-12)
        assert t.expectation_holds

    def test_hypothesis_violation_raises_with_gaps(self):
        p = uniform_on([0, 1, 2], 3)
        with pytest.raises(HypothesisViolationError) as err:
            endgame(p, p, 0.25, 1e-12)
        assert err.value.gaps

    def test_size_budget_respected_in_table(self):
        rng = np.random.default_rng(4)
        p, q = random_dist(3, rng), random_dist(3, rng)
        s = doubling_mass(p, q)
        h = shannon_entropy(p) + shannon_entropy(q)
        eta = min(0.5, s / h)
        t = endgame(p, q, eta)
        for (_u, _w, _weight, v, hx, hy, _px, _py) in t.table:
            assert v.dim <= 7 * (hx + hy) + 1e-9

    def test_capacity_guard(self):
        rng = np.random.default_rng(5)
        p = random_dist(7, rng)
        with pytest.raises(CapacityError):
            endgame(p, p, 0.4, 1.0)

    def test_fiber_cap_recorded_and_weights_renormalized(self):
        # Full support at n = 5: a 32 x 32 grid, over FIBER_CAP = 256 pairs.
        rng = np.random.default_rng(6)
        p, q = random_dist(5, rng), random_dist(5, rng)
        s = doubling_mass(p, q)
        h = shannon_entropy(p) + shannon_entropy(q)
        eta = min(0.5, s / h)
        t = endgame(p, q, eta)
        assert t.fiber_cap["applied"]
        assert sum(entry[2] for entry in t.table) == pytest.approx(1.0, abs=1e-9)

    def test_transcript_serializes(self):
        u = uniform_on_subspace(span([1], 2))
        t = endgame(u, u, 0.5)
        payload = t.to_json()
        assert payload["expectation_holds"] is True
        assert payload["table"][0]["subspace"] == {"n": 2, "basis": ["1"]}

    def test_fiber_systems_reassembly(self):
        rng = np.random.default_rng(7)
        p, q = random_dist(2, rng), random_dist(2, rng)
        s = doubling_mass(p, q)
        h = shannon_entropy(p) + shannon_entropy(q)
        eta = min(0.5, s / h)
        t = endgame(p, q, eta)
        fam_u, fam_w, v_table = t.grid.fibers_x, t.grid.fibers_y, t.grid.v_table
        assert fam_u.weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert set(v_table) == {(u, w) for u in fam_u.labels for w in fam_w.labels}
        # Mixture of the u-fibers is the X-marginal.
        assert np.max(np.abs(fam_u.mixture().mass - p.mass)) < 1e-9


class TestFiberCapTies:
    """cap_fibers keeps each side's 16 heaviest of 21 fibers.  Weights tied up
    to float noise rank as ties and go to the smaller labels."""

    @staticmethod
    def _kept(weights: np.ndarray) -> list[int]:
        # Labels are row indices, and each pair entropy names its row pair, so
        # the kept entropies show which rows were kept.
        d = uniform_on([0], 5)
        fam = FiberFamily(np.arange(len(weights)), weights, np.tile(d.mass, (len(weights), 1)))
        rows = np.arange(len(weights), dtype=float)
        kept = cap_fibers(fam, fam, PairEntropies(rows, rows, 100.0 * rows[:, None] + rows))
        labels = kept.fibers_x.labels
        assert kept.fibers_y is kept.fibers_x
        assert kept.entropies.h_x.tolist() == kept.entropies.h_y.tolist() == labels.tolist()
        assert np.array_equal(kept.entropies.h_sum, 100.0 * labels[:, None] + labels)
        return labels.tolist()

    def test_noise_on_tied_weights_keeps_the_same_labels(self):
        rng = np.random.default_rng(7)
        heavy = np.array([0.12, 0.11, 0.1, 0.09])
        tied = np.full(17, (1.0 - heavy.sum()) / 17)
        weights = np.concatenate([heavy, tied])
        # The 4 heavy fibers, then the 12 tied fibers with the smallest labels.
        expect = list(range(16))
        assert self._kept(weights) == expect
        ulps = np.arange(17) % 7 - 3
        for _ in range(50):
            noisy = weights.copy()
            noisy[4:] += rng.permutation(ulps) * np.spacing(tied)
            assert self._kept(noisy) == expect
            # Under a random relabelling, the tied fibers kept are the 12 with
            # the smallest new labels.
            label = rng.permutation(21)
            relabelled = np.empty(21)
            relabelled[label] = noisy
            tied_kept = sorted(label[4:].tolist())[:12]
            assert self._kept(relabelled) == sorted(label[:4].tolist() + tied_kept)

    def test_distinct_weights_keep_the_weight_order(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            weights = rng.exponential(size=21)
            weights /= weights.sum()
            assert self._kept(weights) == sorted(np.argsort(-weights)[:16].tolist())

    def test_hamming_ball_sum_fibers(self):
        # X + Y for X, Y uniform on B(6, 1): u = 0 has weight 7/49 and 21 sums
        # tie at 2/49; the cap keeps 0 and the 15 smallest tied labels.
        ball = uniform_on(hamming_ball(6, 1), 6)
        fam = sum_fibers(ball, ball)
        kept = cap_fibers(fam, fam, pair_entropies(fam, fam)).fibers_x
        tied = sorted(u for u in fam.labels.tolist() if u)
        assert len(tied) == 21
        assert list(kept.labels) == [0] + tied[:15]


class TestBatchedFiberScan:
    """The endgame's rows against one exhaustive_best_subspace call per pair,
    the reference: every V(u, w) and both projections are equal, not
    close."""

    @staticmethod
    def _assert_rows_match_per_pair_scan(t, p: Dist, q: Dist) -> None:
        # The grid's fibers X_u = (X_1 | X_1+Y_2 = u) and Y_w = (Y_1 | Y_1+X_2 = w).
        rows = iter(t.table)
        for u in t.grid.fibers_x.labels.tolist():
            for w in t.grid.fibers_y.labels.tolist():
                xu, yw = condition_on_sum(p, q, u), condition_on_sum(q, p, w)
                _u, _w, _weight, v, hx, hy, px, py = next(rows)
                cert = exhaustive_best_subspace(
                    xu,
                    yw,
                    OBJECTIVE_PROJECTED_ENTROPY,
                    entropy_budget=PFR_SIZE_FACTOR * (shannon_entropy(xu) + shannon_entropy(yw)),
                )
                assert v == cert.subspace
                assert (hx, hy, px, py) == tuple(
                    cert.achieved[k] for k in ("h_x", "h_y", "h_proj_x", "h_proj_y")
                )

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("kind", ["random", "noisy_subspace", "uniform_subspace"])
    def test_random_and_structured_inputs(self, n, kind):
        rng = np.random.default_rng(n)
        p, q = random_dist(n, rng), random_dist(n, rng)
        if kind != "random":
            # Uniform on span{e0, e1}, alone or mixed with noise: many fibers
            # tie across subspaces, which exercises the tie-break.
            u = uniform_on_subspace(span([1, 2], n)).mass
            mix = 0.0 if kind == "uniform_subspace" else 0.3
            p, q = Dist(n, (1 - mix) * u + mix * p.mass), Dist(n, (1 - mix) * u + mix * q.mass)
        eta = min(0.5, doubling_mass(p, q) / (shannon_entropy(p) + shannon_entropy(q)))
        self._assert_rows_match_per_pair_scan(endgame(p, q, eta), p, q)

    def test_fixture(self):
        bundle = json.loads((FIXTURES / "endgame.json").read_text())
        t = bundle["transcript"]
        p, q = (Dist.from_json(bundle["inputs"][k]) for k in ("p", "q"))
        self._assert_rows_match_per_pair_scan(endgame(p, q, t["eta"], t["kappa"]), p, q)

    def test_budget_bound_pick(self):
        # X on {2: 7/8, 6: 1/8} and Y on {0: 31/32, 4: 1/32} at eta = s[X;Y] /
        # (H[X]+H[Y]).  Every fiber's support hull (the span of its support's
        # differences) is <4>.  At (u, w) = (2, 2) the budget 7(H[X_u]+H[Y_w])
        # is about 0.591 < 1, so the pick is V = 0; the other three pairs pick
        # the hull, where both projections are points.
        x, y = np.zeros(8), np.zeros(8)
        x[[2, 6]], y[[0, 4]] = (7 / 8, 1 / 8), (31 / 32, 1 / 32)
        p, q = Dist(3, x), Dist(3, y)
        eta = doubling_mass(p, q) / (shannon_entropy(p) + shannon_entropy(q))
        t = endgame(p, q, eta)
        hull = span([4], 3)
        picks = {}
        for row in t.table:
            xu, yw = condition_on_sum(p, q, row.u), condition_on_sum(q, p, row.w)
            diffs = [int(a ^ b) for d in (xu, yw) for a in d.support for b in d.support]
            assert span(diffs, 3) == hull
            budget = PFR_SIZE_FACTOR * (shannon_entropy(xu) + shannon_entropy(yw))
            best = exhaustive_best_subspace(
                xu, yw, OBJECTIVE_PROJECTED_ENTROPY, entropy_budget=budget
            )
            assert row.subspace == best.subspace
            picks[row.u, row.w] = row.subspace, budget, (row.h_proj_x, row.h_proj_y)
        v, budget, proj = picks.pop((2, 2))
        assert budget == pytest.approx(0.591, abs=1e-3) and v == Subspace.zero(3)
        assert proj[0] > 0 and proj[1] > 0
        assert set(picks) == {(2, 6), (6, 2), (6, 6)}
        assert all(v == hull and proj == (0.0, 0.0) for v, _, proj in picks.values())
        report = verify_bundle(json.loads(json.dumps(endgame_bundle(t, p, q))))
        assert report.ok, report.failures


def _noisy_pair(n: int, seed: int, symmetric: bool) -> tuple[Dist, Dist]:
    """A noisy uniform law on span{e0, e1} and either a fresh copy of its table
    (X = Y, as the inductive step under analyze_set sees it) or a second law."""
    rng = np.random.default_rng(seed)
    u = uniform_on_subspace(span([1, 2], n)).mass
    p = Dist(n, 0.7 * u + 0.3 * random_dist(n, rng).mass)
    q = Dist(n, p.mass.copy()) if symmetric else Dist(n, 0.7 * u + 0.3 * random_dist(n, rng).mass)
    return p, q


def _budget_bound_pair(n: int, symmetric: bool) -> tuple[Dist, Dist]:
    """test_budget_bound_pick's pair embedded in F_2^n: X on {2: 7/8, 6: 1/8}
    (or, for X = Y, a fresh copy of Y's table) and Y on {0: 31/32, 4: 1/32}.
    Its (u, w) pair of lowest-entropy fibers has hull <4>, over budget."""
    x, y = np.zeros(1 << n), np.zeros(1 << n)
    x[[2, 6]], y[[0, 4]] = (7 / 8, 1 / 8), (31 / 32, 1 / 32)
    return Dist(n, y.copy() if symmetric else x), Dist(n, y)


def _endgame_at_measured_eta(p: Dist, q: Dist):
    return endgame(p, q, min(0.5, doubling_mass(p, q) / (shannon_entropy(p) + shannon_entropy(q))))


def _moves_one_by_one(p: Dist, q: Dist):
    """The move table's fields from the public functions, one call each."""
    convs = [xor_convolve(a, b) for a, b in ((p, p), (q, q), (p, q))]
    fibs = [sum_fibers(a, b) for a, b in ((p, p), (q, q), (p, q), (q, p))]
    ent_1, ent_2 = pair_entropies(fibs[0], fibs[1]), pair_entropies(fibs[2], fibs[3])
    h_pp, h_qq, h_xy = (shannon_entropy(c) for c in convs)
    moves = {
        "sumset_1": (
            h_pp + h_qq - shannon_entropy(xor_convolve(convs[0], convs[1])),
            h_pp + h_qq,
        ),
        "sumset_2": (2.0 * h_xy - shannon_entropy(xor_convolve(convs[2], convs[2])), 2.0 * h_xy),
        "fiber_1": (
            conditional_doubling_mass(fibs[0], fibs[1], ent_1),
            float(fibs[0].weights @ ent_1.h_x + fibs[1].weights @ ent_1.h_y),
        ),
        "fiber_2": (
            conditional_doubling_mass(fibs[2], fibs[3], ent_2),
            float(fibs[2].weights @ ent_2.h_x + fibs[3].weights @ ent_2.h_y),
        ),
    }
    return convs, fibs, (ent_1, ent_2), moves


class TestEqualLawsMeasuredOnce:
    """The move table shares each distinct law's convolution, fibers and pair
    entropies, and endgame_grid scans no fiber row's lattice; the floats are
    those of the public functions called one by one."""

    @pytest.mark.parametrize("symmetric", [True, False], ids=["X = Y", "X != Y"])
    @pytest.mark.parametrize("n", [3, 5])
    def test_move_table_is_bit_equal_to_one_by_one(self, monkeypatch, n, symmetric):
        p, q = _noisy_pair(n, n, symmetric)
        convs, fibs, entropies, moves = _moves_one_by_one(p, q)
        module = sys.modules["entropic_doubling.endgame"]
        convolve, calls = module.xor_convolve, []
        monkeypatch.setattr(module, "xor_convolve", lambda a, b: calls.append(1) or convolve(a, b))
        t = _move_table(p, q)
        # 1 (3) convolutions of the laws, then 1 (2) for the two sumset moves.
        assert len(calls) == (2 if symmetric else 5)
        for got, want in zip((t.conv_pp, t.conv_qq, t.conv_pq), convs):
            assert np.array_equal(got.mass, want.mass)
        # Each kept view against cap_fibers over the one-by-one families and
        # their pair entropies.
        for got, (fam_x, fam_y), ent in zip((t.kept_1, t.kept_2), (fibs[:2], fibs[2:]), entropies):
            want = cap_fibers(fam_x, fam_y, ent)
            for got_fam, want_fam in zip(got[:2], want[:2]):
                for field_name in ("labels", "weights", "masses"):
                    assert np.array_equal(
                        getattr(got_fam, field_name), getattr(want_fam, field_name)
                    )
            for field_name in ("h_x", "h_y", "h_sum"):
                assert np.array_equal(
                    getattr(got.entropies, field_name), getattr(want.entropies, field_name)
                )
            assert got.cap == want.cap
        assert t.moves == moves
        assert (t.h_x, t.h_y) == (shannon_entropy(p), shannon_entropy(q))
        assert t.h_xy == shannon_entropy(convs[2])
        assert (t.kept_2 is t.kept_1) == symmetric

    def test_equal_laws_cap_one_kept_view(self, monkeypatch):
        # On X = Y both grids are one family pair, capped once into one kept
        # view; X != Y caps each of the two pairs once.
        module = sys.modules["entropic_doubling.endgame"]
        cap, calls = module.cap_fibers, []
        monkeypatch.setattr(module, "cap_fibers", lambda *a: calls.append(1) or cap(*a))
        for symmetric, caps in ((True, 1), (False, 2)):
            calls.clear()
            table = _move_table(*_noisy_pair(5, 5, symmetric))
            assert len(calls) == caps
            assert (table.kept_1 is table.kept_2) == symmetric
            assert table.kept_1.cap["applied"]

    @pytest.mark.parametrize("symmetric", [True, False], ids=["X = Y", "X != Y"])
    def test_endgame_grid_scans_each_distinct_row_once(self, monkeypatch, symmetric):
        # No grid scans any lattice: the noisy pair builds a hull grid and the
        # budget-bound pair a descent grid, and the local-to-global DP reads
        # neither grid's lattice.
        n = 4
        module = sys.modules["entropic_doubling.oracle"]
        scanned: list = []
        monkeypatch.setattr(
            module, "lattice_entropies", lambda row: scanned.append(row) or lattice_entropies(row)
        )
        noisy, bound = _noisy_pair(n, 7, symmetric), _budget_bound_pair(n, symmetric)
        hull, descent = (_endgame_at_measured_eta(p, q) for p, q in (noisy, bound))
        for t in (hull, descent):
            _h_expectation_sequence(t.grid, 0.02, np.random.default_rng(0))
        assert scanned == []
        assert hull.grid.hull_terms is not None
        TestBatchedFiberScan._assert_rows_match_per_pair_scan(hull, *noisy)
        assert descent.grid.hull_terms is None and type(descent.grid.v_table) is dict
        assert descent.grid.v_table == _kept_grids(*bound)[1].v_table

    def test_equal_law_endgame_bundle_verifies(self):
        p, _ = _noisy_pair(4, 11, True)
        eta = min(0.5, doubling_mass(p, p) / (2.0 * shannon_entropy(p)))
        bundle = json.loads(json.dumps(endgame_bundle(endgame(p, p, eta), p, p)))
        report = verify_bundle(bundle)
        assert report.ok, report.failures


def _kept(p: Dist, q: Dist) -> tuple[KeptFibers, float]:
    """The kept view endgame_grid reads over (p, q), and H[X] + H[Y]."""
    table = _move_table(p, q)
    return table.kept_2, table.h_x + table.h_y


# _kept_grids' results by the laws' tables: the reference grids of
# _hull_inputs() take one exhaustive scan per pair, 22,038 in all, so the
# tests that read them share one computation.
_KEPT_GRIDS: dict = {}


def _kept_grids(p: Dist, q: Dist) -> tuple[FiberGrid | None, FiberGrid, float]:
    """The hull grid (None when a pair is budget-bound) over (p, q)'s kept
    fibers, the reference grid over them, with each V(u, w) from one
    exhaustive_best_subspace call under the pair's budget, and H[X] + H[Y]."""
    key = p.mass.tobytes(), q.mass.tobytes()
    if key not in _KEPT_GRIDS:
        kept, h_total = _kept(p, q)
        fam_x, fam_y, entropies, note = kept
        reference = {
            (u, w): exhaustive_best_subspace(
                Dist(p.n, xu),
                Dist(p.n, yw),
                OBJECTIVE_PROJECTED_ENTROPY,
                entropy_budget=PFR_SIZE_FACTOR * (hx + hy),
            ).subspace
            for u, xu, hx in zip(fam_x.labels.tolist(), fam_x.masses, entropies.h_x)
            for w, yw, hy in zip(fam_y.labels.tolist(), fam_y.masses, entropies.h_y)
        }
        grid, _ = _budget_grid(kept)
        _KEPT_GRIDS[key] = (
            grid if grid.hull_terms is not None else None,
            FiberGrid(fam_x, fam_y, reference, note),
            h_total,
        )
    return _KEPT_GRIDS[key]


def _hull_inputs() -> list[tuple[Dist, Dist]]:
    """TestBatchedFiberScan's inputs, the endgame fixture's, the budget-bound
    pair, and 100 random pairs at n = 3-6 on random supports (X = Y for
    every third)."""
    pairs = []
    for n in (3, 4, 5, 6):
        for kind in ("random", "noisy_subspace", "uniform_subspace"):
            rng = np.random.default_rng(n)
            p, q = random_dist(n, rng), random_dist(n, rng)
            if kind != "random":
                u = uniform_on_subspace(span([1, 2], n)).mass
                mix = 0.0 if kind == "uniform_subspace" else 0.3
                p = Dist(n, (1 - mix) * u + mix * p.mass)
                q = Dist(n, (1 - mix) * u + mix * q.mass)
            pairs.append((p, q))
    bundle = json.loads((FIXTURES / "endgame.json").read_text())
    pairs.append(tuple(Dist.from_json(bundle["inputs"][k]) for k in ("p", "q")))
    pairs.append(_budget_bound_pair(3, False))
    rng = np.random.default_rng(30)
    for i in range(100):
        n = int(rng.integers(3, 7))
        laws = []
        for _ in range(2):
            mass = np.zeros(1 << n)
            k = int(rng.integers(2, (1 << n) + 1))
            mass[rng.choice(1 << n, k, replace=False)] = rng.exponential(size=k)
            laws.append(Dist(n, mass / mass.sum()))
        pairs.append((laws[0], laws[0] if i % 3 == 0 else laws[1]))
    return pairs


class TestHullGrid:
    """A hull grid (every V(u, w) the support-hull sum, inside the budget)
    against the lattice path on the same kept fibers."""

    def test_hull_grid_equals_the_lattice_grid(self):
        hull_grids = 0
        for p, q in _hull_inputs():
            hull, lattice, h_total = _kept_grids(p, q)
            if hull is None:
                continue
            hull_grids += 1
            assert hull.v_table == lattice.v_table
            for got, want in zip(hull.local_interaction, lattice.local_interaction):
                assert abs(got - want) <= 1e-12
            zeta = hull.local_interaction[0] / h_total
            for tau in {1e-3, 0.1, 0.5, max(zeta / 2.0, 1e-3)}:
                seq, exact, samples = _h_expectation_sequence(hull, tau, None)
                assert (exact, samples) == (True, 0)
                # Every reached state contains hull(X_u), so the DP projects
                # X_u to a point and reads each h_j, j >= 1, as exactly 0.0 too.
                assert (seq, exact, samples) == _dict_h_sequence(lattice, tau, None)
        # 101 of the 114 inputs build hull grids; the rest have a budget-bound pair.
        assert hull_grids >= 100

    def test_descended_picks_equal_the_exhaustive_pick(self):
        # The 13 inputs with a budget-bound pair: every V(u, w), descended or
        # a hull sum within its budget, is the exhaustive budgeted pick, and a
        # descended pair's projections are measured at it.
        grids = descended = 0
        for p, q in _hull_inputs():
            hull, reference, _ = _kept_grids(p, q)
            if hull is not None:
                continue
            grids += 1
            kept, _ = _kept(p, q)
            fam_x, fam_y, ent, _ = kept
            grid, (proj_x, proj_y) = _budget_grid(kept)
            assert grid.hull_terms is None
            assert grid.v_table == reference.v_table
            budget = PFR_SIZE_FACTOR * (ent.h_x[:, None] + ent.h_y) + IDENTITY_TOL
            for i, (u, xu) in enumerate(zip(fam_x.labels.tolist(), fam_x.masses)):
                for j, (w, yw) in enumerate(zip(fam_y.labels.tolist(), fam_y.masses)):
                    v, rows = grid.v_table[(u, w)], (xu, yw)
                    supports = [np.flatnonzero(row).tolist() for row in rows]
                    hull = span([x ^ s[0] for s in supports for x in s], p.n)
                    if hull.dim <= budget[i, j]:
                        assert v == hull and proj_x[i, j] == proj_y[i, j] == 0.0
                        continue
                    descended += 1
                    for got, row in zip((proj_x[i, j], proj_y[i, j]), rows):
                        assert abs(got - quotient_entropy(Dist(p.n, row), v)) <= 1e-12
        assert (grids, descended) == (13, 187)

    def test_hull_table_reads_each_hull_sum(self):
        # The v_table builds V(u, w) on read: each read is the canonical
        # span of both fibers' supports, each shifted by its first point.
        def shifted(row):
            support = np.flatnonzero(row).tolist()
            return [x ^ support[0] for x in support]

        checked = 0
        for p, q in [_noisy_pair(5, 3, True), _noisy_pair(4, 7, False)] + _hull_inputs()[-30:]:
            hull, _, _ = _kept_grids(p, q)
            if hull is None:
                continue
            checked += 1
            fx, fy = hull.fibers_x, hull.fibers_y
            keys = [(u, w) for u in fx.labels.tolist() for w in fy.labels.tolist()]
            assert list(hull.v_table) == keys
            assert len(hull.v_table) == len(fx.labels) * len(fy.labels)
            for u, xu in zip(fx.labels.tolist(), fx.masses):
                for w, yw in zip(fy.labels.tolist(), fy.masses):
                    assert hull.v_table[(u, w)] == span(shifted(xu) + shifted(yw), p.n)
            assert (-1, -1) not in hull.v_table
        assert checked >= 20

    @pytest.mark.parametrize("n", [5, 7])
    def test_one_family_reduces_each_hull_once(self, monkeypatch, n):
        # B(n, 1) + B(n, 1) has 16 sum fibers at n = 5, whose 256 pairs fit
        # FIBER_CAP, and 29 at n = 7, which cap_fibers cuts to 16.  Either
        # way the one kept family's rows are reduced once, and the grid
        # equals the one built over an equal copy.
        u = uniform_on(hamming_ball(n, 1), n)
        fam = sum_fibers(u, u)
        copy = FiberFamily(fam.labels.copy(), fam.weights.copy(), fam.masses.copy())
        view = cap_fibers(fam, fam, pair_entropies(fam, fam))
        kept, ent = view.fibers_x, view.entropies
        assert view.fibers_y is kept and np.array_equal(ent.h_x, ent.h_y)
        assert view.cap["applied"] == (n == 7)
        module = sys.modules["entropic_doubling.endgame"]
        reduced: list = []
        support_hulls = module._support_hulls
        monkeypatch.setattr(
            module, "_support_hulls", lambda m: reduced.append(len(m)) or support_hulls(m)
        )
        once, _ = _budget_grid(view)
        assert reduced == [len(kept.labels)]
        other = cap_fibers(copy, copy, pair_entropies(copy, copy)).fibers_y
        assert other is not kept
        full, _ = _budget_grid(view._replace(fibers_y=other))
        assert reduced == [len(kept.labels), 2 * len(kept.labels)]
        assert once.hull_terms is not None
        assert once.hull_terms == full.hull_terms
        assert dict(once.v_table) == dict(full.v_table)

    @pytest.mark.parametrize("symmetric", [True, False], ids=["X = Y", "X != Y"])
    def test_budget_bound_grid_reduces_each_hull_once(self, monkeypatch, symmetric):
        # The descent walks down from the hull sums that the hull grid's
        # budget check reduced: one _support_hulls call over the kept rows,
        # the one family's on X = Y.
        p, q = _budget_bound_pair(4, symmetric)
        eta = doubling_mass(p, q) / (shannon_entropy(p) + shannon_entropy(q))
        module = sys.modules["entropic_doubling.endgame"]
        reduced: list = []
        support_hulls = module._support_hulls
        monkeypatch.setattr(
            module, "_support_hulls", lambda m: reduced.append(len(m)) or support_hulls(m)
        )
        _, _, grid, _ = endgame_grid(_move_table(p, q), eta, None)
        assert grid.hull_terms is None
        kx, ky = len(grid.fibers_x.labels), len(grid.fibers_y.labels)
        assert reduced == [kx if symmetric else kx + ky]
        assert grid.v_table == _kept_grids(p, q)[1].v_table

    def test_budget_bound_pair_builds_a_descent_grid(self):
        # One pair is over budget, so the grid is a plain one: a dict
        # v_table, and the local interaction from fiber_interactions.
        p, q = _budget_bound_pair(3, False)
        t = _endgame_at_measured_eta(p, q)
        assert t.grid.hull_terms is None and type(t.grid.v_table) is dict
        hull, reference, _ = _kept_grids(p, q)
        assert hull is None and reference.v_table == t.grid.v_table
        assert t.grid.local_interaction == reference.local_interaction

    def test_budget_bound_pair_above_the_cap_meets_the_budget(self):
        # At n = 7 the descent needs no lattice.  It picks the n = 3 pair's
        # subspaces, each within its budget, with the projections measured
        # at the pick.
        picks = {}
        for n in (3, 7):
            p, q = _budget_bound_pair(n, False)
            eta = doubling_mass(p, q) / (shannon_entropy(p) + shannon_entropy(q))
            table = _move_table(p, q)
            _, _, grid, (proj_x, proj_y) = endgame_grid(table, eta, None)
            h_x, h_y, _ = table.kept_2.entropies
            assert grid.hull_terms is None
            fx, fy = grid.fibers_x, grid.fibers_y
            for i, (u, xu) in enumerate(zip(fx.labels.tolist(), fx.masses)):
                for j, (w, yw) in enumerate(zip(fy.labels.tolist(), fy.masses)):
                    v = grid.v_table[(u, w)]
                    assert v.dim <= PFR_SIZE_FACTOR * (h_x[i] + h_y[j]) + IDENTITY_TOL
                    for got, row in ((proj_x[i, j], xu), (proj_y[i, j], yw)):
                        assert abs(got - quotient_entropy(Dist(n, row), v)) <= 1e-12
                    picks.setdefault(n, {})[u, w] = v.basis
        assert picks[7] == picks[3]
        assert picks[7][2, 2] == () and set(picks[7].values()) == {(), (4,)}

    def test_hull_grid_above_the_cap(self):
        # The noisy pair at n = 7: a hull grid, whose projections are points.
        p, q = _noisy_pair(7, 4, False)
        eta = min(0.5, doubling_mass(p, q) / (shannon_entropy(p) + shannon_entropy(q)))
        _, _, grid, (proj_x, proj_y) = endgame_grid(_move_table(p, q), eta, None)
        assert grid.hull_terms is not None
        assert not proj_x.any() and not proj_y.any()


def _grid(
    n: int, kx: int, ky: int, subspace, seed: int
) -> tuple[FiberGrid, list[Dist], list[Dist]]:
    """A hand-built kx x ky grid of random fibers with V(u, w) = subspace(i, j),
    and the fibers X_u and Y_w as Dists."""
    rng = np.random.default_rng(seed)

    def family(k):
        weights = rng.exponential(size=k)
        dists = [random_dist(n, rng) for _ in range(k)]
        return FiberFamily(np.arange(k), weights / weights.sum(), np.stack([d.mass for d in dists])), dists

    (fx, xs), (fy, ys) = family(kx), family(ky)
    table = {(u, w): subspace(u, w) for u in fx.labels.tolist() for w in fy.labels.tolist()}
    return FiberGrid(fx, fy, table), xs, ys


def _pairwise_interaction(grid: FiberGrid, xs: list[Dist], ys: list[Dist]) -> tuple[float, float]:
    hyp = e_dim = 0.0
    for wu, u, xu in zip(grid.fibers_x.weights, grid.fibers_x.labels.tolist(), xs):
        for ww, w, yw in zip(grid.fibers_y.weights, grid.fibers_y.labels.tolist(), ys):
            v = grid.v_table[(u, w)]
            s_fiber = fibring_decompose(xu, yw, v).s_fiber
            if v.dim:
                hyp += wu * ww * s_fiber
            else:
                # Each fiber of pi is a point, so the term is 0 up to float dust,
                # and the grid counts it as exactly 0.
                assert abs(s_fiber) < 1e-12
            e_dim += wu * ww * v.dim
    return hyp, e_dim


class TestLocalInteraction:
    """The batched grid kernel against one fibring_decompose per pair: the
    arithmetic is the same, so the results are equal."""

    def test_matches_per_pair_fibring_with_every_dim_of_v(self):
        # V(u, w) runs through the lattice of F_2^4, from 0 to the whole group.
        subs = all_subspaces(4)
        pool = [v for v in subs if v.dim in (0, 4)] + list(subs[1:-1:7])
        grid, xs, ys = _grid(4, 6, 7, lambda u, w: pool[(7 * u + w) % len(pool)], seed=1)
        assert {v.dim for v in grid.v_table.values()} == {0, 1, 2, 3, 4}
        assert grid.local_interaction == _pairwise_interaction(grid, xs, ys)

    def test_matches_per_pair_fibring_above_enumeration_cap(self):
        n = 8
        vs = [Subspace.zero(n), span([3, 12], n), span([1, 6, 40, 128], n)]
        grid, xs, ys = _grid(n, 3, 4, lambda u, w: vs[(u + w) % 3], seed=2)
        assert grid.local_interaction == _pairwise_interaction(grid, xs, ys)

    def test_memory_stays_bounded(self):
        # V = 0 pairs never reach the kernel.  With V = <e0>, an 8 x 8 grid at
        # n = 10 has 64 pairs of 512 x 1024 coset tables, 256 MiB if stacked
        # at once.
        grid, _, _ = _grid(10, 8, 8, lambda u, w: span([1], 10), seed=3)
        tracemalloc.start()
        try:
            hyp, _ = grid.local_interaction
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 2**20
        assert np.isfinite(hyp)
