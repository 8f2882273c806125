"""Endgame bookkeeping: Z-system joints, hypothesis gates, the 480k bound."""

import json
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
from entropic_doubling.endgame import (
    FiberGrid,
    cap_fibers,
    endgame,
    endgame_move_quantities,
    z_system_joints,
)
from entropic_doubling.entropy import (
    conditional_mutual_information,
    doubling_mass,
    fibring_decompose,
    shannon_entropy,
)
from entropic_doubling.errors import CapacityError, HypothesisViolationError
from entropic_doubling.families import hamming_ball
from entropic_doubling.gf2 import Subspace, all_subspaces, span
from entropic_doubling.oracle import (
    OBJECTIVE_PROJECTED_ENTROPY,
    PFR_SIZE_FACTOR,
    exhaustive_best_subspace,
)

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
        d = uniform_on([0], 5)
        fam = FiberFamily(np.arange(len(weights)), weights, np.tile(d.mass, (len(weights), 1)))
        kept, _, _, rows, _ = cap_fibers(fam, fam)
        assert kept.labels.tolist() == rows.tolist()
        return list(rows)

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
        kept, _, _, _, _ = cap_fibers(fam, fam)
        tied = sorted(u for u in fam.labels.tolist() if u)
        assert len(tied) == 21
        assert list(kept.labels) == [0] + tied[:15]


class TestBatchedFiberScan:
    """The endgame scans each fiber's lattice once and picks V(u, w) from the
    two scans; one exhaustive_best_subspace call per pair is the reference.
    The float expressions and the tie-break are the same, so the rows are
    equal, not close."""

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
