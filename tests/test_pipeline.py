"""Statement checks, lemma machinery, solver, corollaries and their bundles."""

import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import entropic_doubling
from entropic_doubling.certify import (
    endgame_bundle,
    many_sums_bundle,
    pfr_bundle,
    set_bundle,
    solve_bundle,
    verify_bundle,
)
from entropic_doubling.dist import (
    Dist,
    FiberFamily,
    condition_on_sum,
    point_mass,
    pushforward_quotient,
    random_dist,
    sum_fibers,
    uniform_on,
    uniform_on_subspace,
    xor_convolve,
)
from entropic_doubling.endgame import (
    FiberGrid,
    _move_table,
    endgame,
    endgame_grid,
    fiber_grid,
)
from entropic_doubling.entropy import doubling_mass, pair_entropies, shannon_entropy
from entropic_doubling.errors import (
    EntropicDoublingError,
    HypothesisViolationError,
    PipelineError,
    ValidationError,
)
from entropic_doubling.families import hamming_ball, union_of_cosets
from entropic_doubling.gf2 import Subspace, all_subspaces, span, subspace_sum
from entropic_doubling.oracle import (
    OBJECTIVE_STATEMENT_B,
    _join_masks,
    _lattice_masks,
    exhaustive_best_subspace,
    lattice_index,
    pfr_subspace,
)
from entropic_doubling.pipeline import (
    StatementParams,
    _dict_h_sequence,
    _h_expectation_sequence,
    _solve_b,
    _SolveContext,
    _zero_subspace_meets_b,
    analyze_set,
    check_many_sums,
    check_rich_cosets,
    check_statement_A,
    check_statement_B,
    check_theorem_11,
    inductive_step,
    local_to_global,
    make_sumsets_not_double,
    many_sums,
    rich_cosets,
    solve_B,
    y_size_lower_bound_check,
)
from entropic_doubling.tolerances import FIBER_CAP, IDENTITY_TOL

H3 = math.log2(3.0)


def exhaustive_b_solver(eta, epsilon):
    def solver(a, b):
        return exhaustive_best_subspace(
            a, b, OBJECTIVE_STATEMENT_B, params={"eta": eta, "epsilon": epsilon}
        )

    return solver


def independent_coordinates_pair():
    """X on span{e0}, Y on span{e1}: H[X+Y] = H[X] + H[Y] exactly."""
    return uniform_on([0, 1], 2), uniform_on([0, 2], 2)


class TestStatementParams:
    def test_ranges(self):
        with pytest.raises(ValueError):
            StatementParams(eta=0.0)
        with pytest.raises(ValueError):
            StatementParams(eta=0.6)
        with pytest.raises(ValueError):
            StatementParams(eta=0.3, epsilon=1.5)
        with pytest.raises(ValueError):
            StatementParams(eta=0.3, c=1.2)
        with pytest.raises(ValueError):
            StatementParams(eta=0.3, L=-1.0)

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_l_rejected(self, value):
        with pytest.raises(ValidationError, match="L must be finite and nonnegative"):
            StatementParams(eta=0.3, L=value)


class TestCheckStatementB:
    def test_full_space_passes_any_epsilon(self):
        rng = np.random.default_rng(0)
        p, q = random_dist(3, rng), random_dist(3, rng)
        chk = check_statement_B(
            p, q, Subspace.full(3), StatementParams(eta=0.3, epsilon=0.01)
        )
        assert chk.passes and chk.values["lhs"] == pytest.approx(0.0, abs=1e-12)

    def test_independent_coordinates_pass_at_zero_subspace(self):
        p, q = independent_coordinates_pair()
        chk = check_statement_B(
            p, q, Subspace.zero(2), StatementParams(eta=0.49, epsilon=0.01)
        )
        assert chk.passes
        assert chk.values["lhs"] == pytest.approx(2.0, abs=1e-12)

    def test_three_point_exact_gap(self):
        # At eta = 1/2 statement B holds unconditionally at V = {0} (the
        # base case: H[X+Y] >= max(H[X], H[Y])); the failure regime starts
        # once eta + eps drops below s / (H[X]+H[Y]) ~ 0.377.
        p = uniform_on([0, 1, 2], 3)
        base = check_statement_B(
            p, p, Subspace.zero(3), StatementParams(eta=0.5, epsilon=0.01)
        )
        assert base.passes
        chk = check_statement_B(
            p, p, Subspace.zero(3), StatementParams(eta=0.3, epsilon=0.01)
        )
        assert not chk.passes
        assert chk.values["rhs"] - chk.values["lhs"] == pytest.approx(
            doubling_mass(p, p) - (0.3 + 0.01) * 2 * H3, abs=1e-9
        )

    def test_size_bound_enforced(self):
        p, q = independent_coordinates_pair()
        chk = check_statement_B(
            p, q, Subspace.full(2), StatementParams(eta=0.4, epsilon=0.5, L=0.1)
        )
        assert not chk.passes  # inequality fine, size bound violated


class TestCheckStatementA:
    def test_uniform_subspace_passes_with_itself(self):
        v = span([1, 2], 3)
        u = uniform_on_subspace(v)
        chk = check_statement_A(u, u, v, StatementParams(eta=0.5, c=0.5, L=10.0))
        assert chk.verdicts["hypothesis"] and chk.passes

    def test_zero_subspace_fails_for_positive_c(self):
        u = uniform_on_subspace(span([1, 2], 3))
        chk = check_statement_A(
            u, u, Subspace.zero(3), StatementParams(eta=0.5, c=0.25)
        )
        assert not chk.passes

    def test_hypothesis_flag(self):
        p, q = independent_coordinates_pair()
        chk = check_statement_A(p, q, Subspace.zero(2), StatementParams(eta=0.3, c=0.1))
        assert chk.verdicts["hypothesis"] is False
        assert not chk.passes

    def test_exhaustive_scan_finds_minimal_dim(self):
        rng = np.random.default_rng(1)
        p, q = random_dist(4, rng), random_dist(4, rng)
        params = StatementParams(eta=0.3, c=0.5)
        dims = [
            v.dim for v in all_subspaces(4) if check_statement_A(p, q, v, params).passes
        ]
        assert dims, "some subspace must satisfy the conclusion (full space does)"
        minimal = min(dims)
        assert minimal >= 1  # c = 0.5 needs a real projection for dense inputs


class TestMakeSumsetsNotDouble:
    def test_already_satisfied_zero_iterations(self):
        p, q = independent_coordinates_pair()
        v, steps, _ = make_sumsets_not_double(p, q, 0.4, 0.05, exhaustive_b_solver(0.4, 0.05))
        assert v == Subspace.zero(2) and steps == []

    def test_uniform_subspace_fixed_in_one_call(self):
        v0 = span([1, 2], 4)
        u = uniform_on_subspace(v0)
        v, steps, _ = make_sumsets_not_double(u, u, 0.3, 0.02, exhaustive_b_solver(0.3, 0.02))
        assert v == v0
        assert len(steps) == 1 and steps[0].kind == "SUMSET_FIX_1"
        # Documented decrement: at least 2 eps0 (H[X] + H[Y]) per fixing step.
        h_orig = 2 * shannon_entropy(u)
        assert steps[0].decrement >= 2 * 0.02 * h_orig - 1e-9

    def test_solver_subspace_inside_v_stops_at_once(self):
        # U + U = U doubles by 0 < (1 - eta0) 2 H[U] - slack, so V = 0 needs a
        # fix; a solver that answers V = 0 can never supply it.
        u = uniform_on_subspace(span([1, 2], 4))
        calls = []

        def zero_solver(a, b):
            calls.append(1)
            return SimpleNamespace(subspace=Subspace.zero(4))

        with pytest.raises(PipelineError, match="sumset fixing stalled"):
            make_sumsets_not_double(u, u, 0.1, 0.01, zero_solver)
        assert len(calls) == 1

    def test_conclusions_hold_on_output(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            p = random_dist(3, rng, support_size=int(rng.integers(2, 9)))
            q = random_dist(3, rng, support_size=int(rng.integers(2, 9)))
            eta0, eps0 = 0.35, 0.05
            v, _, _ = make_sumsets_not_double(p, q, eta0, eps0, exhaustive_b_solver(eta0, eps0))
            pp, qp = pushforward_quotient(p, v), pushforward_quotient(q, v)
            a, b = xor_convolve(pp, pp), xor_convolve(qp, qp)
            c = xor_convolve(pp, qp)
            s_all = shannon_entropy(xor_convolve(a, b))
            slack = 4 * eps0 * (shannon_entropy(p) + shannon_entropy(q))
            assert s_all >= (1 - eta0) * (shannon_entropy(a) + shannon_entropy(b)) - slack - 1e-9
            assert s_all >= (1 - eta0) * 2 * shannon_entropy(c) - slack - 1e-9

    def test_each_v_judged_by_the_explicit_sumset_entropies(self, monkeypatch):
        # The lemma's test at a V reads the move table of (pi_V(X), pi_V(Y)).
        # Against the explicit entropies of X1+X2, Y1+Y2, X1+Y2 and
        # X1+X2+Y1+Y2, it passes and fails on the same V, names the same
        # failing pair and hands the B-solver the same sums.
        pipeline_module = sys.modules["entropic_doubling.pipeline"]
        steps = []
        monkeypatch.setattr(
            pipeline_module,
            "_grow",
            lambda dists, rounds, what, step: steps.append(step) or (Subspace.zero(dists[0].n), []),
        )
        rng = np.random.default_rng(0)
        seen = set()
        for trial in range(40):
            n = 2 + trial % 4
            p = random_dist(n, rng, support_size=int(rng.integers(1, (1 << n) + 1)))
            q = random_dist(n, rng, support_size=int(rng.integers(1, (1 << n) + 1)))
            eta0, eps0 = float(rng.uniform(0.05, 0.5)), float(rng.uniform(0.005, 0.05))
            solved = []

            def solver(a, b, n=n, solved=solved):
                solved.append((a, b))
                return SimpleNamespace(subspace=Subspace.zero(n))

            make_sumsets_not_double(p, q, eta0, eps0, solver)
            fix = steps[-1]
            slack = 4 * eps0 * (shannon_entropy(p) + shannon_entropy(q))
            subspaces = all_subspaces(n)
            for i in rng.choice(len(subspaces), size=min(6, len(subspaces)), replace=False):
                v = subspaces[i]
                pp, qp = pushforward_quotient(p, v), pushforward_quotient(q, v)
                a, b, c = xor_convolve(pp, pp), xor_convolve(qp, qp), xor_convolve(pp, qp)
                s_all = shannon_entropy(xor_convolve(a, b))
                h_ab = shannon_entropy(a) + shannon_entropy(b)
                ok1 = s_all >= (1 - eta0) * h_ab - slack - IDENTITY_TOL
                ok2 = s_all >= (1 - eta0) * 2 * shannon_entropy(c) - slack - IDENTITY_TOL
                taken = fix(v, [pp, qp])
                if ok1 and ok2:
                    assert taken is None
                    seen.add(None)
                    continue
                kind, pair = ("SUMSET_FIX_1", (a, b)) if not ok1 else ("SUMSET_FIX_2", (c, c))
                assert taken[0] == kind
                assert all(np.array_equal(d.mass, e.mass) for d, e in zip(solved.pop(), pair))
                seen.add(kind)
        assert seen == {None, "SUMSET_FIX_1", "SUMSET_FIX_2"}


class TestYSizeLowerBound:
    def test_w_equals_v_reads_trivial_estimate(self):
        rng = np.random.default_rng(3)
        p, q = random_dist(3, rng), random_dist(3, rng)
        v = span([1, 2], 3)
        rep = y_size_lower_bound_check(p, q, v, v)
        assert rep.h_w_given_v == pytest.approx(0.0, abs=1e-12)
        assert rep.holds

    def test_w_zero(self):
        rng = np.random.default_rng(4)
        p, q = random_dist(3, rng), random_dist(3, rng)
        rep = y_size_lower_bound_check(p, q, Subspace.zero(3), span([1], 3))
        assert rep.h_y_given_w == pytest.approx(0.0, abs=1e-12)
        assert rep.holds  # rhs <= 0 by fibring bookkeeping

    def test_rejects_non_nested(self):
        rng = np.random.default_rng(5)
        p, q = random_dist(3, rng), random_dist(3, rng)
        with pytest.raises(ValueError):
            y_size_lower_bound_check(p, q, span([2], 3), span([1], 3))


class TestLocalToGlobal:
    def _uniform_system(self, n=3):
        v = span([1, 2], n)
        u = uniform_on_subspace(v)
        fam = sum_fibers(u, u)
        table = {(a, b): v for a in fam.labels for b in fam.labels}
        return u, v, fam, table

    def test_degenerate_identical_fibers_first_draw(self):
        _u, v, fam, table = self._uniform_system()
        res = local_to_global(FiberGrid(fam, fam, table), 0.4, np.random.default_rng(0))
        assert res.subspace == v
        assert res.attempts == 1
        assert res.h_y_given_proj >= res.h_y_floor - 1e-9
        assert res.subspace.dim <= res.dim_bound + 1e-9

    def test_single_atom_families_deterministic(self):
        p = uniform_on_subspace(span([1], 2))
        fam = FiberFamily((0,), np.array([1.0]), p.mass[None])
        table = {(0, 0): span([1], 2)}
        grid = FiberGrid(fam, fam, table)
        a = local_to_global(grid, 0.4, np.random.default_rng(1))
        b = local_to_global(grid, 0.4, np.random.default_rng(2))
        assert a.subspace == b.subspace and a.k == b.k

    def test_hypothesis_violation(self):
        # Entropic fibers whose trivial table leaves zero fiber interaction.
        fam_x = FiberFamily((0,), np.array([1.0]), uniform_on([0, 1], 2).mass[None])
        fam_y = FiberFamily((0,), np.array([1.0]), uniform_on([0, 2], 2).mass[None])
        table = {(0, 0): Subspace.zero(2)}
        with pytest.raises(HypothesisViolationError):
            local_to_global(FiberGrid(fam_x, fam_y, table), 0.5, np.random.default_rng(0))

    def test_random_endgame_system_reverifies_and_replays(self):
        rng = np.random.default_rng(6)
        p, q = random_dist(3, rng), random_dist(3, rng)
        h = shannon_entropy(p) + shannon_entropy(q)
        eta = min(0.5, doubling_mass(p, q) / h)
        t = endgame(p, q, eta)
        fam_u, fam_w, table = t.grid.fibers_x, t.grid.fibers_y, t.grid.v_table
        from entropic_doubling.entropy import fibring_decompose

        # The grid's fibers X_u = (X_1 | X_1+Y_2 = u) and Y_w = (Y_1 | Y_1+X_2 = w).
        hyp = sum(
            wu * ww
            * fibring_decompose(condition_on_sum(p, q, u), condition_on_sum(q, p, w), table[(u, w)]).s_fiber
            for wu, u in zip(fam_u.weights, fam_u.labels.tolist())
            for ww, w in zip(fam_w.weights, fam_w.labels.tolist())
        )
        zeta = 0.999 * hyp / h
        first = local_to_global(t.grid, zeta, np.random.default_rng(42))
        replay = local_to_global(t.grid, zeta, np.random.default_rng(42))
        assert first.subspace == replay.subspace
        assert first.h_sequence == replay.h_sequence
        y_mix = fam_w.mixture()
        got = shannon_entropy(y_mix) - shannon_entropy(
            pushforward_quotient(y_mix, first.subspace)
        )
        assert got == pytest.approx(first.h_y_given_proj, abs=1e-9)

    @staticmethod
    def _coordinate_grid(n: int = 4) -> FiberGrid:
        """X_u, Y_w uniform on F_2^4 inside F_2^n and V(u, w) = <e_{(u+w) mod 4}>:
        each draw adds one coordinate, so h_j falls geometrically over many
        levels, and the h_j do not depend on n."""
        full = uniform_on(list(range(16)), n)
        fx = FiberFamily((0, 1), np.array([0.6, 0.4]), np.tile(full.mass, (2, 1)))
        fy = FiberFamily((0, 1, 2, 3), np.array([0.4, 0.3, 0.2, 0.1]), np.tile(full.mass, (4, 1)))
        table = {
            (u, w): span([1 << ((u + w) % 4)], n)
            for u in fx.labels.tolist()
            for w in fy.labels.tolist()
        }
        return FiberGrid(fx, fy, table)

    @staticmethod
    def _first_stop(h, tau) -> int:
        return next(j for j in range(len(h) - 1) if h[j] - h[j + 1] <= tau * h[0] + IDENTITY_TOL)

    def test_lazy_sequence_matches_brute_force_and_first_stop(self):
        grid = self._coordinate_grid()
        fx, fy = grid.fibers_x, grid.fibers_y
        zeta = 0.999 * grid.local_interaction[0] / 8.0
        res = local_to_global(grid, zeta, np.random.default_rng(0))
        assert res.exact_expectations
        assert res.k >= 2
        # h_j over every (u, w_1 .. w_j), weighted by Pr[u] Pr[w_1] ... Pr[w_j].
        for j, h_j in enumerate(res.h_sequence):
            brute = 0.0
            for ui, u in enumerate(fx.labels):
                for ws in itertools.product(range(len(fy.labels)), repeat=j):
                    v = Subspace.zero(4)
                    for wi in ws:
                        v = subspace_sum(v, grid.v_table[(u, fy.labels[wi])])
                    weight = fx.weights[ui] * math.prod(fy.weights[wi] for wi in ws)
                    brute += weight * shannon_entropy(
                        pushforward_quotient(Dist(fx.n, fx.masses[ui]), v)
                    )
            assert h_j == pytest.approx(brute, abs=1e-12)
        # The sequence stops at k + 1, the first j with h_j - h_{j+1} <= tau h_0.
        assert res.k == len(res.h_sequence) - 2 == self._first_stop(res.h_sequence, res.tau)

    @pytest.mark.parametrize("zeta", [1e-9, 1e-12])
    def test_tiny_zeta_gives_result_or_typed_error(self, zeta):
        # ceil(1/tau) is 2e9 or 2e12 levels here; only the levels up to the
        # pigeonhole are computed.
        rng = np.random.default_rng(6)
        p, q = random_dist(3, rng), random_dist(3, rng)
        eta = min(0.5, doubling_mass(p, q) / (shannon_entropy(p) + shannon_entropy(q)))
        for grid in (endgame(p, q, eta).grid, self._coordinate_grid()):
            start = time.perf_counter()
            try:
                res = local_to_global(grid, zeta, np.random.default_rng(0))
            except EntropicDoublingError:
                pass
            else:
                assert res.k == self._first_stop(res.h_sequence, zeta / 2.0)
            assert time.perf_counter() - start < 1.0

    def test_monte_carlo_fallback_stops_by_the_same_rule(self, monkeypatch):
        # At n = 7, above MAX_ENUM_N, the dict DP and its fallback serve the grid.
        grid = self._coordinate_grid(7)
        tau = 0.01
        exact, is_exact, _ = _h_expectation_sequence(grid, tau, np.random.default_rng(0))
        assert is_exact
        samples = 4000
        pipeline_module = sys.modules["entropic_doubling.pipeline"]
        monkeypatch.setattr(pipeline_module, "EXACT_DP_CAP", 0)
        monkeypatch.setattr(pipeline_module, "MC_SAMPLES", samples)
        mc, is_exact, used = _h_expectation_sequence(grid, tau, np.random.default_rng(3))
        assert not is_exact and used == samples
        assert all(b <= a + 1e-12 for a, b in zip(mc, mc[1:]))
        assert self._first_stop(mc, tau) == len(mc) - 2
        replay = _h_expectation_sequence(grid, tau, np.random.default_rng(3))[0]
        assert replay == mc
        # Each path's entropy lies in [0, 4] bits: a standard error of at
        # most 2 / sqrt(samples) per level.
        for a, b in zip(mc, exact):
            assert abs(a - b) <= 5 * 2.0 / math.sqrt(samples)


class TestLatticeExpectationDP:
    """The exact lattice DP that serves every grid at n <= MAX_ENUM_N."""

    @staticmethod
    def _endgame_grid(n: int, seed: int) -> FiberGrid:
        rng = np.random.default_rng(seed)
        p, q = random_dist(n, rng), random_dist(n, rng)
        move_table = _move_table(p, q)
        eta = min(0.5, move_table.s_xy / (move_table.h_x + move_table.h_y))
        return endgame_grid(move_table, eta, None)[2]

    @staticmethod
    def _b_solver_grid(n: int, seed: int) -> FiberGrid:
        rng = np.random.default_rng(seed)
        size = min(1 << n, 6)
        p, q = random_dist(n, rng, size), random_dist(n, rng, size)
        return fiber_grid(sum_fibers(p, q), sum_fibers(q, p), exhaustive_b_solver(0.35, 0.05))

    @staticmethod
    def _random_fibers(n: int, weights: np.ndarray, rng) -> FiberFamily:
        labels = np.arange(len(weights))
        masses = np.stack([random_dist(n, rng).mass for _ in labels])
        return FiberFamily(labels, weights / weights.sum(), masses)

    @staticmethod
    def _assert_same_as_dict_dp(grid: FiberGrid, tau: float) -> None:
        lattice = _h_expectation_sequence(grid, tau, np.random.default_rng(0))
        reference = _dict_h_sequence(grid, tau, np.random.default_rng(0))
        assert lattice[1:] == (True, 0)
        assert reference[1:] == (True, 0)
        # The same k, and every h_j to 1e-12.
        assert len(lattice[0]) == len(reference[0])
        assert lattice[0] == pytest.approx(reference[0], abs=1e-12, rel=0)
        assert min(lattice[0]) >= 0.0

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_endgame_grids_match_the_dict_dp(self, n):
        for seed in range(3):
            grid = self._endgame_grid(n, seed)
            assert any(v.dim for v in grid.v_table.values())
            for tau in (0.02, 0.1):
                self._assert_same_as_dict_dp(grid, tau)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_b_solver_grids_match_the_dict_dp(self, n):
        nonzero = 0
        for seed in range(3):
            grid = self._b_solver_grid(n, seed)
            nonzero += sum(v.dim > 0 for v in grid.v_table.values())
            for tau in (0.02, 0.1):
                self._assert_same_as_dict_dp(grid, tau)
        assert nonzero

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_random_grids_match_the_dict_dp(self, n):
        # Endgame grids mostly stop at k = 1; random low-dimensional V(u, w)
        # over full-support fibers take several levels.
        rng = np.random.default_rng(70 + n)
        for _ in range(3):
            weights = rng.exponential(size=int(rng.integers(1, 6)))
            fx = self._random_fibers(n, weights, rng)
            fy = self._random_fibers(n, weights, rng)
            table = {}
            for u in fx.labels:
                for w in fy.labels:
                    vectors = rng.integers(0, 1 << n, size=int(rng.integers(0, 3)))
                    table[(u, w)] = span([int(x) for x in vectors], n)
            for tau in (0.02, 0.1):
                self._assert_same_as_dict_dp(FiberGrid(fx, fy, table), tau)

    @pytest.mark.parametrize("n", [3, 5, 6])
    def test_mask_join_equals_span(self, n):
        rng = np.random.default_rng(n)
        subs = all_subspaces(n)
        masks, order = _lattice_masks(n)
        assert masks.tolist() == [sum(1 << x for x in v.elements()) for v in subs]
        assert lattice_index(subs, n).tolist() == list(range(len(subs)))
        a = rng.integers(0, len(subs), size=300)
        b = rng.integers(0, len(subs), size=300)
        vectors = [
            np.array([subs[j].basis[k] if k < subs[j].dim else 0 for j in b], dtype=np.uint64)
            for k in range(n)
        ]
        joined = _join_masks(masks[a], vectors, n)
        found = order[np.searchsorted(masks[order], joined)]
        assert masks[found].tolist() == joined.tolist()
        for i, j, k in zip(a.tolist(), b.tolist(), found.tolist()):
            assert subs[k] == span(subs[i].basis + subs[j].basis, n)

    def test_n6_grid_past_the_old_cap_is_exact_and_fast(self):
        # 16 x 16 fibers with full support and a random line per pair: the
        # reachable sums of lines pass EXACT_DP_CAP transitions by level 4.
        n, rng = 6, np.random.default_rng(61)
        fx = self._random_fibers(n, rng.exponential(size=16), rng)
        fy = self._random_fibers(n, np.ones(16), rng)
        labels = fx.labels
        table = {(u, w): span([int(rng.integers(1, 1 << n))], n) for u in labels for w in labels}
        grid = FiberGrid(fx, fy, table)
        h_total = shannon_entropy(fx.mixture()) + shannon_entropy(fy.mixture())
        zeta = min(0.999 * grid.local_interaction[0] / h_total, 0.1)
        # The dict DP passes its cap here, so it falls back to sampling.
        assert _dict_h_sequence(grid, zeta / 2.0, np.random.default_rng(0))[1:] == (False, 800)
        start = time.perf_counter()
        res = local_to_global(grid, zeta, np.random.default_rng(0))
        assert time.perf_counter() - start < 1.0
        assert res.exact_expectations and res.mc_samples == 0
        assert res.k >= 3

    def test_lattice_dp_computes_no_pushforward_or_span(self, monkeypatch):
        # A guard against a later change putting the DP back on Python joins.
        def refuse(*args, **kwargs):
            raise AssertionError("the lattice DP called span or pushforward_quotient")

        pipeline_module = sys.modules["entropic_doubling.pipeline"]
        for grid in (self._endgame_grid(5, 1), self._b_solver_grid(4, 0)):
            expect = _h_expectation_sequence(grid, 0.02, np.random.default_rng(0))
            with monkeypatch.context() as patched:
                patched.setattr(pipeline_module, "span", refuse)
                patched.setattr(pipeline_module, "pushforward_quotient", refuse)
                got = _h_expectation_sequence(grid, 0.02, np.random.default_rng(0))
            assert got == expect


class TestInductiveStep:
    def test_uniform_subspace_case1_with_exhaustive_solver(self):
        u = uniform_on_subspace(span([1, 2], 4))
        tr = inductive_step(
            u, u, 0.35, 0.05, exhaustive_b_solver(0.35, 0.05),
            rng=np.random.default_rng(0),
        )
        assert [s.kind for s in tr.steps] == ["CASE1"]
        assert tr.subspace == span([1, 2], 4)
        # Statement A's lhs H[pi(X)] + H[pi(Y)] at the returned V.
        h_proj = shannon_entropy(pushforward_quotient(u, tr.subspace))
        assert 2 * h_proj == pytest.approx(0.0, abs=1e-9)

    def test_hypothesis_guard(self):
        p, q = independent_coordinates_pair()
        with pytest.raises(HypothesisViolationError):
            inductive_step(p, q, 0.4, 0.05, exhaustive_b_solver(0.4, 0.05))

    @pytest.mark.parametrize(
        "inputs, eta0, eps0, kinds",
        [
            ("uniform_subspace", 0.35, 0.05, ["CASE1"]),
            (7, 0.35, 0.05, ["CASE2"]),
            (0, 0.35, 0.05, ["ENDGAME"]),
            ("uniform_subspace", 0.3, 0.02, ["SUMSET_FIX_1"]),
        ],
    )
    def test_one_move_table_per_lemma_iteration(self, monkeypatch, inputs, eta0, eps0, kinds):
        # The sumset lemma measures each V it tests with one move table, and
        # the case split reads the last one: no table is built elsewhere.
        # The SUMSET_FIX_1 step ends in the early exit, after two tables,
        # whose h1 is the last table's: only the lemma pushes p and q.
        pipeline_module = sys.modules["entropic_doubling.pipeline"]
        table = pipeline_module._move_table
        push = pipeline_module.pushforward_quotient
        callers: list[str] = []
        pushers: list[str] = []

        def recorded(p, q):
            callers.append(sys._getframe(1).f_code.co_name)
            return table(p, q)

        def recorded_push(d, v):
            pushers.append(sys._getframe(1).f_code.co_name)
            return push(d, v)

        monkeypatch.setattr(pipeline_module, "_move_table", recorded)
        monkeypatch.setattr(pipeline_module, "pushforward_quotient", recorded_push)
        if inputs == "uniform_subspace":
            p = q = uniform_on_subspace(span([1, 2], 4))
        else:
            rng = np.random.default_rng(inputs)
            p, q = random_dist(4, rng), random_dist(4, rng)
        tr = inductive_step(
            p, q, eta0, eps0, exhaustive_b_solver(eta0, eps0), rng=np.random.default_rng(1)
        )
        assert [s.kind for s in tr.steps] == kinds
        lemma_steps = sum(s.kind.startswith("SUMSET_FIX") for s in tr.steps)
        assert callers == ["fix"] * (lemma_steps + 1)
        early_exit = len(tr.steps) == lemma_steps
        assert pushers.count("inductive_step") == (0 if early_exit else 2)
        if early_exit:
            # _grow pushes both inputs through 0 and through each grown V.
            assert len(pushers) == 2 * (lemma_steps + 1)

    def test_trace_monotone(self):
        rng = np.random.default_rng(7)
        p = random_dist(4, rng)
        q = random_dist(4, rng)
        tr = inductive_step(p, q, 0.35, 0.05, exhaustive_b_solver(0.35, 0.05),
                            rng=np.random.default_rng(1))
        dims = [s.dim_total for s in tr.steps]
        assert dims == sorted(dims)
        for s in tr.steps:
            assert s.h_after <= s.h_before + 1e-9


class TestSolveB:
    def test_trivial_pass_zero_steps(self):
        p, q = independent_coordinates_pair()
        res = solve_B(p, q, 0.3, 0.1, seed=0)
        assert res.subspace == Subspace.zero(2)
        assert res.steps == ()

    def test_uniform_subspace_projections_collapse(self):
        v = span([1, 2], 3)
        u = uniform_on_subspace(v)
        res = solve_B(u, u, 0.3, 0.1, seed=0)
        assert res.subspace == v
        pushed = pushforward_quotient(u, res.subspace)
        assert shannon_entropy(pushed) == pytest.approx(0.0, abs=1e-12)

    def test_certificate_reports_achieved_quantities(self):
        rng = np.random.default_rng(8)
        p, q = random_dist(3, rng), random_dist(3, rng)
        res = solve_B(p, q, 0.3, 0.1, seed=3)
        ach = res.certificate.achieved
        assert ach["lhs"] >= ach["rhs"] - 1e-9
        assert res.certificate.parameters["eta"] == 0.3
        chk = check_statement_B(p, q, res.subspace, StatementParams(eta=0.3, epsilon=0.1))
        assert chk.passes
        assert ach == {"dim": res.subspace.dim, **chk.values}

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(9)
        p, q = random_dist(4, rng), random_dist(4, rng)
        a = solve_B(p, q, 0.3, 0.1, seed=7)
        b = solve_B(p, q, 0.3, 0.1, seed=7)
        assert json.dumps(solve_bundle(a, p, q), sort_keys=True) == json.dumps(
            solve_bundle(b, p, q), sort_keys=True
        )

    def test_same_bytes_at_one_and_two_blas_threads(self):
        # The transform is BLAS matmuls; the thread count must not move a bit
        # of a certificate or of a large transform.
        script = """
import hashlib, json, sys
import numpy as np
from entropic_doubling.certify import solve_bundle
from entropic_doubling.dist import random_dist, wht
from entropic_doubling.pipeline import solve_B
rng = np.random.default_rng(4)
p, q = random_dist(5, rng), random_dist(5, rng)
bundle = solve_bundle(solve_B(p, q, 0.2, 0.05, seed=1), p, q)
table = np.random.default_rng(5).random((512, 4096))
sys.stdout.write(json.dumps(bundle, sort_keys=True))
sys.stdout.write(hashlib.sha256(wht(table).tobytes()).hexdigest())
"""
        src = str(Path(entropic_doubling.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = {
                **os.environ,
                "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
                "OMP_NUM_THREADS": threads,
                "OPENBLAS_NUM_THREADS": threads,
            }
            proc = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, env=env, timeout=300
            )
            assert proc.returncode == 0, proc.stderr.decode()
            outputs.append(proc.stdout)
        assert b"ENDGAME" in outputs[0]
        assert outputs[0] == outputs[1]

    def test_hamming_ball_matches_exhaustive_minimum(self):
        from entropic_doubling.families import hamming_ball

        ball = hamming_ball(4, 1)
        p = uniform_on(ball, 4)
        res = solve_B(p, p, 0.3, 0.1, seed=1)
        minimal = exhaustive_best_subspace(
            p, p, OBJECTIVE_STATEMENT_B, params={"eta": 0.3, "epsilon": 0.1}
        )
        assert res.subspace.dim >= minimal.subspace.dim
        assert res.subspace.dim == 0 == minimal.subspace.dim

    def test_base_case_and_point_mass(self):
        u = uniform_on_subspace(span([1, 2], 3))
        res = solve_B(u, u, 0.5, 0.001, seed=0)
        assert res.subspace == Subspace.zero(3)
        assert [s.kind for s in res.steps] == ["BASE"]
        pm = point_mass(2, 3)
        res2 = solve_B(pm, pm, 0.1, 0.05, seed=0)
        assert res2.subspace == Subspace.zero(3)

    def test_input_validation(self):
        p, q = independent_coordinates_pair()
        with pytest.raises(ValueError):
            solve_B(p, q, 0.7, 0.1)


class TestRichCosets:
    def test_independent_inputs_zero_subspace(self):
        p, q = independent_coordinates_pair()
        res = rich_cosets(p, q, 0.5, seed=0)
        assert res.subspace == Subspace.zero(2)
        assert res.certificate.achieved["s"] == pytest.approx(0.0, abs=1e-9)

    def test_uniform_subspace_keeps_full_conditional_entropy(self):
        v = span([1, 2], 3)
        u = uniform_on_subspace(v)
        res = rich_cosets(u, u, 0.4, seed=0)
        ach = res.certificate.achieved
        assert ach["s"] == pytest.approx(2.0, abs=1e-9)
        assert ach["h_x_given_proj"] >= ach["s"] - 0.4 * ach["h_total"] - 1e-9

    def test_chain_quantities_consistent(self):
        rng = np.random.default_rng(10)
        p, q = random_dist(3, rng), random_dist(3, rng)
        res = rich_cosets(p, q, 0.3, seed=2)
        ach = res.certificate.achieved
        assert ach["s_quotient"] <= 0.3 * ach["h_total"] + 1e-9
        assert ach["s"] == pytest.approx(
            ach["s_quotient"] + ach["s_fiber"] - ach["residual_mi"], abs=1e-9
        )


class TestManySums:
    def test_point_masses(self):
        pms = [point_mass(x, 3) for x in (1, 2, 4)]
        res = many_sums(pms, 0.5, seed=0)
        assert res.subspace == Subspace.zero(3)

    def test_pair_consistent_with_direct_statement(self):
        rng = np.random.default_rng(11)
        p, q = random_dist(3, rng), random_dist(3, rng)
        res = many_sums([p, q], 0.4, seed=1)
        v = res.subspace
        pp, qp = pushforward_quotient(p, v), pushforward_quotient(q, v)
        lhs = shannon_entropy(xor_convolve(pp, qp))
        rhs = (
            shannon_entropy(pp)
            + shannon_entropy(qp)
            - 0.4 * (shannon_entropy(p) + shannon_entropy(q))
        )
        assert lhs >= rhs - 1e-9

    def test_three_uniform_subspace_inputs(self):
        v = span([1, 2], 4)
        u = uniform_on_subspace(v)
        res = many_sums([u, u, u], 0.3, seed=2)
        assert res.subspace == v
        assert res.certificate.achieved["lhs"] == pytest.approx(0.0, abs=1e-12)

    def test_fix_inside_w_stops_at_once(self, monkeypatch):
        # The prefix pair (U, U) violates the gap, as in the test above.
        u = uniform_on_subspace(span([1, 2], 4))
        calls = []

        def zero_rich_cosets(p, q, epsilon, *, seed=0):
            calls.append(1)
            return SimpleNamespace(subspace=Subspace.zero(4))

        pipeline_module = sys.modules["entropic_doubling.pipeline"]
        monkeypatch.setattr(pipeline_module, "rich_cosets", zero_rich_cosets)
        with pytest.raises(PipelineError, match="many_sums stalled"):
            many_sums([u, u, u], 0.3, seed=2)
        assert len(calls) == 1

    def test_capacity(self):
        pm = point_mass(0, 2)
        with pytest.raises(ValidationError, match="2..4 variables, got 5"):
            many_sums([pm] * 5, 0.3)
        with pytest.raises(ValidationError, match="2..4 variables, got 1"):
            many_sums([pm], 0.3)

    @pytest.mark.parametrize("epsilon", [0.0, 1.5])
    def test_epsilon_range(self, epsilon):
        pm = point_mass(0, 2)
        with pytest.raises(ValidationError, match=rf"\(0, 1\], got {epsilon}"):
            many_sums([pm, pm], epsilon)

    def test_negative_seed_rejected_without_a_fix(self):
        # U + U is U, so at epsilon = 1/2 no prefix pair needs rich_cosets.
        u = uniform_on([0, 1], 2)
        assert many_sums([u, u], 0.5).subspace == Subspace.zero(2)
        with pytest.raises(ValidationError, match="seed must be nonnegative, got -1"):
            many_sums([u, u], 0.5, seed=-1)


class TestAnalyzeSet:
    def test_subspace_input(self):
        v = span([1, 2], 3)
        res = analyze_set(list(v.elements()), 3, 0.3, seed=0)
        ach = res.certificate.achieved
        assert ach["eta"] == pytest.approx(1.0, abs=1e-12)
        assert ach["expected_log_intersection"] == pytest.approx(2.0, abs=1e-9)

    def test_singleton_degenerate(self):
        res = analyze_set([0], 3, 0.3, seed=0)
        ach = res.certificate.achieved
        assert ach["eta"] == 0.0
        assert ach["expected_log_intersection"] == pytest.approx(0.0, abs=1e-12)

    def test_empty_rejected(self):
        from entropic_doubling.errors import EmptySupportError

        with pytest.raises(EmptySupportError):
            analyze_set([], 3, 0.3)

    def test_epsilon_range_names_the_given_value(self):
        # rich_cosets runs at epsilon / 2, so (0, 2] is the accepted range.
        with pytest.raises(ValidationError, match=r"\(0, 2\], got 3"):
            analyze_set([0, 1], 1, 3.0)
        with pytest.raises(ValidationError, match=r"\(0, 2\], got 0"):
            analyze_set([0, 1], 1, 0.0)
        assert analyze_set([0, 1], 1, 2.0).certificate.parameters["epsilon"] == 2.0


class TestBundles:
    def test_solve_bundle_round_trip(self):
        rng = np.random.default_rng(12)
        p, q = random_dist(3, rng), random_dist(3, rng)
        res = solve_B(p, q, 0.3, 0.1, seed=4)
        bundle = json.loads(json.dumps(solve_bundle(res, p, q)))
        report = verify_bundle(bundle)
        assert report.ok, report.failures
        # The achieved block is the accepting statement-B check's values.
        chk = check_statement_B(p, q, res.subspace, StatementParams(eta=0.3, epsilon=0.1))
        assert bundle["certificate"]["achieved"] == {"dim": res.subspace.dim, **chk.values}

    def test_tampered_bundle_rejected(self):
        rng = np.random.default_rng(13)
        p, q = random_dist(3, rng), random_dist(3, rng)
        res = solve_B(p, q, 0.3, 0.1, seed=5)
        bundle = solve_bundle(res, p, q)
        bundle["certificate"]["achieved"]["lhs"] += 0.5
        assert not verify_bundle(bundle).ok

    def test_tampered_subspace_rejected(self):
        v = span([1, 2], 3)
        u = uniform_on_subspace(v)
        res = solve_B(u, u, 0.3, 0.1, seed=6)
        bundle = solve_bundle(res, u, u)
        bundle["certificate"]["subspace"] = {"n": 3, "basis": []}
        assert not verify_bundle(bundle).ok

    def test_rich_cosets_bundle(self):
        rng = np.random.default_rng(14)
        p, q = random_dist(3, rng), random_dist(3, rng)
        res = rich_cosets(p, q, 0.4, seed=7)
        assert verify_bundle(solve_bundle(res, p, q)).ok

    def test_many_sums_bundle(self):
        rng = np.random.default_rng(15)
        dists = [random_dist(2, rng) for _ in range(3)]
        res = many_sums(dists, 0.5, seed=8)
        assert verify_bundle(many_sums_bundle(res, dists)).ok

    def test_set_bundle(self):
        from entropic_doubling.families import hamming_ball

        ball = hamming_ball(4, 1)
        res = analyze_set(ball, 4, 0.2, seed=9)
        assert verify_bundle(set_bundle(res, ball, 4)).ok

    def test_endgame_bundle(self):
        u = uniform_on_subspace(span([1, 2], 3))
        t = endgame(u, u, 0.5)
        assert verify_bundle(endgame_bundle(t, u, u)).ok

    def test_pfr_bundle(self):
        rng = np.random.default_rng(16)
        p, q = random_dist(3, rng), random_dist(3, rng)
        cert = pfr_subspace(p, q)
        assert verify_bundle(pfr_bundle(cert, p, q)).ok

    def test_unknown_kind_rejected(self):
        assert not verify_bundle({"kind": "NOPE"}).ok

    VERDICTS = {
        "STATEMENT_B": ["statement B inequality"],
        "RICH_COSETS": ["quotient interaction", "x coset bound", "y coset bound"],
        "MANY_SUMS": ["k-fold inequality"],
        "THEOREM_11": ["coset identity", "intersection bound"],
    }

    @pytest.mark.parametrize("kind", sorted(VERDICTS))
    def test_result_bundle_checks_its_own_criterion(self, kind):
        rng = np.random.default_rng(14)
        p, q = random_dist(3, rng), random_dist(3, rng)
        dists = [random_dist(2, rng) for _ in range(3)]
        ball = hamming_ball(4, 1)
        build = {
            "STATEMENT_B": lambda: solve_bundle(solve_B(p, q, 0.3, 0.1, seed=7), p, q),
            "RICH_COSETS": lambda: solve_bundle(rich_cosets(p, q, 0.4, seed=7), p, q),
            "MANY_SUMS": lambda: many_sums_bundle(many_sums(dists, 0.5, seed=8), dists),
            "THEOREM_11": lambda: set_bundle(analyze_set(ball, 4, 0.2, seed=9), ball, 4),
        }
        check = {
            "STATEMENT_B": lambda v: check_statement_B(
                p, q, v, StatementParams(eta=0.3, epsilon=0.1)
            ),
            "RICH_COSETS": lambda v: check_rich_cosets(p, q, v, 0.4),
            "MANY_SUMS": lambda v: check_many_sums(dists, v, 0.5),
            "THEOREM_11": lambda v: check_theorem_11(ball, uniform_on(ball, 4), v, 0.2),
        }
        bundle = json.loads(json.dumps(build[kind]()))
        assert bundle["kind"] == kind
        assert set(bundle) == {
            "kind", "prng", "inputs", "certificate", "steps", "trivial", "seed", "tolerances",
        }
        v = Subspace.from_json(bundle["certificate"]["subspace"])
        chk = check[kind](v)
        assert chk.verdicts == dict.fromkeys(self.VERDICTS[kind], True)
        assert bundle["certificate"]["achieved"] == {"dim": v.dim, **chk.values}
        assert verify_bundle(bundle).ok


def _count_calls(monkeypatch, module_name: str, name: str) -> list[int]:
    """Count calls of module_name.name through every package module binding it."""
    original = getattr(sys.modules[module_name], name)
    count = [0]

    def counted(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    for key, module in list(sys.modules.items()):
        if key.split(".")[0] == "entropic_doubling" and vars(module).get(name) is original:
            monkeypatch.setattr(module, name, counted)
    return count


class TestTrivialFlag:
    """A certificate with V = 0 or V = F_2^n says so, beside its steps."""

    @staticmethod
    def _assert_flag_ignored_by_verify(bundle: dict) -> None:
        assert verify_bundle(bundle).ok
        assert verify_bundle({**bundle, "trivial": not bundle["trivial"]}).ok
        assert verify_bundle({k: v for k, v in bundle.items() if k != "trivial"}).ok

    def test_whole_group(self):
        ball = hamming_ball(5, 1)
        res = analyze_set(ball, 5, 0.2)
        assert res.subspace == Subspace.full(5)
        assert res.trivial is True
        bundle = json.loads(json.dumps(set_bundle(res, ball, 5)))
        assert bundle["trivial"] is True
        assert list(bundle).index("trivial") == list(bundle).index("steps") + 1
        self._assert_flag_ignored_by_verify(bundle)

    def test_zero_subspace_that_already_passes(self):
        p, q = independent_coordinates_pair()
        res = solve_B(p, q, 0.3, 0.1, seed=0)
        assert res.subspace == Subspace.zero(2)
        assert res.trivial is True
        bundle = json.loads(json.dumps(solve_bundle(res, p, q)))
        assert bundle["trivial"] is True
        self._assert_flag_ignored_by_verify(bundle)

    def test_nontrivial_path_is_not_trivial(self):
        elements = union_of_cosets(4, 2, 2, 0)
        res = analyze_set(elements, 4, 0.2)
        assert 0 < res.subspace.dim < 4
        assert res.trivial is False
        bundle = json.loads(json.dumps(set_bundle(res, elements, 4)))
        assert bundle["trivial"] is False
        self._assert_flag_ignored_by_verify(bundle)


class TestNontrivialPath:
    """Unions of cosets whose certificates are proper subspaces of F_2^n."""

    @pytest.mark.parametrize(
        "args, basis, kinds",
        [
            ((4, 2, 2, 0), (1, 2, 4), ["ENDGAME"]),
            ((5, 2, 2, 1), (1, 2, 28), ["ENDGAME"]),
            ((5, 1, 4, 0), (1, 10, 12, 16), ["ENDGAME", "ENDGAME"]),
        ],
    )
    def test_pinned_basis(self, args, basis, kinds):
        res = analyze_set(union_of_cosets(*args), args[0], 0.2)
        assert res.subspace.basis == basis
        assert [s.kind for s in res.steps] == kinds

    def test_each_grid_measured_once(self, monkeypatch):
        # CASE1 and CASE2 would each build an 8 x 8 fiber grid, but every pair
        # of both meets statement B at V = 0, so neither grid is built and no
        # B-solver runs for them.  The ENDGAME grid's local interaction is the
        # one batched fiber_interactions call, and the rich-cosets check is
        # the one fibring_decompose.  The move table runs once per step: the
        # sumset lemma's test, the case split, the screens and the endgame's
        # hypothesis check all read it.  The ENDGAME case builds only its
        # grid, not the Z-system joints that the standalone endgame reports,
        # and scans each of its 8 + 8 fibers' lattices once for all 64 pairs.
        pipeline_module = sys.modules["entropic_doubling.pipeline"]
        case_grid = pipeline_module.fiber_grid
        solved: list = []

        def counted_grid(fam_x, fam_y, solver, *args):
            return case_grid(fam_x, fam_y, lambda a, b: solved.append(a) or solver(a, b), *args)

        monkeypatch.setattr(pipeline_module, "fiber_grid", counted_grid)
        grids = _count_calls(monkeypatch, "entropic_doubling.entropy", "fiber_interactions")
        fibring = _count_calls(monkeypatch, "entropic_doubling.entropy", "fibring_decompose")
        tables = _count_calls(monkeypatch, "entropic_doubling.endgame", "_move_table")
        joints = _count_calls(monkeypatch, "entropic_doubling.endgame", "z_system_joints")
        endgame_module = sys.modules["entropic_doubling.endgame"]
        scan = endgame_module.lattice_entropies
        scanned: list = []
        monkeypatch.setattr(
            endgame_module, "lattice_entropies", lambda d: scanned.append(d) or scan(d)
        )
        analyze_set(union_of_cosets(4, 2, 2, 0), 4, 0.2)
        assert solved == []
        assert grids[0] == 1
        assert fibring[0] == 1
        assert tables[0] == 1
        assert joints[0] == 0
        assert len(scanned) == len({id(d) for d in scanned}) == 16

    def test_inductive_notes_reach_the_result_and_bundle(self):
        elements = union_of_cosets(4, 2, 2, 0)
        res = analyze_set(elements, 4, 0.2)
        (inner,) = res.steps[-1].note["inductive"]
        note = inner["note"]
        assert inner["kind"] == note["case"] == "ENDGAME"
        assert [f.split(":")[0] for f in note["failures"]] == ["CASE1", "CASE2"]
        assert note["fiber_cap"] == {"applied": False, "cap": 256}
        assert "kappa" in note and "local_to_global" in note
        bundle = json.loads(json.dumps(set_bundle(res, elements, 4)))
        assert bundle["steps"][-1]["note"]["inductive"][0]["note"]["failures"] == note["failures"]
        assert verify_bundle(bundle).ok


def _screen_inputs(n: int, kind: str, seed: int) -> tuple[Dist, Dist]:
    """Random, noisy-subspace or uniform-subspace (X, Y) on F_2^n."""
    rng = np.random.default_rng(seed)
    p, q = random_dist(n, rng), random_dist(n, rng)
    if kind != "random":
        u = uniform_on_subspace(span([1, 2], n)).mass
        mix = 0.0 if kind == "uniform_subspace" else 0.3
        p, q = Dist(n, (1 - mix) * u + mix * p.mass), Dist(n, (1 - mix) * u + mix * q.mass)
    return p, q


def _grid_pairs(fam_x: FiberFamily, fam_y: FiberFamily) -> list[tuple[Dist, Dist]]:
    """The (X_u, Y_w) pairs that fiber_grid hands its solver."""
    pairs: list = []
    fiber_grid(
        fam_x, fam_y,
        lambda a, b: pairs.append((a, b)) or SimpleNamespace(subspace=Subspace.zero(a.n)),
    )
    return pairs


def _without_failure_text(payload):
    """A result's JSON with each inductive-step failure cut to its case name."""
    if isinstance(payload, dict):
        return {
            k: [f.split(":")[0] for f in v] if k == "failures" else _without_failure_text(v)
            for k, v in payload.items()
        }
    if isinstance(payload, list):
        return [_without_failure_text(v) for v in payload]
    return payload


class TestZeroSubspaceScreen:
    """The screen that skips a Case 1/Case 2 grid whose every
    capped fiber pair meets statement B at V = 0."""

    def test_matches_per_pair_statement_b(self):
        # Sum-fiber families of move tables at n = 3..6, and a 32 x 32 grid
        # whose 16 light fibers per side, dropped by the cap, double at ratio
        # 1/2 and fail B at V = 0 wherever the 16 heavy random ones pass.
        rng = np.random.default_rng(0)
        light = uniform_on_subspace(span([1, 2], 5))
        heavy_and_light = FiberFamily(
            np.arange(32),
            np.array([2.0] * 16 + [1.0] * 16) / 48.0,
            np.stack([random_dist(5, rng).mass for _ in range(16)] + [light.mass] * 16),
        )
        grids = [
            (heavy_and_light, heavy_and_light, pair_entropies(heavy_and_light, heavy_and_light))
        ]
        for n, kind in itertools.product(range(3, 7), ("random", "noisy", "uniform_subspace")):
            table = _move_table(*_screen_inputs(n, kind, seed=n))
            grids += [
                (table.fib_pp, table.fib_qq, table.entropies_1),
                (table.fib_pq, table.fib_qp, table.entropies_2),
            ]
        verdicts = set()
        capped = False
        for fam_x, fam_y, entropies in grids:
            n = fam_x.n
            capped |= len(fam_x.labels) * len(fam_y.labels) > FIBER_CAP
            pairs = _grid_pairs(fam_x, fam_y)
            for eta0, eps0 in ((0.05, 0.01), (0.2, 0.05), (0.45, 0.04), (0.5, 0.05)):
                params = StatementParams(eta=eta0, epsilon=eps0)
                expected = all(
                    check_statement_B(a, b, Subspace.zero(n), params).passes for a, b in pairs
                )
                assert _zero_subspace_meets_b(fam_x, fam_y, entropies, eta0, eps0) is expected
                verdicts.add(expected)
        assert capped
        assert verdicts == {True, False}

    def test_pair_at_the_boundary_declines(self):
        # eps0 puts the pair with the smallest H[X_u+Y_w] / (H[X_u]+H[Y_w])
        # 5e-11 from the statement-B boundary.  The solver accepts V = 0 down to
        # -IDENTITY_TOL, so either way it answers every pair with V = 0; the
        # screen, with no tolerance, declines below the boundary, and the grid
        # is then built and solved as without the screen.
        table = _move_table(*_screen_inputs(4, "noisy", seed=4))
        fam_x, fam_y = table.fib_pq, table.fib_qp
        sums = [
            (shannon_entropy(xor_convolve(a, b)), shannon_entropy(a) + shannon_entropy(b))
            for a, b in _grid_pairs(fam_x, fam_y)
        ]
        h_sum, h_pair = min((t for t in sums if t[1] > 0), key=lambda t: t[0] / t[1])
        eta0 = 0.98 - h_sum / h_pair
        for gap, meets in ((5e-11, False), (-5e-11, True)):
            eps0 = 1.0 - eta0 - (h_sum + gap) / h_pair
            assert _zero_subspace_meets_b(fam_x, fam_y, table.entropies_2, eta0, eps0) is meets
            grid = fiber_grid(fam_x, fam_y, exhaustive_b_solver(eta0, eps0))
            assert {v.dim for v in grid.v_table.values()} == {0}
            assert grid.local_interaction == (0.0, 0.0)

    def test_declined_screen_gives_the_same_result(self, monkeypatch):
        # Forcing the screen to decline builds and measures both case grids as
        # before the screen existed; only the failure text differs.
        elements = union_of_cosets(5, 2, 2, 1)
        screened = analyze_set(elements, 5, 0.2)
        failures = screened.steps[-1].note["inductive"][-1]["note"]["failures"]
        assert all("meets statement B at V = 0" in f for f in failures)
        monkeypatch.setattr(
            sys.modules["entropic_doubling.pipeline"], "_zero_subspace_meets_b", lambda *a: False
        )
        built = analyze_set(elements, 5, 0.2)
        failures = built.steps[-1].note["inductive"][-1]["note"]["failures"]
        assert all("too small" in f for f in failures)
        assert _without_failure_text(built.to_json()) == _without_failure_text(screened.to_json())


@given(
    st.integers(2, 5),
    st.integers(0, 10_000),
    st.integers(1, 32),
    st.floats(0.05, 0.45),
    st.floats(0.01, 0.3),
)
@settings(max_examples=40, deadline=None)
def test_b_solvers_return_zero_when_zero_passes(n, seed, support, eta, eps):
    rng = np.random.default_rng(seed)
    p, q = random_dist(n, rng, support), random_dist(n, rng)
    zero = Subspace.zero(n)
    assume(check_statement_B(p, q, zero, StatementParams(eta=eta, epsilon=eps)).passes)
    ctx = _SolveContext(rng=np.random.default_rng(0), seed=0)
    state = ctx.rng.bit_generator.state
    assert _solve_b(p, q, eta, eps, ctx)[0].subspace == zero
    assert ctx.rng.bit_generator.state == state
    assert exhaustive_b_solver(eta, eps)(p, q).subspace == zero
