"""Subspace finders: exhaustive ground truth, greedy ascent, BSG check."""

import operator

import numpy as np
import pytest

from entropic_doubling.dist import (
    JointDist,
    point_mass,
    product,
    pushforward_quotient,
    random_dist,
    uniform_on,
    uniform_on_subspace,
)
from entropic_doubling.entropy import quotient_entropy, ruzsa_distance, shannon_entropy
from entropic_doubling.errors import CapacityError, SearchFailureError
from entropic_doubling.gf2 import Subspace, all_subspaces, span
from entropic_doubling.oracle import (
    OBJECTIVE_PFR,
    OBJECTIVE_PROJECTED_ENTROPY,
    OBJECTIVE_STATEMENT_B,
    _scan_tables,
    bsg_check,
    exhaustive_best_subspace,
    greedy_extension,
    lattice_entropies,
    pfr_subspace,
)
from entropic_doubling.certify import pfr_bundle, verify_bundle
from entropic_doubling.tolerances import ORACLE_TOL


class TestLatticeScan:
    """The scan's one-bincount pushforward against quotient_entropy, V by V."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_scan_entropies_match_quotient_entropy(self, n):
        rng = np.random.default_rng(n)
        subs, bins, _, _ = _scan_tables(n)
        assert subs == all_subspaces(n)
        assert len(np.unique(bins)) == sum(1 << (n - v.dim) for v in subs)
        for p in (random_dist(n, rng), random_dist(n, rng, support_size=3), point_mass(5, n)):
            scanned = lattice_entropies(p)
            expect = np.array([quotient_entropy(p, v) for v in subs])
            assert np.max(np.abs(scanned - expect)) <= ORACLE_TOL


class TestExhaustive:
    def test_point_masses_give_zero_subspace(self):
        p = point_mass(3, 3)
        cert = exhaustive_best_subspace(p, p, OBJECTIVE_PROJECTED_ENTROPY)
        assert cert.subspace == Subspace.zero(3)

    def test_statement_b_golden_fixture(self):
        # Frozen after the first exhaustive run; revalidated against an
        # in-test linear scan over the full lattice.
        p = uniform_on([0, 1, 2], 3)
        cert = exhaustive_best_subspace(
            p, p, OBJECTIVE_STATEMENT_B, params={"eta": 0.1, "epsilon": 0.05}
        )
        assert cert.subspace.basis == (1, 2)
        assert cert.achieved["dim"] == 2
        h_total = 2 * shannon_entropy(p)
        from entropic_doubling.dist import xor_convolve

        for v in all_subspaces(3):
            pp = pushforward_quotient(p, v)
            lhs = shannon_entropy(xor_convolve(pp, pp))
            rhs = 0.9 * 2 * shannon_entropy(pp) - 0.05 * h_total
            ok = lhs >= rhs - 1e-9
            if v.dim < 2:
                assert not ok
            if v == cert.subspace:
                assert ok

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        p, q = random_dist(4, rng), random_dist(4, rng)
        a = exhaustive_best_subspace(p, q, OBJECTIVE_PROJECTED_ENTROPY, entropy_budget=3)
        b = exhaustive_best_subspace(p, q, OBJECTIVE_PROJECTED_ENTROPY, entropy_budget=3)
        assert a.subspace == b.subspace and a.achieved == b.achieved

    def test_capacity_guard(self):
        rng = np.random.default_rng(1)
        p = random_dist(7, rng)
        with pytest.raises(CapacityError):
            exhaustive_best_subspace(p, p, OBJECTIVE_PROJECTED_ENTROPY)

    def test_infeasible_constraints_fail_honestly(self):
        p = uniform_on([0, 1, 2], 3)
        with pytest.raises(SearchFailureError):
            exhaustive_best_subspace(p, p, OBJECTIVE_PFR, entropy_budget=-1)


class TestPfr:
    def test_uniform_subspace_returns_itself(self):
        v = span([1, 4], 3)
        u = uniform_on_subspace(v)
        cert = pfr_subspace(u, u)
        assert cert.subspace == v
        assert cert.achieved["h_proj_x"] == pytest.approx(0.0, abs=1e-12)

    def test_point_masses(self):
        cert = pfr_subspace(point_mass(2, 3), point_mass(5, 3))
        assert cert.subspace == Subspace.zero(3)

    def test_three_point_minimal_qualifier_is_zero_subspace(self):
        p = uniform_on([0, 1, 2], 3)
        cert = pfr_subspace(p, p)
        assert cert.subspace == Subspace.zero(3)
        d = ruzsa_distance(p, p)
        assert cert.achieved["pfr_bound"] == pytest.approx(12 * d, abs=1e-9)
        assert max(cert.achieved["h_proj_x"], cert.achieved["h_proj_y"]) <= 12 * d

    def test_greedy_mode_large_n(self):
        v = span([1, 2], 7)
        u = uniform_on_subspace(v)
        cert = pfr_subspace(u, u)
        assert cert.search_mode == "greedy"
        assert cert.subspace == v
        assert verify_bundle(pfr_bundle(cert, u, u)).ok

    def test_certificates_reverify(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            p, q = random_dist(n, rng), random_dist(n, rng)
            cert = pfr_subspace(p, q)
            assert verify_bundle(pfr_bundle(cert, p, q)).ok

    def test_bounds_always_met(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            p = random_dist(n, rng, support_size=int(rng.integers(1, (1 << n) + 1)))
            q = random_dist(n, rng, support_size=int(rng.integers(1, (1 << n) + 1)))
            cert = pfr_subspace(p, q)
            d = ruzsa_distance(p, q)
            hp = shannon_entropy(pushforward_quotient(p, cert.subspace))
            hq = shannon_entropy(pushforward_quotient(q, cert.subspace))
            assert max(hp, hq) <= 12 * d + 1e-9
            assert cert.subspace.dim <= 7 * (shannon_entropy(p) + shannon_entropy(q)) + 1e-9


class TestGreedyExtension:
    def test_ties_go_to_the_smallest_coset_representative(self):
        u = uniform_on([0, 1, 2, 3], 3)
        # Adding 1, 2 or 3 each halves both supports; 1 is the smallest.
        assert greedy_extension(u, u, Subspace.zero(3), operator.add) == span([1], 3)
        # Modulo <1>, the cosets of 2 and 3 coincide; their representative is 2.
        assert greedy_extension(u, u, span([1], 3), max) == span([1, 2], 3)

    def test_whole_group_has_no_extension(self):
        u = uniform_on([0, 1], 2)
        assert greedy_extension(u, u, Subspace.full(2), max) is None


class TestBsg:
    def test_independent_uniform_subspace(self):
        u = uniform_on_subspace(span([1, 2], 3))
        report = bsg_check(product(u, u))
        assert report.expected_fiber_distance == pytest.approx(0.0, abs=1e-9)
        # 3 I[A:B] + 2 H[A+B] - H[A] - H[B] = 0 + 2 dim - dim - dim = 0
        assert report.bound == pytest.approx(0.0, abs=1e-9)
        assert report.holds

    def test_fully_dependent_bit(self):
        table = np.zeros((2, 2))
        table[0, 0] = table[1, 1] = 0.5
        report = bsg_check(JointDist((1, 1), table))
        assert report.expected_fiber_distance == pytest.approx(0.0, abs=1e-9)
        assert report.bound == pytest.approx(3 * 1 + 2 * 0 - 1 - 1, abs=1e-9)
        assert report.holds

    def test_hundred_random_coupled_joints(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            table = rng.exponential(size=(8, 8))
            report = bsg_check(JointDist((3, 3), table / table.sum()))
            assert report.holds

    def test_serialization(self):
        u = uniform_on_subspace(span([1], 2))
        payload = bsg_check(product(u, u)).to_json()
        assert payload["holds"] is True
