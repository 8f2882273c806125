"""Subspace finders: exhaustive ground truth and greedy ascent."""

import json
import operator

import numpy as np
import pytest

from entropic_doubling.dist import (
    Dist,
    point_mass,
    pushforward_quotient,
    random_dist,
    uniform_on,
    uniform_on_subspace,
)
from entropic_doubling.entropy import _plogp, quotient_entropy, ruzsa_distance, shannon_entropy
from entropic_doubling.errors import CapacityError, SearchFailureError, ValidationError
from entropic_doubling.gf2 import Subspace, all_subspaces, span
from entropic_doubling.oracle import (
    OBJECTIVE_PFR,
    OBJECTIVE_PROJECTED_ENTROPY,
    OBJECTIVE_STATEMENT_B,
    _scan_tables,
    exhaustive_best_subspace,
    extension_entropies,
    greedy_extension,
    lattice_entropies,
    pfr_subspace,
)
from entropic_doubling.certify import pfr_bundle, solve_bundle, verify_bundle
from entropic_doubling.pipeline import SolveResult
from entropic_doubling.tolerances import MASS_EPS, ORACLE_TOL


def _all_points_scan(d: Dist) -> np.ndarray:
    """The lattice scan over every point, as a reference: one bincount of all
    2^n points, subspace by subspace, and _plogp's masked log on every bin."""
    _, bins, starts, _ = _scan_tables(d.n)
    pushed = np.bincount(bins.T.ravel(), weights=np.tile(d.mass, len(starts)))
    return np.maximum(-np.add.reduceat(_plogp(pushed), starts), 0.0) + 0.0


def _scan_inputs(n: int, rng: np.random.Generator) -> list[Dist]:
    """Full supports, 1-12 point supports, the uniform law on a coset of a
    random V, and supports whose masses lie 0-3 ulps above MASS_EPS."""
    size = 1 << n
    subspaces = all_subspaces(n)
    masses = [rng.exponential(size=size) for _ in range(5)]
    for k in range(1, min(12, size) + 1):
        mass = np.zeros(size)
        mass[rng.choice(size, k, replace=False)] = rng.exponential(size=k)
        masses.append(mass)
    for _ in range(5):
        members = np.array(list(subspaces[rng.integers(len(subspaces))].elements()))
        mass = np.zeros(size)
        mass[members ^ int(rng.integers(size))] = 1.0
        masses.append(mass)
    dists = [Dist(n, mass / mass.sum()) for mass in masses]
    for _ in range(5):
        # The masses sum to exactly 1, so Dist keeps them as given, and a
        # coset bin holding one small point sits on or just above MASS_EPS.
        k = int(rng.integers(1, size))
        points = rng.choice(size, k + 1, replace=False)
        small = MASS_EPS + rng.integers(0, 4, size=k) * np.spacing(MASS_EPS)
        mass = np.zeros(size)
        mass[points[1:]] = small
        mass[points[0]] = 1.0 - small.sum()
        assert mass.sum() == 1.0
        dists.append(Dist(n, mass))
    return dists


class TestLatticeScan:
    """The scan's one-bincount pushforward against quotient_entropy, V by V,
    and against the all-points scan, float by float."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_support_rows_give_the_all_points_floats(self, n):
        # Each bin adds its support points in increasing x, as the all-points
        # scan does, and t log2 t on the hit list is _plogp's, so every
        # entropy is the same float, sign bit included.
        rng = np.random.default_rng(100 + n)
        for d in _scan_inputs(n, rng):
            scanned, reference = lattice_entropies(d.mass), _all_points_scan(d)
            assert np.array_equal(scanned, reference)
            assert np.array_equal(np.signbit(scanned), np.signbit(reference))

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_scan_entropies_match_quotient_entropy(self, n):
        rng = np.random.default_rng(n)
        subs, bins, _, _ = _scan_tables(n)
        assert subs == all_subspaces(n)
        assert len(np.unique(bins)) == sum(1 << (n - v.dim) for v in subs)
        for p in (random_dist(n, rng), random_dist(n, rng, support_size=3), point_mass(5, n)):
            scanned = lattice_entropies(p.mass)
            expect = np.array([quotient_entropy(p, v) for v in subs])
            assert np.max(np.abs(scanned - expect)) <= ORACLE_TOL

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_one_coset_never_reads_below_zero(self, n):
        # X on one coset of V has H[pi_V(X)] = 0.  The scan sums unrenormalized
        # masses, so that coset's bin holds 1 within a few ulps: unclamped, a
        # bin just over 1 gives about -1.8e-16 bits (one V in seven here),
        # and a bin just under 1 gives a reading below 1e-15.
        rng = np.random.default_rng(n)
        subspaces = all_subspaces(n)
        readings = []
        for i in rng.choice(len(subspaces), size=min(200, len(subspaces)), replace=False):
            v = subspaces[i]
            members = np.array(list(v.elements())) ^ int(rng.integers(1 << n))
            mass = np.zeros(1 << n)
            mass[members] = rng.exponential(size=len(members))
            readings.append(lattice_entropies(Dist(n, mass / mass.sum()).mass)[i])
        readings = np.array(readings)
        assert not np.any(np.signbit(readings))
        assert np.all(readings < 1e-15)
        assert np.count_nonzero(readings == 0.0) > len(readings) // 2


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

    @pytest.mark.parametrize("seed", range(6))
    def test_statement_b_certificate_bundle_verifies(self, seed):
        rng = np.random.default_rng(seed)
        n = 3 + seed % 3
        p = random_dist(n, rng, support_size=int(rng.integers(2, (1 << n) + 1)))
        q = random_dist(n, rng, support_size=int(rng.integers(2, (1 << n) + 1)))
        cert = exhaustive_best_subspace(
            p, q, OBJECTIVE_STATEMENT_B, params={"eta": 0.3, "epsilon": 0.05}
        )
        assert (cert.criterion, cert.search_mode) == ("STATEMENT_B", "exhaustive")
        bundle = solve_bundle(SolveResult(certificate=cert, steps=(), seed=0), p, q)
        report = verify_bundle(json.loads(json.dumps(bundle)))
        assert report.ok, report.failures

    @pytest.mark.parametrize(
        "params",
        [{"eta": 0.7, "epsilon": 5}, {"eta": 0.3, "epsilon": 5}, {"eta": 0.7, "epsilon": 0.1}],
    )
    def test_statement_b_parameters_outside_their_range_rejected(self, params):
        p = uniform_on([0, 1, 2], 3)
        with pytest.raises(ValidationError, match="must lie in"):
            exhaustive_best_subspace(p, p, OBJECTIVE_STATEMENT_B, params=params)

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
        assert greedy_extension(u, u, span([1], 3), np.maximum) == span([1, 2], 3)

    @pytest.mark.parametrize("n", [7, 8])
    def test_matches_span_based_reference(self, n):
        rng = np.random.default_rng(40 + n)
        for _ in range(4):
            p = random_dist(n, rng, int(rng.integers(2, 1 << n)))
            q = random_dist(n, rng, int(rng.integers(2, 1 << n)))
            v = span([int(x) for x in rng.integers(0, 1 << n, size=int(rng.integers(0, 4)))], n)
            for combine in (operator.add, np.maximum):
                best, best_score = None, np.inf
                for vec in range(1, 1 << n):
                    if v.reduce(vec) != vec:
                        continue
                    cand = span(v.basis + (vec,), n)
                    score = combine(quotient_entropy(p, cand), quotient_entropy(q, cand))
                    if score < best_score - 1e-15:
                        best, best_score = cand, score
                assert greedy_extension(p, q, v, combine) == best

    def test_whole_group_has_no_extension(self):
        u = uniform_on([0, 1], 2)
        assert greedy_extension(u, u, Subspace.full(2), max) is None


def _span_based_entropies(p, v):
    """(x, H[pi_{V+<x>}(X)]) over V's nonzero coset representatives, one span per x."""
    reps = [x for x in range(1, 1 << v.n) if v.reduce(x) == x]
    return reps, [quotient_entropy(p, span(v.basis + (x,), v.n)) for x in reps]


class TestExtensionEntropies:
    """The merge-loss kernel against quotient_entropy on each V + <x>."""

    @pytest.mark.parametrize(
        "n, support, dim_v",
        [(10, 64, 0), (8, None, 0), (8, 40, 3), (9, None, 2)],
        ids=["64-point support n=10", "full support n=8", "V != 0", "full support V != 0"],
    )
    def test_matches_quotient_entropy(self, n, support, dim_v):
        rng = np.random.default_rng(n + dim_v)
        p = random_dist(n, rng, support)
        v = span([int(x) for x in rng.integers(1, 1 << n, size=dim_v)], n)
        assert v.dim == dim_v
        reps, h = extension_entropies(p, v)
        expect_reps, expect = _span_based_entropies(p, v)
        assert reps.tolist() == expect_reps
        assert np.max(np.abs(h - expect)) <= ORACLE_TOL

    def test_point_mass(self):
        reps, h = extension_entropies(point_mass(5, 6), span([3], 6))
        assert reps.size == 31
        assert np.all(h == 0.0)

    def test_two_masses_whose_sum_crosses_mass_eps(self):
        mass = np.zeros(8)
        mass[0], mass[5], mass[6] = 1.0 - 2 * MASS_EPS, MASS_EPS, MASS_EPS
        p = Dist(3, mass)
        # Each dust mass alone counts 0; merged by x = 5 ^ 6 = 3 they count.
        assert p.mass[5] <= MASS_EPS < p.mass[5] + p.mass[6]
        reps, h = extension_entropies(p, Subspace.zero(3))
        _, expect = _span_based_entropies(p, Subspace.zero(3))
        assert reps.tolist() == list(range(1, 8))
        np.testing.assert_allclose(h, expect, rtol=1e-9, atol=0.0)
        assert h[2] > 10 * max(h[i] for i in range(7) if i != 2)

    def test_support_restricted_noisy_pair_picks_as_span_reference(self):
        # Noisy copies of a 4-dim W inside a 6-dim U, with the noise on U:
        # the shape of the greedy PFR inputs.  Three greedy steps, both
        # combiners, each checked against the span-based scan.
        n, rng = 9, np.random.default_rng(9)
        u_vecs = [int(x) for x in rng.integers(1, 1 << n, size=6)]
        u = span(u_vecs, n)
        w = span(u_vecs[:4], n)
        dists = []
        for _ in range(2):
            mass = np.zeros(1 << n)
            mass[list(w.elements())] = 0.98 / (1 << w.dim)
            noise = rng.exponential(size=1 << u.dim)
            mass[list(u.elements())] += 0.02 * noise / noise.sum()
            dists.append(Dist(n, mass))
        p, q = dists
        for combine in (np.add, np.maximum):
            v = Subspace.zero(n)
            for _ in range(3):
                (reps, hp), (_, hq) = _span_based_entropies(p, v), _span_based_entropies(q, v)
                best, best_score = None, np.inf
                for x, a, b in zip(reps, hp, hq):
                    if combine(a, b) < best_score - 1e-15:
                        best, best_score = x, combine(a, b)
                v_next = greedy_extension(p, q, v, combine)
                assert v_next == span(v.basis + (best,), n)
                v = v_next
