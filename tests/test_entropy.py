"""Entropy calculus: frozen derived values plus brute-force enumeration oracles."""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from entropic_doubling.dist import (
    Dist,
    FiberFamily,
    JointDist,
    condition_on_sum,
    point_mass,
    product,
    pushforward_quotient,
    quotient_fibers,
    random_dist,
    sum_fibers,
    uniform_on,
    uniform_on_subspace,
    xor_convolve,
)
from entropic_doubling.endgame import z_system_joints
from entropic_doubling.entropy import (
    conditional_doubling_mass,
    conditional_entropy,
    conditional_mutual_information,
    doubling_mass,
    fiber_interactions,
    fibring_decompose,
    mutual_information,
    quotient_entropy,
    ruzsa_distance,
    shannon_entropy,
)
from entropic_doubling.gf2 import Subspace, span
from entropic_doubling.verification import random_subspace

H3 = math.log2(3.0)  # entropy of a uniform 3-point set


def _sum_fiber_dists(p: Dist, q: Dist) -> list[tuple[float, Dist]]:
    """(Pr[X+Y = u], X | X+Y = u) for each fiber of sum_fibers(p, q), one Dist per fiber."""
    fam = sum_fibers(p, q)
    return [(w, condition_on_sum(p, q, u)) for w, u in zip(fam.weights, fam.labels.tolist())]

# Convolution of the uniform 3-point set with itself: masses (3/9, 2/9, 2/9, 2/9).
H_CONV3 = -(1 / 3) * math.log2(1 / 3) - 3 * (2 / 9) * math.log2(2 / 9)


def entropy_of_counter(c: Counter) -> float:
    total = sum(c.values())
    return -sum((v / total) * math.log2(v / total) for v in c.values() if v > 0)


class TestShannonEntropy:
    def test_uniform_eight(self):
        assert shannon_entropy(uniform_on(range(8), 3)) == pytest.approx(3.0, abs=1e-12)

    def test_point_mass(self):
        assert shannon_entropy(point_mass(5, 3)) == pytest.approx(0.0, abs=1e-12)

    def test_dyadic(self):
        d = Dist(2, np.array([0.5, 0.25, 0.25, 0.0]))
        assert shannon_entropy(d) == pytest.approx(1.5, abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            h = shannon_entropy(random_dist(n, rng))
            assert -1e-12 <= h <= n


class TestConditionalEntropy:
    def test_independent_blocks(self):
        rng = np.random.default_rng(1)
        p, q = random_dist(3, rng), random_dist(3, rng)
        j = product(p, q)
        assert conditional_entropy(j, 0, 1) == pytest.approx(
            shannon_entropy(p), abs=1e-9
        )

    def test_copied_block_is_zero(self):
        rng = np.random.default_rng(2)
        p = random_dist(2, rng)
        size = 1 << 2
        table = np.zeros((size, size))
        table[np.arange(size), np.arange(size)] = p.mass
        j = JointDist((2, 2), table)
        assert conditional_entropy(j, 0, 1) == pytest.approx(0.0, abs=1e-9)

    def test_three_point_derived_value(self):
        p = uniform_on([0, 1, 2], 3)
        from entropic_doubling.dist import map_joint

        j = map_joint(product(p, p), [(0,), (0, 1)])  # (X1, X1+X2)
        got = conditional_entropy(j, 0, 1)
        assert got == pytest.approx(2 * H3 - H_CONV3, abs=1e-9)
        assert got == pytest.approx(1.194987500240385, abs=1e-9)

    def test_matches_explicit_fiber_expectation(self):
        rng = np.random.default_rng(3)
        p, q = random_dist(3, rng), random_dist(3, rng)
        explicit = sum(
            w * shannon_entropy(d) for w, d in _sum_fiber_dists(p, q)
        )
        from entropic_doubling.dist import map_joint

        j = map_joint(product(p, q), [(0,), (0, 1)])
        assert conditional_entropy(j, 0, 1) == pytest.approx(explicit, abs=1e-9)


class TestMutualInformation:
    def test_independent_is_zero(self):
        rng = np.random.default_rng(4)
        j = product(random_dist(2, rng), random_dist(3, rng))
        assert mutual_information(j, 0, 1) == pytest.approx(0.0, abs=1e-9)

    def test_identical_blocks(self):
        p = uniform_on([0, 1, 2], 2)
        size = 4
        table = np.zeros((size, size))
        table[np.arange(size), np.arange(size)] = p.mass
        j = JointDist((2, 2), table)
        assert mutual_information(j, 0, 1) == pytest.approx(
            shannon_entropy(p), abs=1e-9
        )

    def test_recoverable_through_constant_noise(self):
        from entropic_doubling.dist import map_joint

        bit = uniform_on([0, 1], 1)
        j = map_joint(product(bit, point_mass(1, 1)), [(0,), (0, 1)])
        assert mutual_information(j, 0, 1) == pytest.approx(1.0, abs=1e-9)

    def test_nonnegative_on_random_joints(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            table = rng.exponential(size=(4, 8))
            j = JointDist((2, 3), table / table.sum())
            assert mutual_information(j, 0, 1) >= -1e-9


class TestConditionalMutualInformation:
    def test_constant_side_reduces_to_mi(self):
        rng = np.random.default_rng(6)
        table = rng.exponential(size=(4, 4))
        j2 = JointDist((2, 2), table / table.sum())
        j3 = JointDist((2, 2, 1), (table / table.sum())[:, :, None] * np.array([1.0, 0.0]))
        assert conditional_mutual_information(j3, 0, 1, 2) == pytest.approx(
            mutual_information(j2, 0, 1), abs=1e-9
        )

    def test_mutually_independent_zero(self):
        rng = np.random.default_rng(7)
        j = product(random_dist(2, rng), random_dist(2, rng), random_dist(2, rng))
        assert conditional_mutual_information(j, 0, 1, 2) == pytest.approx(0.0, abs=1e-9)

    def test_z_system_single_bit_by_full_enumeration(self):
        # Sixteen equally likely tuples (x1, x2, y1, y2); check I[Z1:Z2|S] = 0.
        joint = Counter()
        for x1 in (0, 1):
            for x2 in (0, 1):
                for y1 in (0, 1):
                    for y2 in (0, 1):
                        z1, z2 = x1 ^ y1, x2 ^ y1
                        s = x1 ^ x2 ^ y1 ^ y2
                        joint[(z1, z2, s)] += 1
        def marginal(keyfn):
            out = Counter()
            for key, v in joint.items():
                out[keyfn(*key)] += v
            return out

        h_ab_s = entropy_of_counter(joint)
        h_a_s = entropy_of_counter(marginal(lambda a, b, s: (a, s)))
        h_b_s = entropy_of_counter(marginal(lambda a, b, s: (b, s)))
        h_s = entropy_of_counter(marginal(lambda a, b, s: s))
        by_hand = h_a_s + h_b_s - h_ab_s - h_s
        assert by_hand == pytest.approx(0.0, abs=1e-12)
        bit = uniform_on([0, 1], 1)
        j12, _ = z_system_joints(bit, bit)
        assert conditional_mutual_information(j12, 0, 1, 2) == pytest.approx(
            by_hand, abs=1e-9
        )

    def test_submodularity_on_random_joints(self):
        rng = np.random.default_rng(8)
        for _ in range(1000):
            table = rng.exponential(size=(4, 4, 4))
            j = JointDist((2, 2, 2), table / table.sum())
            assert conditional_mutual_information(j, 0, 1, 2) >= -1e-9


class TestRuzsaDistance:
    def test_uniform_subspace_zero(self):
        u = uniform_on_subspace(span([1, 2], 3))
        assert ruzsa_distance(u, u) == pytest.approx(0.0, abs=1e-9)

    def test_nested_subspaces(self):
        v = uniform_on_subspace(span([1], 3))
        w = uniform_on_subspace(span([1, 2, 4], 3))
        assert ruzsa_distance(v, w) == pytest.approx((3 - 1) / 2, abs=1e-9)

    def test_three_point_derived(self):
        p = uniform_on([0, 1, 2], 3)
        assert ruzsa_distance(p, p) == pytest.approx(H_CONV3 - H3, abs=1e-9)
        assert ruzsa_distance(p, p) == pytest.approx(0.38997500048, abs=1e-9)

    def test_trivial_bounds(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            n = int(rng.integers(1, 7))
            p, q = random_dist(n, rng), random_dist(n, rng)
            d = ruzsa_distance(p, q)
            hp, hq = shannon_entropy(p), shannon_entropy(q)
            assert d >= 0.5 * abs(hp - hq) - 1e-9
            assert d <= 0.5 * (hp + hq) + 1e-9


class TestDoublingMass:
    def test_uniform_subspace(self):
        u = uniform_on_subspace(span([1, 2], 4))
        assert doubling_mass(u, u) == pytest.approx(2.0, abs=1e-9)

    def test_point_mass_partner(self):
        rng = np.random.default_rng(10)
        p = random_dist(3, rng)
        assert doubling_mass(p, point_mass(3, 3)) == pytest.approx(0.0, abs=1e-9)

    def test_three_point_derived(self):
        p = uniform_on([0, 1, 2], 3)
        assert doubling_mass(p, p) == pytest.approx(2 * H3 - H_CONV3, abs=1e-9)

    def test_equals_fiber_entropy_and_trivial_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            p, q = random_dist(n, rng), random_dist(n, rng)
            s = doubling_mass(p, q)
            fiber_h = sum(w * shannon_entropy(d) for w, d in _sum_fiber_dists(p, q))
            assert s == pytest.approx(fiber_h, abs=1e-9)
            assert s <= min(shannon_entropy(p), shannon_entropy(q)) + 1e-9


class TestConditionalDoublingMass:
    def test_single_fiber_reduces_to_doubling(self):
        rng = np.random.default_rng(12)
        p, q = random_dist(3, rng), random_dist(3, rng)
        fx = FiberFamily((0,), np.array([1.0]), p.mass[None])
        fy = FiberFamily((0,), np.array([1.0]), q.mass[None])
        assert conditional_doubling_mass(fx, fy) == pytest.approx(
            doubling_mass(p, q), abs=1e-9
        )

    def test_point_mass_fibers_zero(self):
        fx = FiberFamily(
            (0, 1), np.array([0.5, 0.5]), np.stack([point_mass(0, 2).mass, point_mass(1, 2).mass])
        )
        assert conditional_doubling_mass(fx, fx) == pytest.approx(0.0, abs=1e-12)

    def test_second_fibring_identity_three_point(self):
        # 2 s[X;Y] = s[X1+Y2; X2+Y1] + s[X1|X1+Y2; Y1|Y1+X2] - I[Z1:Z2|S]
        p = uniform_on([0, 1, 2], 3)
        q = uniform_on([0, 1, 2], 3)
        s = doubling_mass(p, q)
        conv = xor_convolve(p, q)
        s_sumsets = doubling_mass(conv, conv)
        s_cond = conditional_doubling_mass(sum_fibers(p, q), sum_fibers(q, p))
        j12, _ = z_system_joints(p, q)
        mi = conditional_mutual_information(j12, 0, 1, 2)
        assert s_sumsets + s_cond == pytest.approx(2 * s + mi, abs=1e-9)

    def test_batched_pairs_equal_the_pair_loop(self):
        # The batched transforms do the arithmetic of one xor_convolve per
        # pair, but each H[X_u + Y_w] and the weighted sum are reductions of
        # their own, in another summation order, so the two agree to 1e-12;
        # at n = 6 the pairs span 4 batches.
        rng = np.random.default_rng(14)
        for n in (2, 4, 6):
            p, q = random_dist(n, rng), random_dist(n, rng)
            fx, fy = sum_fibers(p, q), sum_fibers(q, p)
            loop = 0.0
            for wu, du in _sum_fiber_dists(p, q):
                for ww, dw in _sum_fiber_dists(q, p):
                    h_sum = shannon_entropy(xor_convolve(du, dw))
                    loop += wu * ww * (shannon_entropy(du) + shannon_entropy(dw) - h_sum)
            assert conditional_doubling_mass(fx, fy) == pytest.approx(loop, abs=1e-12)

    def test_matches_conditional_entropy_form(self):
        rng = np.random.default_rng(13)
        p, q = random_dist(3, rng), random_dist(3, rng)
        fx, fy = sum_fibers(p, p), sum_fibers(q, q)
        got = conditional_doubling_mass(fx, fy)
        # H[X|U] + H[Y|W] - H[X+Y|U,W] with U = X1+X2, W = Y1+Y2 computed
        # through an explicit double expectation.
        direct = 0.0
        for wu, du in _sum_fiber_dists(p, p):
            for ww, dw in _sum_fiber_dists(q, q):
                direct += wu * ww * shannon_entropy(xor_convolve(du, dw))
        h_x_given_u = sum(w * shannon_entropy(d) for w, d in _sum_fiber_dists(p, p))
        h_y_given_w = sum(w * shannon_entropy(d) for w, d in _sum_fiber_dists(q, q))
        expect = h_x_given_u + h_y_given_w - direct
        assert got == pytest.approx(expect, abs=1e-9)


def fibring_by_enumeration(p: Dist, q: Dist, v: Subspace):
    """All four fibring terms from an explicit pair walk (independent oracle)."""
    pairs = []
    for x in range(1 << p.n):
        for y in range(1 << q.n):
            w = float(p.mass[x]) * float(q.mass[y])
            if w > 0:
                pairs.append((x, y, w))
    hx = entropy_of_counter(Counter({x: float(m) for x, m in enumerate(p.mass) if m > 0}))
    hy = entropy_of_counter(Counter({y: float(m) for y, m in enumerate(q.mass) if m > 0}))

    def collect(keyfn):
        c = Counter()
        for x, y, w in pairs:
            c[keyfn(x, y)] += w
        return c

    h_z = entropy_of_counter(collect(lambda x, y: x ^ y))
    s_total = hx + hy - h_z
    h_t = entropy_of_counter(collect(lambda x, y: v.reduce(x)))
    h_r = entropy_of_counter(collect(lambda x, y: v.reduce(y)))
    h_c = entropy_of_counter(collect(lambda x, y: v.reduce(x ^ y)))
    s_quotient = h_t + h_r - h_c
    # Fiber term: expectation of doubling masses of the conditioned fibers.
    weight_t = collect(lambda x, y: v.reduce(x))
    weight_r = collect(lambda x, y: v.reduce(y))
    s_fiber = 0.0
    for t, wt in weight_t.items():
        for r, wr in weight_r.items():
            fiber_sum = Counter()
            hx_t = Counter({x: float(m) for x, m in enumerate(p.mass) if m > 0 and v.reduce(x) == t})
            hy_r = Counter({y: float(m) for y, m in enumerate(q.mass) if m > 0 and v.reduce(y) == r})
            for x, mx in hx_t.items():
                for y, my in hy_r.items():
                    fiber_sum[x ^ y] += mx * my
            s_fiber += wt * wr * (
                entropy_of_counter(hx_t) + entropy_of_counter(hy_r) - entropy_of_counter(fiber_sum)
            )
    # Residual: I[Z : (T, R) | C] with C = pi(Z) a function of both sides.
    h_ztr = entropy_of_counter(collect(lambda x, y: (x ^ y, v.reduce(x), v.reduce(y))))
    h_tr = entropy_of_counter(collect(lambda x, y: (v.reduce(x), v.reduce(y))))
    residual = h_z + h_tr - h_ztr - h_c
    return s_total, s_quotient, s_fiber, residual


class TestFibring:
    def test_zero_subspace(self):
        p = uniform_on([0, 1, 2], 3)
        rep = fibring_decompose(p, p, Subspace.zero(3))
        assert rep.s_quotient == pytest.approx(rep.s_total, abs=1e-12)
        assert rep.s_fiber == pytest.approx(0.0, abs=1e-12)
        assert rep.residual_mi == pytest.approx(0.0, abs=1e-12)

    def test_full_space(self):
        p = uniform_on([0, 1, 2], 3)
        rep = fibring_decompose(p, p, Subspace.full(3))
        assert rep.s_fiber == pytest.approx(rep.s_total, abs=1e-12)
        assert rep.s_quotient == pytest.approx(0.0, abs=1e-12)
        assert rep.residual_mi == pytest.approx(0.0, abs=1e-12)

    def test_derived_example_against_enumeration(self):
        p = uniform_on([0, 4, 3], 3)  # {000, 001, 110}
        v = span([4], 3)  # span{001}
        rep = fibring_decompose(p, p, v)
        s_t, s_q, s_f, res = fibring_by_enumeration(p, p, v)
        assert rep.s_total == pytest.approx(s_t, abs=1e-12)
        assert rep.s_quotient == pytest.approx(s_q, abs=1e-12)
        assert rep.s_fiber == pytest.approx(s_f, abs=1e-12)
        assert rep.residual_mi == pytest.approx(res, abs=1e-12)
        assert abs(rep.identity_gap) < 1e-12

    def test_random_instances_against_enumeration(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            p, q = random_dist(n, rng), random_dist(n, rng)
            v = random_subspace(n, rng)
            rep = fibring_decompose(p, q, v)
            s_t, s_q, s_f, res = fibring_by_enumeration(p, q, v)
            assert rep.s_total == pytest.approx(s_t, abs=1e-10)
            assert rep.s_quotient == pytest.approx(s_q, abs=1e-10)
            assert rep.s_fiber == pytest.approx(s_f, abs=1e-10)
            assert rep.residual_mi == pytest.approx(res, abs=1e-10)
            assert rep.residual_mi >= -1e-9

    @pytest.mark.parametrize("n", [4, 5])
    def test_partial_support_at_every_fiber_length_against_enumeration(self, n):
        # dim V = 0, 1, n - 1 and n: fibers from single points to the whole group.
        rng = np.random.default_rng(30 + n)
        for dim in (0, 1, n - 1, n):
            for _ in range(3):
                v = Subspace.zero(n)
                while v.dim < dim:
                    v = span(v.basis + (int(rng.integers(1, 1 << n)),), n)
                p = random_dist(n, rng, int(rng.integers(1, 1 << n)))
                q = random_dist(n, rng, int(rng.integers(1, 1 << n)))
                rep = fibring_decompose(p, q, v)
                s_t, s_q, s_f, res = fibring_by_enumeration(p, q, v)
                assert rep.s_fiber == pytest.approx(s_f, abs=1e-12)
                assert rep.residual_mi == pytest.approx(res, abs=1e-12)
                assert abs(rep.identity_gap) < 1e-12

    def test_memory_stays_bounded_at_the_dense_cap(self):
        # The whole (X+Y, pi(X)) table at n = 12 and V = 0 is 2^24 floats, 128 MiB.
        rng = np.random.default_rng(19)
        p, q = random_dist(12, rng), random_dist(12, rng)
        tracemalloc.start()
        try:
            rep = fibring_decompose(p, q, Subspace.zero(12))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert abs(rep.identity_gap) < 1e-12

    def test_batched_fiber_interactions_match_each_triple_alone(self):
        # Batches share BLAS calls, so a triple's float may move at the last
        # bits with its batch, but no further.
        rng = np.random.default_rng(21)
        triples = []
        for n in (3, 4, 5, 6):
            p, q = random_dist(n, rng), random_dist(n, rng, 1 << (n - 1))
            for _ in range(12):
                v = random_subspace(n, rng)
                triples.append((p.mass, q.mass, v) if rng.random() < 0.5 else (q.mass, p.mass, v))
            # V = F_2^n: alone, the transform is a single row.
            triples.append((p.mass, q.mass, Subspace.full(n)))
        order = rng.permutation(len(triples))
        triples = [triples[i] for i in order]
        batched = fiber_interactions(triples)
        alone = np.array([fiber_interactions([t])[0] for t in triples])
        assert np.max(np.abs(batched - alone)) <= 1e-13

    def test_report_serialization(self):
        p = uniform_on([0, 4, 3], 3)
        payload = fibring_decompose(p, p, span([4], 3)).to_json()
        assert set(payload) == {
            "s_total",
            "s_quotient",
            "s_fiber",
            "residual_mi",
            "identity_gap",
        }


class TestQuotientEntropy:
    def test_zero_subspace(self):
        rng = np.random.default_rng(15)
        p = random_dist(3, rng)
        assert quotient_entropy(p, Subspace.zero(3)) == pytest.approx(
            shannon_entropy(p), abs=1e-12
        )

    def test_uniform_on_v_collapses(self):
        u = uniform_on_subspace(span([1, 2], 3))
        assert quotient_entropy(u, span([1, 2], 3)) == pytest.approx(0.0, abs=1e-12)

    def test_derived_example(self):
        p = uniform_on([0, 4, 3], 3)
        expect = -(2 / 3) * math.log2(2 / 3) - (1 / 3) * math.log2(1 / 3)
        assert quotient_entropy(p, span([4], 3)) == pytest.approx(expect, abs=1e-9)
        assert quotient_entropy(p, span([4], 3)) == pytest.approx(0.9182958, abs=1e-6)

    def test_uniform_smoothing_identity(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            p = random_dist(n, rng)
            v = random_subspace(n, rng)
            lhs = quotient_entropy(p, v)
            rhs = shannon_entropy(xor_convolve(p, uniform_on_subspace(v))) - v.dim
            assert lhs == pytest.approx(rhs, abs=1e-9)


class TestFiberInteractionInequality:
    def test_nested_subspaces(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(2, 5))
            p, q = random_dist(n, rng), random_dist(n, rng)
            v = random_subspace(n, rng)
            members = list(v.elements())
            picks = rng.choice(len(members), size=int(rng.integers(0, len(members) + 1)))
            w = span([members[i] for i in picks], n)
            lhs = fibring_decompose(p, q, v).s_fiber
            term1 = fibring_decompose(p, q, w).s_fiber
            pw, qw = pushforward_quotient(p, w), pushforward_quotient(q, w)
            term2 = conditional_doubling_mass(
                quotient_fibers(pw, v), quotient_fibers(qw, v)
            )
            assert lhs <= term1 + term2 + 1e-9


class TestBaseCaseBound:
    def test_sum_entropy_dominates_parts(self):
        rng = np.random.default_rng(18)
        for _ in range(300):
            n = int(rng.integers(1, 7))
            p, q = random_dist(n, rng), random_dist(n, rng)
            h = shannon_entropy(xor_convolve(p, q))
            assert h >= max(shannon_entropy(p), shannon_entropy(q)) - 1e-9
