"""Dense distributions: convolution, conditioning, quotients, joints."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entropic_doubling.dist import (
    Dist,
    FiberFamily,
    JointDist,
    _WHT_BITS,
    _hadamard,
    condition_on_sum,
    map_joint,
    point_mass,
    product,
    pushforward_quotient,
    quotient_fibers,
    random_dist,
    same_law,
    sum_fibers,
    uniform_on,
    uniform_on_subspace,
    wht,
    xor_convolve,
    xor_convolve_naive,
)
from entropic_doubling.errors import (
    CapacityError,
    ConditioningError,
    DimensionMismatchError,
    EmptySupportError,
    NormalizationError,
    ValidationError,
)
from entropic_doubling.families import sumset, sumset_naive
from entropic_doubling.gf2 import Subspace, span


def convolve_by_pair_enumeration(p: Dist, q: Dist) -> np.ndarray:
    """Third oracle: dict-based pair walk, no numpy vectorization."""
    out = Counter()
    for x in range(1 << p.n):
        for y in range(1 << q.n):
            out[x ^ y] += float(p.mass[x]) * float(q.mass[y])
    table = np.zeros(1 << p.n)
    for k, v in out.items():
        table[k] = v
    return table


class TestConstruction:
    def test_uniform_point_mass(self):
        d = uniform_on([0], 3)
        assert d.mass[0] == 1.0 and d.mass[1:].sum() == 0.0

    def test_uniform_full_plane(self):
        d = uniform_on(range(4), 2)
        assert np.allclose(d.mass, 0.25)

    def test_uniform_three_points(self):
        d = uniform_on([0, 1, 2], 3)
        assert np.allclose(d.mass[:3], 1 / 3) and d.mass[3:].sum() == 0

    def test_empty_set_rejected(self):
        with pytest.raises(EmptySupportError):
            uniform_on([], 3)

    @pytest.mark.parametrize(
        "elements, message",
        [
            ([1.5, 2], r"^element 1\.5 is not an integer$"),
            (["3"], r"^element '3' is not an integer$"),
            ([True, 3], r"^element True is a bool, not an element of F_2\^2$"),
            ([3, np.True_], r"^element np\.True_ is a bool|^element True is a bool"),
        ],
    )
    def test_non_integer_element_rejected(self, elements, message):
        # A float or a bool used as a numpy index would raise IndexError or
        # write the whole table; each is a one-line ValidationError instead.
        with pytest.raises(ValidationError, match=message):
            uniform_on(elements, 2)

    def test_integer_like_elements_accepted(self):
        d = uniform_on([np.int64(1), np.uint8(2), 1], 2)
        assert np.array_equal(d.mass, [0.0, 0.5, 0.5, 0.0])

    def test_unnormalized_rejected(self):
        with pytest.raises(NormalizationError):
            Dist(2, np.array([0.5, 0.0, 0.0, 0.0]))

    def test_negative_mass_rejected(self):
        with pytest.raises(NormalizationError):
            Dist(2, np.array([0.5, 0.6, -0.1, 0.0]))

    def test_nan_mass_rejected(self):
        with pytest.raises(NormalizationError):
            Dist(2, np.array([np.nan, 0.5, 0.5, 0.0]))

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            Dist(13, np.zeros(1 << 13))

    def test_mass_is_frozen(self):
        d = uniform_on([0, 1], 2)
        with pytest.raises(ValueError):
            d.mass[0] = 0.7


class TestWht:
    def test_delta_to_constant(self):
        assert np.allclose(wht(np.array([1.0, 0, 0, 0])), 1.0)

    def test_constant_to_scaled_delta(self):
        assert np.allclose(wht(np.ones(4)), [4.0, 0, 0, 0])

    def test_involution_scaling(self):
        rng = np.random.default_rng(0)
        t = rng.normal(size=4)
        assert np.allclose(wht(wht(t)), 4 * t)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            wht(np.ones(6))

    def test_batched_rows(self):
        rng = np.random.default_rng(1)
        block = rng.normal(size=(5, 8))
        rows = np.stack([wht(r) for r in block])
        assert np.allclose(wht(block), rows)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_a_row_transforms_alike_in_every_batch(self, n):
        # wht is BLAS matmuls, so this pins a property of the BLAS: the
        # floats of a row do not depend on how many rows (two or more) share
        # its batch, nor on a batch's leading shape.  pair_entropies' X = Y
        # triangle reads bit-equal to the full table only because of it.
        # (A one-row batch may take the BLAS's vector path, which rounds
        # otherwise at 8-64 entries.  At those sizes the triangle holds a
        # one-pair batch only at k = 1, where the full table's batch is that
        # one row too, for any family of at most 2^n fibers.)
        rng = np.random.default_rng(n)
        size = 1 << n
        rows = rng.exponential(size=(80, size)) * (rng.random((80, size)) < 0.5)
        whole = wht(rows)
        assert np.array_equal(wht(rows.reshape(16, 5, size)), whole.reshape(16, 5, size))
        for m in range(2, 80):
            assert np.array_equal(wht(rows[:m]), whole[:m])
            assert np.array_equal(wht(rows[-m:]), whole[-m:])

    @pytest.mark.parametrize("n", range(11))
    @pytest.mark.parametrize("lead", [(), (3,), (2, 5)])
    def test_equals_explicit_hadamard_product(self, n, lead):
        idx = np.arange(1 << n)
        parity = np.zeros((1 << n, 1 << n), dtype=np.int64)
        for bit in range(n):
            parity ^= (idx[:, None] >> bit) & (idx[None, :] >> bit) & 1
        hadamard = 1.0 - 2.0 * parity
        rng = np.random.default_rng(n)
        # Small integers: every partial sum is exact, so the two agree exactly.
        ints = rng.integers(-8, 9, size=lead + (1 << n,)).astype(np.float64)
        assert np.array_equal(wht(ints), ints @ hadamard)
        reals = rng.normal(size=lead + (1 << n,))
        assert np.allclose(wht(reals), reals @ hadamard, rtol=0.0, atol=1e-12 * (1 << n))

    @pytest.mark.parametrize("n", range(21))
    def test_involution_up_to_n_20(self, n):
        rng = np.random.default_rng(n)
        t = rng.integers(-8, 9, size=1 << n).astype(np.float64)
        assert np.array_equal(wht(wht(t)), (1 << n) * t)

    @pytest.mark.parametrize("bits", [1, 5, 6, 7, 12, 13, 17, 20])
    def test_sumset_counts_are_exact(self, bits):
        rng = np.random.default_rng(bits)
        members = np.unique(rng.integers(0, 1 << bits, size=min(200, 1 << bits)))
        members[-1] |= 1 << (bits - 1)
        members = np.unique(members)
        assert sumset(members.tolist()) == sumset_naive(members.tolist())
        size = 1 << bits
        indicator = np.zeros(size)
        indicator[members] = 1.0
        pairs = np.bincount((members[:, None] ^ members[None, :]).ravel(), minlength=size)
        assert np.array_equal(wht(wht(indicator) ** 2), size * pairs.astype(np.float64))

    @pytest.mark.parametrize("shape", [(1,), (4, 1), (2,), (3, 64), (3, 128), (2, 4096)])
    def test_fresh_writable_result(self, shape):
        rng = np.random.default_rng(3)
        table = rng.normal(size=shape)
        before = table.copy()
        out = wht(table)
        assert np.array_equal(table, before)
        assert out.flags.writeable
        assert not np.shares_memory(out, table)
        for bits in range(1, _WHT_BITS + 1):
            assert not np.shares_memory(out, _hadamard(bits))
        out /= 2.0

    def test_cached_matrices_are_read_only(self):
        wht(np.ones((2, 1 << 13)))
        for bits in range(1, _WHT_BITS + 1):
            h = _hadamard(bits)
            assert not h.flags.writeable
            with pytest.raises(ValueError):
                h[0, 0] = 2.0


class TestConvolve:
    def test_translation_by_point_mass(self):
        rng = np.random.default_rng(2)
        q = random_dist(3, rng)
        p = point_mass(5, 3)
        out = xor_convolve(p, q)
        idx = np.arange(8)
        assert np.allclose(out.mass, q.mass[idx ^ 5])

    def test_subspace_closed_under_addition(self):
        u = uniform_on_subspace(span([1, 2], 3))
        out = xor_convolve(u, u)
        assert np.allclose(out.mass, u.mass, atol=1e-12)

    def test_three_point_set_by_hand(self):
        p = uniform_on([0, 1, 2], 3)
        out = xor_convolve(p, p)
        expect = np.zeros(8)
        expect[0] = 3 / 9
        expect[1] = expect[2] = expect[3] = 2 / 9
        assert np.allclose(out.mass, expect, atol=1e-12)
        assert np.allclose(xor_convolve_naive(p, p).mass, expect, atol=1e-12)

    def test_fast_equals_naive_equals_dict_oracle(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 4):
            for _ in range(10):
                p = random_dist(n, rng)
                q = random_dist(n, rng)
                fast = xor_convolve(p, q).mass
                slow = xor_convolve_naive(p, q).mass
                by_hand = convolve_by_pair_enumeration(p, q)
                by_hand /= by_hand.sum()
                assert np.max(np.abs(fast - slow)) < 1e-12
                assert np.max(np.abs(fast - by_hand)) < 1e-12

    def test_commutes_and_associates(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            p, q, r = (random_dist(n, rng) for _ in range(3))
            assert np.max(np.abs(xor_convolve(p, q).mass - xor_convolve(q, p).mass)) < 1e-12
            left = xor_convolve(xor_convolve(p, q), r).mass
            right = xor_convolve(p, xor_convolve(q, r)).mass
            assert np.max(np.abs(left - right)) < 1e-12

    def test_swapped_arguments_are_bit_equal(self):
        # The spectra multiply elementwise, so the move table may read
        # xor_convolve(q, p) as xor_convolve(p, q).
        rng = np.random.default_rng(5)
        for n in (2, 5, 8, 12):
            p, q = random_dist(n, rng), random_dist(n, rng, 1 << (n - 1))
            assert np.array_equal(xor_convolve(q, p).mass, xor_convolve(p, q).mass)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            xor_convolve(point_mass(0, 2), point_mass(0, 3))


class TestSameLaw:
    def test_copies_are_the_same_law_and_others_are_not(self):
        rng = np.random.default_rng(6)
        p = random_dist(4, rng)
        assert same_law(p, p) and same_law(p, Dist(4, p.mass.copy()))
        assert not same_law(p, random_dist(4, rng))
        assert not same_law(point_mass(0, 2), point_mass(0, 3))


class TestPushforward:
    def test_zero_subspace_identity(self):
        rng = np.random.default_rng(5)
        p = random_dist(3, rng)
        assert np.allclose(pushforward_quotient(p, Subspace.zero(3)).mass, p.mass)

    def test_full_space_point_mass(self):
        rng = np.random.default_rng(6)
        p = random_dist(3, rng)
        out = pushforward_quotient(p, Subspace.full(3))
        assert out.mass[0] == 1.0

    def test_spec_example(self):
        p = uniform_on([0, 4, 3], 3)
        out = pushforward_quotient(p, span([4], 3))
        assert np.isclose(out.mass[0], 2 / 3) and np.isclose(out.mass[3], 1 / 3)

    def test_homomorphism_with_convolution(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            p, q = random_dist(n, rng), random_dist(n, rng)
            v = span([int(x) for x in rng.integers(0, 1 << n, size=2)], n)
            lhs = pushforward_quotient(xor_convolve(p, q), v).mass
            rhs = xor_convolve(
                pushforward_quotient(p, v), pushforward_quotient(q, v)
            ).mass
            assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestConditionOnSum:
    def test_three_point_fiber(self):
        p = uniform_on([0, 1, 2], 3)
        out = condition_on_sum(p, p, 3)
        assert np.isclose(out.mass[1], 0.5) and np.isclose(out.mass[2], 0.5)

    def test_subspace_symmetry(self):
        u = uniform_on_subspace(span([1, 2], 3))
        out = condition_on_sum(u, u, 3)
        assert np.allclose(out.mass, u.mass, atol=1e-12)

    def test_point_mass_partner(self):
        rng = np.random.default_rng(8)
        p = random_dist(3, rng)
        out = condition_on_sum(p, point_mass(6, 3), 3)
        assert out.mass[3 ^ 6] == 1.0

    def test_zero_probability_event(self):
        u = uniform_on_subspace(span([1, 2], 3))
        with pytest.raises(ConditioningError):
            condition_on_sum(u, u, 4)

    def test_total_probability_reconstruction(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            p, q = random_dist(n, rng), random_dist(n, rng)
            fam = sum_fibers(p, q)
            rebuilt = fam.mixture()
            assert np.max(np.abs(rebuilt.mass - p.mass)) < 1e-12


class TestJoint:
    def test_product_of_point_masses(self):
        j = product(point_mass(1, 2), point_mass(2, 2))
        assert j.mass[1, 2] == 1.0

    def test_product_of_uniform_bits(self):
        j = product(uniform_on([0, 1], 1), uniform_on([0, 1], 1))
        assert np.allclose(j.mass, 0.25)

    def test_marginals_recover_factors(self):
        rng = np.random.default_rng(10)
        p, q = random_dist(2, rng), random_dist(3, rng)
        j = product(p, q)
        assert np.max(np.abs(j.marginal(0).mass - p.mass)) < 1e-12
        assert np.max(np.abs(j.marginal(1).mass - q.mass)) < 1e-12

    def test_marginal_axis_order(self):
        rng = np.random.default_rng(11)
        p, q = random_dist(2, rng), random_dist(2, rng)
        j = product(p, q)
        swapped = j.marginal((1, 0))
        assert np.max(np.abs(swapped.mass - j.mass.T)) < 1e-15

    def test_capacity(self):
        with pytest.raises(CapacityError):
            product(point_mass(0, 2))

    def test_nan_mass_rejected(self):
        with pytest.raises(NormalizationError):
            JointDist((1, 1), np.array([[np.nan, 0.5], [0.5, 0.0]]))

    def test_map_joint_identity(self):
        rng = np.random.default_rng(12)
        p, q = random_dist(2, rng), random_dist(2, rng)
        j = product(p, q)
        out = map_joint(j, [(0,), (1,)])
        assert np.max(np.abs(out.mass - j.mass)) < 1e-15

    def test_map_joint_four_fold_sum_of_point_masses(self):
        a, b, c, d = 1, 3, 4, 6
        j = product(*(point_mass(x, 3) for x in (a, b, c, d)))
        out = map_joint(j, [(0, 1, 2, 3)])
        assert out.mass[a ^ b ^ c ^ d] == 1.0

    def test_map_joint_z_pair_uniform_bits(self):
        bit = uniform_on([0, 1], 1)
        j = product(bit, bit, bit, bit)  # X1, X2, Y1, Y2
        out = map_joint(j, [(0, 2), (1, 2)])  # (X1+Y1, X2+Y1)
        assert np.allclose(out.mass, 0.25)

    def test_map_joint_matches_pair_enumeration(self):
        rng = np.random.default_rng(13)
        p, q = random_dist(2, rng), random_dist(2, rng)
        j = product(p, q)
        out = map_joint(j, [(0, 1)])
        assert np.max(np.abs(out.mass - xor_convolve(p, q).mass)) < 1e-12

    def test_map_joint_rejects_mixed_dims(self):
        j = product(point_mass(0, 2), point_mass(0, 3))
        with pytest.raises(DimensionMismatchError):
            map_joint(j, [(0, 1)])

    def test_map_joint_rejects_bad_blocks(self):
        j = product(point_mass(0, 2), point_mass(0, 2))
        with pytest.raises(ValueError):
            map_joint(j, [(0, 0)])
        with pytest.raises(ValueError):
            map_joint(j, [(2,)])


class TestFiberFamilies:
    def test_quotient_fibers_remix(self):
        rng = np.random.default_rng(14)
        p = random_dist(4, rng)
        v = span([3, 8], 4)
        fam = quotient_fibers(p, v)
        rebuilt = fam.mixture()
        assert np.max(np.abs(rebuilt.mass - p.mass)) < 1e-12
        for label, row in zip(fam.labels, fam.masses):
            assert all(v.reduce(int(x)) == label for x in np.flatnonzero(row > 0.0))

    @staticmethod
    def _pairs(n: int, rng):
        """Random pairs on F_2^n: full supports, sparse supports, and one of each."""
        size = 1 << n
        for _ in range(6):
            yield random_dist(n, rng), random_dist(n, rng)
            sparse = [random_dist(n, rng, int(rng.integers(1, max(2, size // 4) + 1))) for _ in "pq"]
            yield sparse[0], sparse[1]
            yield sparse[0], random_dist(n, rng)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_sum_fiber_rows_equal_condition_on_sum(self, n):
        rng = np.random.default_rng(100 + n)
        for p, q in self._pairs(n, rng):
            fam = sum_fibers(p, q)
            conv = xor_convolve(p, q)
            assert fam.n == n
            assert fam.labels.tolist() == conv.support.tolist()
            assert np.array_equal(fam.weights, conv.mass[conv.support])
            assert not fam.masses.flags.writeable
            for u, row in zip(fam.labels.tolist(), fam.masses):
                assert np.array_equal(row, condition_on_sum(p, q, u).mass)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_quotient_fiber_rows_equal_the_per_coset_dist(self, n):
        rng = np.random.default_rng(200 + n)
        for p, _ in self._pairs(n, rng):
            v = span([int(x) for x in rng.integers(0, 1 << n, size=int(rng.integers(0, n + 1)))], n)
            reps = v.rep_table()
            pushed = np.bincount(reps, weights=p.mass, minlength=1 << n)
            fam = quotient_fibers(p, v)
            assert fam.labels.tolist() == np.flatnonzero(pushed > 0.0).tolist()
            for t, w, row in zip(fam.labels.tolist(), fam.weights, fam.masses):
                assert w == pushed[t]
                coset = Dist(n, np.where(reps == t, p.mass, 0.0) / pushed[t])
                assert np.array_equal(row, coset.mass)

    def test_mixture_adds_the_weighted_rows_in_order(self):
        rng = np.random.default_rng(16)
        for n in (2, 4, 6):
            fam = sum_fibers(random_dist(n, rng), random_dist(n, rng))
            out = np.zeros(1 << n)
            for w, row in zip(fam.weights, fam.masses):
                out += w * row
            assert np.array_equal(fam.mixture().mass, Dist(n, out).mass)

    def test_misaligned_family_rejected(self):
        row = point_mass(1, 2).mass
        with pytest.raises(DimensionMismatchError):
            FiberFamily(np.array([0, 1]), np.array([1.0]), row[None])
        with pytest.raises(DimensionMismatchError):
            FiberFamily(np.array([0]), np.array([0.5, 0.5]), row[None])
        with pytest.raises(DimensionMismatchError):
            FiberFamily(np.array([0]), np.array([1.0]), row)
        with pytest.raises(DimensionMismatchError):
            FiberFamily(np.array([0]), np.array([1.0]), np.ones((1, 3)) / 3)


class TestSerialization:
    def test_dense_round_trip(self):
        rng = np.random.default_rng(15)
        p = random_dist(3, rng)
        payload = p.to_json()
        assert "mass" in payload
        assert np.max(np.abs(Dist.from_json(payload).mass - p.mass)) < 1e-15

    @pytest.mark.parametrize("n", [-1, 0, 13, 40])
    def test_n_outside_dense_cap_rejected_before_allocation(self, n):
        with pytest.raises(CapacityError):
            uniform_on([0], n)
        with pytest.raises(CapacityError):
            Dist.from_json({"n": n, "support": {"0": 1.0}})

    def test_sparse_round_trip(self):
        p = uniform_on([0, 7], 4)
        payload = p.to_json()
        assert "support" in payload
        assert np.max(np.abs(Dist.from_json(payload).mass - p.mass)) < 1e-15

    def test_reader_validates_normalization(self):
        with pytest.raises(ValidationError):
            Dist.from_json({"n": 2, "mass": [0.5, 0.0, 0.0, 0.0]})

    def test_reader_validates_shape(self):
        with pytest.raises(ValidationError):
            Dist.from_json({"n": 2, "mass": [1.0]})

    @pytest.mark.parametrize("key", ["-1", "4"])
    def test_reader_rejects_support_key_outside_table(self, key):
        with pytest.raises(ValidationError, match="support key"):
            Dist.from_json({"n": 2, "support": {key: 1.0}})


@given(st.integers(2, 5), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_convolution_entropy_never_negative_mass(n, seed):
    rng = np.random.default_rng(seed)
    p, q = random_dist(n, rng), random_dist(n, rng)
    out = xor_convolve(p, q)
    assert out.mass.min() >= 0.0
    assert abs(out.mass.sum() - 1.0) < 1e-12
