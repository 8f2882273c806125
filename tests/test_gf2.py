"""Subspace algebra over F_2^n: canonical forms, lattice operations, quotients."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entropic_doubling.errors import CapacityError, DimensionMismatchError, ValidationError
from entropic_doubling.gf2 import (
    Subspace,
    _rref_batch,
    all_subspaces,
    coset_decompose,
    enumerate_subspaces,
    gaussian_binomial,
    pivot_of,
    span,
    subspace_intersect,
    subspace_sum,
)


def spanned_set(vectors, n):
    """Brute-force span oracle: all XOR combinations."""
    out = {0}
    for v in vectors:
        out |= {x ^ v for x in out}
    return out


class TestSpan:
    def test_empty_span(self):
        v = span([], 3)
        assert v.dim == 0 and v.basis == ()

    def test_dependent_vectors_rank_two(self):
        # 110 + 011 = 101 (little-endian strings; ints 3, 6, 5)
        v = span([3, 6, 5], 3)
        assert v.dim == 2
        assert v.basis == (5, 6)
        assert spanned_set(v.basis, 3) == spanned_set([3, 6, 5], 3)

    def test_standard_basis_full_space(self):
        v = span([1, 2, 4], 3)
        assert v == Subspace.full(3)
        assert v.dim == 3

    def test_span_matches_bruteforce_sets(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            vecs = [int(x) for x in rng.integers(0, 1 << n, size=rng.integers(0, 5))]
            v = span(vecs, n)
            assert set(v.elements()) == spanned_set(vecs, n)
            assert len(set(v.elements())) == 1 << v.dim

    def test_idempotent(self):
        v = span([3, 6, 5], 3)
        assert span(v.basis, 3) == v

    def test_rref_canonicity_under_shuffle(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            n = int(rng.integers(1, 9))
            vecs = [int(x) for x in rng.integers(0, 1 << n, size=rng.integers(1, 6))]
            reference = span(vecs, n)
            perm = list(vecs)
            rng.shuffle(perm)
            assert span(perm, n) == reference

    def test_out_of_range_vector_rejected(self):
        with pytest.raises(DimensionMismatchError):
            span([8], 3)

    def test_non_rref_basis_rejected(self):
        with pytest.raises(ValidationError):
            Subspace(3, (3, 6))  # 3 has pivot 0 but bit 1 collides with 6's pivot

    @given(st.integers(1, 8), st.lists(st.integers(0, 255), max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_span_always_canonical(self, n, raw):
        vecs = [v % (1 << n) for v in raw]
        v = span(vecs, n)
        pivots = v.pivots
        assert list(pivots) == sorted(pivots)
        for i, row in enumerate(v.basis):
            for j, other in enumerate(v.basis):
                if i != j:
                    assert not (other >> pivots[i]) & 1


class TestRrefBatch:
    def test_rows_are_pivot_indexed_canonical_bases(self):
        # Entry p of each row is span's basis row with pivot p, or 0; zero
        # vectors pad rows of unequal length.
        rng = np.random.default_rng(3)
        for n in range(1, 11):
            for m in (1, 2, 5, 12):
                vecs = rng.integers(0, 1 << n, size=(40, m))
                vecs[rng.random(vecs.shape) < 0.3] = 0
                out = _rref_batch(vecs, n)
                assert out.shape == (40, n)
                for row, got in zip(vecs.tolist(), out.tolist()):
                    v = span(row, n)
                    assert [r for r in got if r] == list(v.basis)
                    assert all(r == 0 or pivot_of(r) == p for p, r in enumerate(got))


class TestSumIntersect:
    def test_sum_covers_all_pivots(self):
        assert subspace_sum(span([1, 2], 3), span([2, 4], 3)) == Subspace.full(3)

    def test_sum_with_zero_is_identity(self):
        v = span([3, 4], 3)
        assert subspace_sum(v, Subspace.zero(3)) == v
        assert subspace_sum(v, v) == v

    def test_intersect_shared_generator(self):
        out = subspace_intersect(span([1, 2], 3), span([2, 4], 3))
        assert out == span([2], 3)

    def test_intersect_with_full_space(self):
        v = span([3, 5], 3)
        assert subspace_intersect(v, Subspace.full(3)) == v

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            subspace_sum(span([1], 2), span([1], 3))
        with pytest.raises(DimensionMismatchError):
            subspace_intersect(span([1], 2), span([1], 3))

    def test_exhaustive_membership_and_dimension_formula_n4(self):
        subs = all_subspaces(4)
        members = {v.basis: set(v.elements()) for v in subs}
        for v1, v2 in itertools.product(subs, repeat=2):
            inter = subspace_intersect(v1, v2)
            assert members[inter.basis] == members[v1.basis] & members[v2.basis]
            total = subspace_sum(v1, v2)
            assert v1.dim + v2.dim == total.dim + inter.dim


class TestQuotient:
    def test_clears_pivot_coordinate(self):
        v = span([4], 3)  # "001": coordinate 3
        assert v.reduce(5) == 1  # "101" -> "100"

    def test_kernel_maps_to_zero(self):
        v = span([3, 4], 3)
        for x in v.elements():
            assert v.reduce(x) == 0

    def test_same_coset_same_representative(self):
        v = span([3], 3)  # "110"
        assert v.reduce(1) == v.reduce(2)  # 100 and 010 differ by 110

    def test_projection_linear_exhaustively(self):
        for n in range(1, 5):
            for v in all_subspaces(n):
                for x in range(1 << n):
                    for y in range(1 << n):
                        assert v.reduce(x) ^ v.reduce(y) == v.reduce(x ^ y)

    def test_idempotent(self):
        v = span([3, 4], 3)
        for x in range(8):
            assert v.reduce(v.reduce(x)) == v.reduce(x)

    def test_rep_table_matches_reduce(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            vecs = [int(x) for x in rng.integers(0, 1 << n, size=3)]
            v = span(vecs, n)
            table = v.rep_table()
            for x in range(1 << n):
                assert table[x] == v.reduce(x)

    def test_out_of_range_rejected(self):
        with pytest.raises(DimensionMismatchError):
            span([1], 3).reduce(8)


class TestEnumeration:
    def test_counts_small(self):
        assert len(list(enumerate_subspaces(2))) == 5
        assert len(list(enumerate_subspaces(3))) == 16
        assert list(enumerate_subspaces(1)) == [Subspace.zero(1), span([1], 1)]

    def test_counts_match_gaussian_binomials(self):
        for n in range(1, 6):
            per_dim = {}
            for v in enumerate_subspaces(n):
                per_dim[v.dim] = per_dim.get(v.dim, 0) + 1
            for k in range(n + 1):
                assert per_dim.get(k, 0) == gaussian_binomial(n, k)

    def test_each_subspace_exactly_once(self):
        seen = set()
        for v in enumerate_subspaces(4):
            key = frozenset(v.elements())
            assert key not in seen
            seen.add(key)
        assert len(seen) == 67

    def test_order_by_dim_then_lex(self):
        listed = list(enumerate_subspaces(3))
        keys = [(v.dim, v.basis) for v in listed]
        assert keys == sorted(keys)

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            list(enumerate_subspaces(7))


class TestCosetDecompose:
    def test_set_equals_subspace(self):
        v = span([1, 2], 3)
        parts = coset_decompose(v.elements(), v)
        assert list(parts) == [0]
        assert set(parts[0]) == set(v.elements())

    def test_zero_subspace_gives_singletons(self):
        parts = coset_decompose([1, 4, 6], Subspace.zero(3))
        assert all(len(p) == 1 for p in parts.values())
        assert len(parts) == 3

    def test_spec_example(self):
        # A = {000, 001, 110}, V = span{001}: ints {0, 4, 3}, V = span{4}
        parts = coset_decompose([0, 4, 3], span([4], 3))
        assert parts == {0: (0, 4), 3: (3,)}

    def test_partition_property_random(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 11))
            size = int(rng.integers(1, min(64, 1 << n) + 1))
            a = set(int(x) for x in rng.integers(0, 1 << n, size=size))
            v = span([int(x) for x in rng.integers(0, 1 << n, size=2)], n)
            parts = coset_decompose(a, v)
            union = set()
            for rep, members in parts.items():
                chunk = set(members)
                assert not (union & chunk)
                union |= chunk
                assert all(v.reduce(x) == rep for x in chunk)
            assert union == a


class TestSerialization:
    def test_round_trip(self):
        v = span([3, 6, 5], 3)
        assert Subspace.from_json(v.to_json()) == v

    def test_hex_encoding(self):
        v = span([10], 4)
        assert v.to_json() == {"n": 4, "basis": ["a"]}

    def test_rejects_non_rref(self):
        with pytest.raises(ValidationError):
            Subspace.from_json({"n": 3, "basis": ["3", "6"]})

    @pytest.mark.parametrize(
        "payload",
        [
            {"n": 3, "basis": "12"},
            {"n": 3, "basis": {"1": "2"}},
            {"n": 3.0, "basis": ["1"]},
            {"n": True, "basis": ["1"]},
            {"n": "3", "basis": ["1"]},
        ],
        ids=["basis-string", "basis-object", "n-float", "n-bool", "n-string"],
    )
    def test_n_must_be_an_integer_and_basis_a_list(self, payload):
        # Iterating the string "12" read the basis <1, 2>.
        with pytest.raises(ValidationError, match="^malformed subspace payload: "):
            Subspace.from_json(payload)

    def test_rejects_malformed(self):
        with pytest.raises(ValidationError):
            Subspace.from_json({"n": 3})
        with pytest.raises(ValidationError):
            Subspace.from_json({"n": 3, "basis": ["zz"]})
