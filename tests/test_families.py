"""Example-family generators and set-level sumset statistics."""

import math

import numpy as np
import pytest

from entropic_doubling.errors import EmptySupportError, ValidationError
from entropic_doubling.families import (
    doubling_stats,
    hamming_ball,
    random_subset_of_subspace,
    sumset,
    sumset_naive,
    union_of_cosets,
)
from entropic_doubling.gf2 import coset_decompose, span


class TestHammingBall:
    def test_radius_zero(self):
        assert hamming_ball(4, 0) == [0]

    def test_radius_one(self):
        ball = hamming_ball(4, 1)
        assert ball == [0, 1, 2, 4, 8]

    def test_full_radius(self):
        assert hamming_ball(4, 4) == list(range(16))

    def test_sizes_are_binomial_sums(self):
        for n, r in [(6, 2), (8, 3), (12, 3)]:
            assert len(hamming_ball(n, r)) == sum(
                math.comb(n, i) for i in range(r + 1)
            )

    def test_range_validation(self):
        with pytest.raises(ValueError):
            hamming_ball(4, 5)


class TestRandomSubset:
    def test_full_count_gives_whole_subspace(self):
        out = random_subset_of_subspace(6, 3, 8, seed=1)
        assert out == list(range(8))

    def test_singleton(self):
        out = random_subset_of_subspace(6, 3, 1, seed=2)
        assert len(out) == 1 and 0 <= out[0] < 8

    def test_containment_and_determinism(self):
        a = random_subset_of_subspace(8, 6, 16, seed=3)
        b = random_subset_of_subspace(8, 6, 16, seed=3)
        assert a == b
        assert all(x < (1 << 6) for x in a)
        stats = doubling_stats(a)
        assert stats.sumset_size <= 1 << 6  # forced containment in V

    def test_count_validation(self):
        with pytest.raises(ValueError):
            random_subset_of_subspace(6, 2, 5, seed=0)


class TestUnionOfCosets:
    def test_single_coset_is_a_coset_of_v(self):
        out = union_of_cosets(6, 3, 1, seed=4)
        assert len(out) == 8
        assert len(sumset(out)) == 8  # coset + coset = V

    def test_dim_zero_gives_plain_random_set(self):
        out = union_of_cosets(6, 0, 5, seed=5)
        assert len(out) == 5

    def test_coset_structure_bound(self):
        v = span([1, 2, 4], 8)
        out = union_of_cosets(8, 3, 4, seed=6)
        reps = sorted(coset_decompose(out, v))
        lam_sum = {a ^ b for a in reps for b in reps}
        assert len(sumset(out)) <= (1 << 3) * len(lam_sum)

    def test_determinism(self):
        assert union_of_cosets(8, 3, 4, seed=7) == union_of_cosets(8, 3, 4, seed=7)


class TestSumset:
    def test_subspace_is_closed(self):
        v = list(span([1, 2], 4).elements())
        assert sumset(v) == set(v)

    def test_two_point_subspace(self):
        assert sumset([0, 1]) == {0, 1}

    def test_hamming_ball_r1(self):
        ball = hamming_ball(4, 1)
        out = sumset(ball)
        assert len(out) == 11
        assert out == set(hamming_ball(4, 2))

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(1, 11))
            size = int(rng.integers(1, min(32, 1 << n) + 1))
            a = [int(x) for x in rng.integers(0, 1 << n, size=size)]
            assert sumset(a) == sumset_naive(a)

    def test_empty_rejected(self):
        with pytest.raises(EmptySupportError):
            sumset([])

    @pytest.mark.parametrize("elements", [[-1, 2], [0, 1 << 20]])
    def test_element_out_of_range_rejected(self, elements):
        with pytest.raises(ValidationError):
            sumset(elements)


class TestDoublingStats:
    def test_subspace_eta_one(self):
        stats = doubling_stats(list(span([1, 2, 4], 5).elements()))
        assert stats.eta == pytest.approx(1.0, abs=1e-12)

    def test_two_point_set(self):
        stats = doubling_stats([0, 1])
        assert stats.eta == pytest.approx(1.0, abs=1e-12)

    def test_hamming_ball_value(self):
        stats = doubling_stats(hamming_ball(4, 1))
        assert stats.size == 5 and stats.sumset_size == 11
        assert stats.eta == pytest.approx(2 - math.log2(11) / math.log2(5), abs=1e-12)
        assert stats.eta == pytest.approx(0.5101039, abs=1e-6)

    def test_singleton_guard(self):
        assert doubling_stats([3]).eta == 0.0

    def test_whole_cube_at_the_element_cap(self):
        # |A| = 2^20: a pairwise |A| x |A| table would need 8 TiB.
        stats = doubling_stats(range(1 << 20))
        assert stats.sumset_size == 1 << 20
        assert stats.eta == 1.0
