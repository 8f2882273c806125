"""Example families of moderate-doubling sets, and set-level sumset stats.

Generators are deterministic given (parameters, seed); the PRNG is numpy's
PCG64 and the algorithm identifier is recorded in experiment outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .dist import wht
from .errors import EmptySupportError, ValidationError
from .records import Record
from .tolerances import MAX_ELEMENT_N

PRNG_ID = "numpy-pcg64"


def seeded_rng(seed: int) -> np.random.Generator:
    """The PRNG_ID generator for seed, which must be nonnegative."""
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    return np.random.default_rng(seed)


def hamming_ball(n: int, r: int) -> list[int]:
    """All vectors of Hamming weight <= r, sorted."""
    if not 1 <= n <= MAX_ELEMENT_N or not 0 <= r <= n:
        raise ValidationError(
            f"need 0 <= r <= n, 1 <= n <= {MAX_ELEMENT_N}, got n = {n}, r = {r}"
        )
    out = [0]
    for w in range(1, r + 1):
        for bits in combinations(range(n), w):
            x = 0
            for b in bits:
                x |= 1 << b
            out.append(x)
    return sorted(out)


def _check_dims(n: int, dim_v: int) -> None:
    if not 1 <= n <= MAX_ELEMENT_N or not 0 <= dim_v <= n:
        raise ValidationError(
            f"need 0 <= dim_v <= n, 1 <= n <= {MAX_ELEMENT_N}, got n = {n}, dim_v = {dim_v}"
        )


def random_subset_of_subspace(n: int, dim_v: int, count: int, seed: int) -> list[int]:
    """Uniformly random count-subset of the first-coordinates subspace."""
    _check_dims(n, dim_v)
    if not 1 <= count <= (1 << dim_v):
        raise ValidationError(f"count must lie in [1, 2^{dim_v}]")
    rng = seeded_rng(seed)
    members = rng.choice(1 << dim_v, size=count, replace=False)
    return sorted(int(x) for x in members)


def union_of_cosets(n: int, dim_v: int, num_cosets: int, seed: int) -> list[int]:
    """A = V + Lambda for V = span(e_1..e_dim_v) and a random Lambda of the
    given size."""
    _check_dims(n, dim_v)
    if not 1 <= num_cosets <= (1 << n):
        raise ValidationError("invalid coset count")
    rng = seeded_rng(seed)
    lam = rng.choice(1 << n, size=num_cosets, replace=False)
    # V + l is the block of 2^dim_v integers that share l's bits above dim_v;
    # one row per distinct block keeps the table within 2^n entries.
    blocks = np.unique(lam >> dim_v)[:, None] << dim_v
    return (blocks | np.arange(1 << dim_v)).ravel().tolist()


def sumset(elements) -> set[int]:
    """Exact A+A for A in 0..2^MAX_ELEMENT_N - 1: the support of the XOR
    self-convolution of A's indicator, in O(2^m) memory for m the bit length
    of max A."""
    members = sorted(set(elements))
    if not members:
        raise EmptySupportError("sumset of an empty set")
    if members[0] < 0 or members[-1] >= 1 << MAX_ELEMENT_N:
        raise ValidationError(f"sumset elements must lie in 0..2^{MAX_ELEMENT_N} - 1")
    size = 1 << int(members[-1]).bit_length()
    indicator = np.zeros(size)
    indicator[members] = 1.0
    # Entry x is size times the number of pairs (a, b) with a ^ b = x.
    pair_counts = wht(wht(indicator) ** 2)
    return set(np.flatnonzero(pair_counts > size / 2).tolist())


def sumset_naive(elements) -> set[int]:
    """Double-loop oracle for sumset."""
    members = sorted(set(elements))
    if not members:
        raise EmptySupportError("sumset of an empty set")
    return {a ^ b for a in members for b in members}


@dataclass(frozen=True)
class DoublingStats(Record):
    size: int
    sumset_size: int
    eta: float


def doubling_stats(elements) -> DoublingStats:
    """(|A|, |A+A|, eta) with |A+A| = |A|^(2-eta); eta := 0 when |A| = 1."""
    members = sorted(set(elements))
    if not members:
        raise EmptySupportError("doubling stats of an empty set")
    size = len(members)
    ss = len(sumset(members))
    if size == 1:
        eta = 0.0
    else:
        eta = 2.0 - math.log2(ss) / math.log2(size)
    return DoublingStats(size=size, sumset_size=ss, eta=eta)
