"""Bit-packed linear algebra over F_2^n.

Group elements are plain int bitmasks (bit i = coordinate i, addition is XOR);
subspaces are kept in canonical reduced row echelon form so that two Subspace
values are equal iff they describe the same subspace.  Pivots are least
significant set bits and pivot columns strictly increase down the basis.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

from .errors import CapacityError, DimensionMismatchError, ValidationError
from .tolerances import MAX_ELEMENT_N, MAX_ENUM_N


def _check_n(n: int) -> None:
    if not 1 <= n <= MAX_ELEMENT_N:
        raise CapacityError(f"ambient dimension must be in [1, {MAX_ELEMENT_N}], got {n}")


def _check_element(x: int, n: int) -> None:
    if not 0 <= x < (1 << n):
        raise DimensionMismatchError(f"element {x:#x} out of range for F_2^{n}")


def pivot_of(row: int) -> int:
    """Index of the least significant set bit."""
    return (row & -row).bit_length() - 1


def _rref(vectors: Iterable[int], n: int) -> tuple[int, ...]:
    """Reduced row echelon form, rows sorted by increasing pivot column.

    The rows stay fully reduced as each vector goes in: it is reduced at
    every pivot, and its own pivot bit is then cleared from the other rows.
    """
    rows: dict[int, int] = {}  # pivot column -> row
    for v in vectors:
        _check_element(v, n)
        for p, r in rows.items():
            if (v >> p) & 1:
                v ^= r
        if v:
            p = pivot_of(v)
            for q, r in rows.items():
                if (r >> p) & 1:
                    rows[q] = r ^ v
            rows[p] = v
    return tuple(rows[p] for p in sorted(rows))


def _rref_batch(vectors: np.ndarray, n: int) -> np.ndarray:
    """_rref of each row of an integer array of vectors in F_2^n, all rows at
    once.  Entry p of a result row is the basis row with pivot p, or 0 when
    p is no pivot, so its nonzero entries in order are _rref's canonical
    basis.  Zero vectors add nothing, so rows of unequal length are padded
    with zeros.

    Each row works on its m vectors followed by n result slots.  Column p
    takes the row's first vector with bit p set as its pivot and XORs it into
    every entry holding bit p: that clears bit p from the other vectors and
    from the earlier pivots, and zeroes the pivot's own entry, which then
    moves to slot p.
    """
    m = vectors.shape[1]
    work = np.zeros((len(vectors), m + n), dtype=np.int64)
    work[:, :m] = vectors
    rows = np.arange(len(work))
    for p in range(n):
        bit = (work >> p) & 1
        pivot = work[rows, bit[:, :m].argmax(axis=1)]
        pivot *= (pivot >> p) & 1
        work ^= bit * pivot[:, None]
        work[:, m + p] = pivot
    return work[:, m:]


@dataclass(frozen=True)
class Subspace:
    """A subspace of F_2^n held as a canonical RREF basis."""

    n: int
    basis: tuple[int, ...]

    def __post_init__(self):
        _check_n(self.n)
        if self.basis != _rref(self.basis, self.n):
            raise ValidationError(f"basis {self.basis} is not in canonical RREF")

    @classmethod
    def _canonical(cls, n: int, basis: tuple[int, ...]) -> "Subspace":
        """A Subspace from a basis already in canonical RREF, not re-validated."""
        v = object.__new__(cls)
        object.__setattr__(v, "n", n)
        object.__setattr__(v, "basis", basis)
        return v

    @classmethod
    def zero(cls, n: int) -> "Subspace":
        _check_n(n)
        return cls._canonical(n, ())

    @classmethod
    def full(cls, n: int) -> "Subspace":
        _check_n(n)
        return cls._canonical(n, tuple(1 << i for i in range(n)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(pivot_of(r) for r in self.basis)

    def reduce(self, x: int) -> int:
        """Canonical coset representative: zeros in all pivot coordinates."""
        _check_element(x, self.n)
        for r in self.basis:
            if (x >> pivot_of(r)) & 1:
                x ^= r
        return x

    def contains(self, x: int) -> bool:
        return self.reduce(x) == 0

    def is_subspace_of(self, other: "Subspace") -> bool:
        if self.n != other.n:
            raise DimensionMismatchError("ambient dimensions differ")
        return all(other.contains(r) for r in self.basis)

    def elements(self) -> Iterator[int]:
        """All 2^dim members (capacity-guarded)."""
        if self.dim > MAX_ELEMENT_N:
            raise CapacityError("subspace too large to enumerate")
        for mask in range(1 << self.dim):
            x = 0
            m = mask
            while m:
                i = pivot_of(m)
                x ^= self.basis[i]
                m &= m - 1
            yield x

    def rep_table(self) -> np.ndarray:
        """Vectorized x -> canonical representative over all of F_2^n."""
        return _rep_table(self.n, self.basis)

    def to_json(self) -> dict:
        return {"n": self.n, "basis": [format(r, "x") for r in self.basis]}

    @classmethod
    def from_json(cls, payload: dict) -> "Subspace":
        try:
            n = int(payload["n"])
            basis = tuple(int(h, 16) for h in payload["basis"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed subspace payload: {exc}") from exc
        return cls(n, basis)


@lru_cache(maxsize=4096)
def _rep_table(n: int, basis: tuple[int, ...]) -> np.ndarray:
    idx = np.arange(1 << n, dtype=np.int64)
    rep = idx.copy()
    # Rows never touch each other's pivot bits (RREF), so order is irrelevant.
    for r in basis:
        p = pivot_of(r)
        rep ^= ((rep >> p) & 1) * r
    rep.setflags(write=False)
    return rep


def span(vectors: Iterable[int], n: int) -> Subspace:
    """Canonical subspace spanned by the given bitmask vectors."""
    _check_n(n)
    return Subspace._canonical(n, _rref(vectors, n))


def subspace_sum(v1: Subspace, v2: Subspace) -> Subspace:
    if v1.n != v2.n:
        raise DimensionMismatchError("ambient dimensions differ")
    return span(v1.basis + v2.basis, v1.n)


def subspace_intersect(v1: Subspace, v2: Subspace) -> Subspace:
    """Kernel method: coefficient vectors whose v1-combination lies in v2."""
    if v1.n != v2.n:
        raise DimensionMismatchError("ambient dimensions differ")
    # Pairs (image, coefficient tracker); eliminate images, harvest kernel.
    pivots: dict[int, tuple[int, int]] = {}
    kernel: list[int] = []
    for i, b in enumerate(v1.basis):
        img, track = v2.reduce(b), 1 << i
        while img:
            p = pivot_of(img)
            if p in pivots:
                pimg, ptrack = pivots[p]
                img ^= pimg
                track ^= ptrack
            else:
                pivots[p] = (img, track)
                break
        if img == 0:
            kernel.append(track)
    members = []
    for track in kernel:
        x = 0
        m = track
        while m:
            i = pivot_of(m)
            x ^= v1.basis[i]
            m &= m - 1
        members.append(x)
    return span(members, v1.n)


def enumerate_subspaces(n: int) -> Iterator[Subspace]:
    """Every subspace of F_2^n, ordered by (dim, lex basis)."""
    _check_n(n)
    if n > MAX_ENUM_N:
        raise CapacityError(f"exhaustive enumeration capped at n <= {MAX_ENUM_N}")
    for d in range(n + 1):
        bucket: list[tuple[int, ...]] = []
        for pivs in itertools.combinations(range(n), d):
            piv_set = set(pivs)
            free = [[j for j in range(p + 1, n) if j not in piv_set] for p in pivs]
            for fill in itertools.product(*[range(1 << len(f)) for f in free]):
                rows = []
                for i, p in enumerate(pivs):
                    row = 1 << p
                    for k, j in enumerate(free[i]):
                        if (fill[i] >> k) & 1:
                            row |= 1 << j
                    rows.append(row)
                bucket.append(tuple(rows))
        bucket.sort()
        # Free coordinates skip every pivot column, so each basis is canonical.
        for basis in bucket:
            yield Subspace._canonical(n, basis)


@lru_cache(maxsize=16)
def all_subspaces(n: int) -> tuple[Subspace, ...]:
    return tuple(enumerate_subspaces(n))


def coset_decompose(elements: Iterable[int], v: Subspace) -> dict[int, tuple[int, ...]]:
    """Partition a set by cosets of v, keyed by canonical representative."""
    parts: dict[int, list[int]] = {}
    for x in sorted(set(elements)):
        parts.setdefault(v.reduce(x), []).append(x)
    return {rep: tuple(members) for rep, members in sorted(parts.items())}


def gaussian_binomial(n: int, k: int) -> int:
    """Number of k-dimensional subspaces of F_2^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= (1 << n) - (1 << i)
        den *= (1 << k) - (1 << i)
    return num // den
