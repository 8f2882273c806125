"""Dense probability distributions over F_2^n.

A Dist is a length-2^n float64 table; a JointDist is a k-block table (k <= 4)
with one axis per block; a FiberFamily is a family of conditioned fibers as
one k x 2^n table, one row per fiber.  All operations are pure: inputs are
never mutated and returned tables are renormalized to kill floating-point
drift, with sub-MASS_EPS dust clamped to zero.
"""

from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    CapacityError,
    ConditioningError,
    DimensionMismatchError,
    EmptySupportError,
    NormalizationError,
    ValidationError,
)
from .gf2 import Subspace, _json_n
from .tolerances import IDENTITY_TOL, MASS_EPS, MAX_DENSE_N, MAX_JOINT_BITS


def _clean(raw: np.ndarray, axis: int | None = None) -> np.ndarray:
    """Clamp dust, renormalize, freeze: the whole table, or each slice along axis."""
    mass = np.asarray(raw, dtype=np.float64).copy()
    # Written so that NaN fails both tests.
    lowest = mass.min()
    if not lowest >= -1e-12:
        raise NormalizationError(f"negative or NaN mass {lowest:.3e}")
    mass[mass < MASS_EPS] = 0.0
    total = mass.sum(axis=axis, keepdims=axis is not None)
    worst = total if axis is None else total.flat[np.argmax(np.abs(total - 1.0))]
    if not abs(worst - 1.0) <= IDENTITY_TOL:
        raise NormalizationError(f"total mass {worst!r} not within 1e-9 of 1")
    mass /= total
    mass.setflags(write=False)
    return mass


def _check_dense_n(n: int) -> None:
    """Reject n before anything allocates a 2^n table."""
    if not 1 <= n <= MAX_DENSE_N:
        raise CapacityError(f"dense distributions need 1 <= n <= {MAX_DENSE_N}, got {n}")


@dataclass(frozen=True, eq=False)
class Dist:
    """Probability distribution over F_2^n as a dense table."""

    n: int
    mass: np.ndarray

    def __post_init__(self):
        _check_dense_n(self.n)
        mass = np.asarray(self.mass, dtype=np.float64)
        if mass.shape != (1 << self.n,):
            raise DimensionMismatchError(
                f"mass table has shape {mass.shape}, expected ({1 << self.n},)"
            )
        object.__setattr__(self, "mass", _clean(mass))

    @property
    def support(self) -> np.ndarray:
        return np.nonzero(self.mass > 0.0)[0]

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(str(self.n).encode())
        h.update(np.round(self.mass, 12).tobytes())
        return h.hexdigest()[:16]

    def to_json(self) -> dict:
        """Hex-keyed support if under a quarter of the table is occupied, else the mass list."""
        if len(self.support) * 4 < len(self.mass):
            return {
                "n": self.n,
                "support": {format(int(i), "x"): float(self.mass[i]) for i in self.support},
            }
        return {"n": self.n, "mass": [float(m) for m in self.mass]}

    @classmethod
    def from_json(cls, payload: dict) -> "Dist":
        try:
            n = _json_n(payload)
            _check_dense_n(n)
            if "mass" in payload:
                mass = np.asarray(payload["mass"], dtype=np.float64)
            else:
                mass = np.zeros(1 << n)
                for key, val in payload["support"].items():
                    x = int(key, 16)
                    if not 0 <= x < 1 << n:
                        raise ValidationError(f"support key {key!r} is not in 0..2^{n} - 1")
                    mass[x] = float(val)
        except CapacityError:
            raise
        except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"malformed distribution payload: {exc}") from exc
        try:
            return cls(n, mass)
        except (NormalizationError, DimensionMismatchError) as exc:
            raise ValidationError(str(exc)) from exc


@dataclass(frozen=True, eq=False)
class JointDist:
    """Joint distribution over a product of F_2^{n_i} blocks, k <= 4."""

    dims: tuple[int, ...]
    mass: np.ndarray

    def __post_init__(self):
        if not 1 <= len(self.dims) <= 4:
            raise CapacityError("joint distributions support 1..4 blocks")
        if sum(self.dims) > MAX_JOINT_BITS:
            raise CapacityError(f"joint table exceeds {MAX_JOINT_BITS} total bits")
        shape = tuple(1 << d for d in self.dims)
        mass = np.asarray(self.mass, dtype=np.float64)
        if mass.shape != shape:
            raise DimensionMismatchError(
                f"mass table has shape {mass.shape}, expected {shape}"
            )
        object.__setattr__(self, "mass", _clean(mass))

    @property
    def k(self) -> int:
        return len(self.dims)

    def marginal(self, blocks: int | Sequence[int]) -> "JointDist | Dist":
        keep = (blocks,) if isinstance(blocks, int) else tuple(blocks)
        if any(b < 0 or b >= self.k for b in keep) or len(set(keep)) != len(keep):
            raise ValidationError(f"invalid block indices {keep}")
        drop = tuple(a for a in range(self.k) if a not in keep)
        table = self.mass.sum(axis=drop) if drop else self.mass
        # Reorder axes to the requested block order.
        order = tuple(sorted(range(len(keep)), key=lambda i: keep[i]))
        inverse = tuple(np.argsort(order))
        table = np.transpose(table, inverse)
        if len(keep) == 1:
            return Dist(self.dims[keep[0]], table)
        return JointDist(tuple(self.dims[b] for b in keep), table)


def _element(x, n: int) -> int:
    """x as an element of F_2^n: an integer (operator.index, never a bool)
    in 0 .. 2^n - 1."""
    if isinstance(x, (bool, np.bool_)):
        raise ValidationError(f"element {x!r} is a bool, not an element of F_2^{n}")
    try:
        x = operator.index(x)
    except TypeError:
        raise ValidationError(f"element {x!r} is not an integer") from None
    if not 0 <= x < (1 << n):
        raise DimensionMismatchError(f"element {x:#x} out of range for F_2^{n}")
    return x


def uniform_on(elements: Iterable[int], n: int) -> Dist:
    """Uniform distribution on a nonempty subset of F_2^n."""
    _check_dense_n(n)
    members = sorted({_element(x, n) for x in elements})
    if not members:
        raise EmptySupportError("uniform_on requires a nonempty set")
    mass = np.zeros(1 << n)
    mass[members] = 1.0 / len(members)
    return Dist(n, mass)


def point_mass(x: int, n: int) -> Dist:
    return uniform_on([x], n)


def uniform_on_subspace(v: Subspace) -> Dist:
    return uniform_on(list(v.elements()), v.n)


def random_dist(n: int, rng: np.random.Generator, support_size: int | None = None) -> Dist:
    """Random distribution with exponential weights on a random support."""
    size = 1 << n
    mass = np.zeros(size)
    if support_size is None:
        mass = rng.exponential(size=size)
    else:
        support_size = max(1, min(support_size, size))
        idx = rng.choice(size, size=support_size, replace=False)
        mass[idx] = rng.exponential(size=support_size)
    mass /= mass.sum()
    return Dist(n, mass)


# Largest Hadamard factor of the transform, in bits: 64-wide matmuls timed
# fastest; 7- and 8-bit factors doubled the time of a 128-entry axis and of 2^20.
_WHT_BITS = 6


@lru_cache(maxsize=None)
def _hadamard(bits: int) -> np.ndarray:
    """The read-only +-1 Hadamard matrix H[i, j] = (-1)^popcount(i & j) of order 2^bits."""
    h = np.ones((1, 1))
    for _ in range(bits):
        h = np.block([[h, h], [h, -h]])
    h.setflags(write=False)
    return h


def wht(table: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform along the last axis; wht(wht(t)) == size * t.

    H of order 2^b is the Kronecker product of ceil(b / _WHT_BITS) near-equal
    factors of at most _WHT_BITS bits, highest bits first, so the transform is
    one matmul per factor: b <= 6 takes one, a 4096-entry axis two 64-wide ones.
    The result is a new writable array.
    """
    x = np.asarray(table, dtype=np.float64)
    size = x.shape[-1]
    if size == 0 or size & (size - 1):
        raise ValidationError(f"length {size} is not a power of two")
    if size == 1:
        return x.copy()
    shape, bits = x.shape, size.bit_length() - 1
    parts = -(-bits // _WHT_BITS)
    low = size
    for i in range(parts - 1):
        c = (bits + i) // parts
        low >>= c
        x = _hadamard(c) @ x.reshape(-1, 1 << c, low)
    return (x.reshape(-1, low) @ _hadamard(low.bit_length() - 1)).reshape(shape)


def _convolve_raw(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """XOR convolution of raw (not necessarily normalized) tables."""
    spec = wht(a) * wht(b)
    return wht(spec) / len(a)


def xor_convolve(p: Dist, q: Dist) -> Dist:
    """Distribution of X+Y for independent X ~ p, Y ~ q (fast transform)."""
    if p.n != q.n:
        raise DimensionMismatchError("ambient dimensions differ")
    return Dist(p.n, np.maximum(_convolve_raw(p.mass, q.mass), 0.0))


def same_law(p: Dist, q: Dist) -> bool:
    """Whether q's table equals p's entry for entry, so that any function of
    one reads the same floats off the other.  A cleaned table holds no NaN
    and no -0.0, so equal entries are equal bytes."""
    return p is q or (p.n == q.n and np.array_equal(p.mass, q.mass))


def xor_convolve_naive(p: Dist, q: Dist) -> Dist:
    """Test oracle: explicit double sum over all pairs, no fast transform."""
    if p.n != q.n:
        raise DimensionMismatchError("ambient dimensions differ")
    size = 1 << p.n
    idx = np.arange(size)
    pairs = idx[:, None] ^ idx[None, :]
    out = np.zeros(size)
    np.add.at(out, pairs.ravel(), np.outer(p.mass, q.mass).ravel())
    return Dist(p.n, out)


def pushforward_quotient(p: Dist, v: Subspace) -> Dist:
    """Distribution of pi_V(X), supported on canonical coset representatives."""
    if p.n != v.n:
        raise DimensionMismatchError("ambient dimensions differ")
    return Dist(p.n, np.bincount(v.rep_table(), weights=p.mass, minlength=1 << p.n))


def condition_on_sum(p: Dist, q: Dist, u: int) -> Dist:
    """Distribution of (X | X+Y = u) for independent X ~ p, Y ~ q."""
    if p.n != q.n:
        raise DimensionMismatchError("ambient dimensions differ")
    if not 0 <= u < (1 << p.n):
        raise DimensionMismatchError(f"element {u:#x} out of range for F_2^{p.n}")
    idx = np.arange(1 << p.n)
    joint = p.mass * q.mass[idx ^ u]
    total = joint.sum()
    if total <= MASS_EPS:
        raise ConditioningError(f"event X+Y = {u:#x} has probability zero")
    return Dist(p.n, joint / total)


def product(*dists: Dist) -> JointDist:
    """Product measure of up to four independent distributions."""
    if not 2 <= len(dists) <= 4:
        raise CapacityError("product requires 2..4 factors")
    table = dists[0].mass
    for d in dists[1:]:
        table = np.multiply.outer(table, d.mass)
    return JointDist(tuple(d.n for d in dists), table)


def map_joint(j: JointDist, outputs: Sequence[Sequence[int]]) -> Dist | JointDist:
    """Pushforward under a linear map given, per output block, the input
    blocks to XOR together.  All XORed blocks must share a dimension."""
    outputs = [tuple(spec) for spec in outputs]
    if not 1 <= len(outputs) <= 4:
        raise ValidationError("map must produce 1..4 output blocks")
    out_dims = []
    for spec in outputs:
        if not spec or any(b < 0 or b >= j.k for b in spec) or len(set(spec)) != len(spec):
            raise ValidationError(f"malformed output block {spec}")
        dims = {j.dims[b] for b in spec}
        if len(dims) > 1:
            raise DimensionMismatchError(f"blocks {spec} have mixed dimensions")
        out_dims.append(dims.pop())
    out_shape = tuple(1 << d for d in out_dims)
    grids = np.ix_(*[np.arange(1 << d) for d in j.dims])
    flat = np.zeros(j.mass.shape, dtype=np.int64)
    stride = 1
    for size, spec in zip(reversed(out_shape), reversed(outputs)):
        coord = np.zeros(j.mass.shape, dtype=np.int64)
        for b in spec:
            coord = coord ^ grids[b]
        flat += coord * stride
        stride *= size
    out = np.zeros(int(np.prod(out_shape)))
    np.add.at(out, flat.ravel(), j.mass.ravel())
    out = out.reshape(out_shape)
    if len(out_dims) == 1:
        return Dist(out_dims[0], out)
    return JointDist(tuple(out_dims), out)


@dataclass(frozen=True, eq=False)
class FiberFamily:
    """Fibers X_u = (X | U = u) over the occupied labels u, as one array:
    labels[i] = u, weights[i] = Pr[U = u], and row i of the read-only
    k x 2^n table masses is X_u, cleaned once by its producer."""

    labels: np.ndarray
    weights: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        masses = np.asarray(self.masses, dtype=np.float64).view()
        masses.setflags(write=False)
        k, width = masses.shape if masses.ndim == 2 else (-1, 0)
        if width < 2 or width & (width - 1) or not len(self.labels) == len(self.weights) == k:
            sizes = (len(self.labels), len(self.weights), masses.shape)
            raise DimensionMismatchError(f"labels, weights, masses {sizes} are not k, k, (k, 2^n)")
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=np.float64))
        object.__setattr__(self, "masses", masses)

    @property
    def n(self) -> int:
        return self.masses.shape[1].bit_length() - 1

    def mixture(self) -> Dist:
        """sum_u Pr[u] X_u, adding the weighted rows in order."""
        return Dist(self.n, (self.weights[:, None] * self.masses).sum(axis=0))


def sum_fibers(p: Dist, q: Dist) -> FiberFamily:
    """Fibers of X given X+Y = u over supp(X+Y), weighted by Pr[X+Y=u], by one
    gather: row u is p[x] q[x ^ u] over its sum, condition_on_sum(p, q, u)'s table."""
    return _sum_fibers(p, q, xor_convolve(p, q))


def _sum_fibers(p: Dist, q: Dist, conv: Dist) -> FiberFamily:
    """sum_fibers(p, q) given conv = xor_convolve(p, q), or xor_convolve(q, p),
    whose floats are the same: the two spectra multiply elementwise."""
    labels = conv.support
    joint = p.mass * q.mass[labels[:, None] ^ np.arange(1 << p.n)]
    joint /= joint.sum(axis=1, keepdims=True)
    return FiberFamily(labels, conv.mass[labels], _clean(joint, axis=1))


def quotient_fibers(p: Dist, v: Subspace) -> FiberFamily:
    """Fibers of X given pi_V(X) = t over the occupied cosets, one masked row each."""
    if p.n != v.n:
        raise DimensionMismatchError("ambient dimensions differ")
    reps = v.rep_table()
    pushed = np.bincount(reps, weights=p.mass, minlength=1 << p.n)
    labels = np.flatnonzero(pushed > 0.0)
    sel = np.where(reps == labels[:, None], p.mass, 0.0)
    return FiberFamily(labels, pushed[labels], _clean(sel / pushed[labels, None], axis=1))
