"""Shannon entropy calculus over F_2^n, in bits.

Conditional functionals are computed from exact joint tables, never by
sampling, so identities hold to IDENTITY_TOL rather than statistically.
The fibring decomposition splits the doubling mass s[X;Y] into a quotient
term, a fiber term, and a residual conditional mutual information.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .dist import Dist, FiberFamily, JointDist, _clean, pushforward_quotient, wht, xor_convolve
from .errors import DimensionMismatchError
from .gf2 import Subspace
from .tolerances import MASS_EPS

# Entries (float64) per batch of the batched kernels below, far under
# 2^MAX_JOINT_BITS: larger batches ran no faster and raised the peak memory.
# A single pair whose table is larger (at most 2^(2n) entries) runs alone.
_BATCH_ENTRIES = 1 << 16


def _entropy(table: np.ndarray) -> float:
    p = np.asarray(table, dtype=np.float64).ravel()
    p = p[p > MASS_EPS]
    if p.size == 0:
        return 0.0
    return float(-np.dot(p, np.log2(p)) + 0.0)


def shannon_entropy(p: Dist) -> float:
    """H[X] = -sum p log2 p, with 0 log 0 = 0."""
    return _entropy(p.mass)


def joint_entropy(j: JointDist, blocks: int | Sequence[int] | None = None) -> float:
    if blocks is None:
        return _entropy(j.mass)
    marg = j.marginal(blocks)
    return _entropy(marg.mass)


def _as_blocks(spec: int | Sequence[int]) -> tuple[int, ...]:
    return (spec,) if isinstance(spec, int) else tuple(spec)


def conditional_entropy(
    j: JointDist, target: int | Sequence[int], given: int | Sequence[int] | None = None
) -> float:
    """H[target | given] = H[target, given] - H[given]."""
    t = _as_blocks(target)
    g = _as_blocks(given) if given is not None else ()
    if set(t) & set(g):
        raise ValueError("target and conditioning blocks overlap")
    if not g:
        return joint_entropy(j, t)
    return joint_entropy(j, t + g) - joint_entropy(j, g)


def mutual_information(j: JointDist, a: int | Sequence[int], b: int | Sequence[int]) -> float:
    """I[A : B] = H[A] + H[B] - H[A, B]."""
    ba, bb = _as_blocks(a), _as_blocks(b)
    if set(ba) & set(bb):
        raise ValueError("blocks overlap")
    return joint_entropy(j, ba) + joint_entropy(j, bb) - joint_entropy(j, ba + bb)


def conditional_mutual_information(
    j: JointDist, a: int | Sequence[int], b: int | Sequence[int], s: int | Sequence[int]
) -> float:
    """I[A : B | S] = H[A,S] + H[B,S] - H[A,B,S] - H[S] >= 0."""
    ba, bb, bs = _as_blocks(a), _as_blocks(b), _as_blocks(s)
    if (set(ba) & set(bb)) or (set(ba) & set(bs)) or (set(bb) & set(bs)):
        raise ValueError("blocks overlap")
    return (
        joint_entropy(j, ba + bs)
        + joint_entropy(j, bb + bs)
        - joint_entropy(j, ba + bb + bs)
        - joint_entropy(j, bs)
    )


def doubling_mass(p: Dist, q: Dist) -> float:
    """s[X;Y] = H[X] + H[Y] - H[X+Y] for independent X, Y."""
    return shannon_entropy(p) + shannon_entropy(q) - shannon_entropy(xor_convolve(p, q))


def ruzsa_distance(p: Dist, q: Dist) -> float:
    """d[X;Y] = H[X'+Y'] - H[X]/2 - H[Y]/2 for independent copies."""
    return (
        shannon_entropy(xor_convolve(p, q))
        - 0.5 * shannon_entropy(p)
        - 0.5 * shannon_entropy(q)
    )


class PairEntropies(NamedTuple):
    """H[X_u], H[Y_w] and H[X_u + Y_w] over two fiber families: arrays of
    shape (kx,), (ky,) and (kx, ky), for independent X_u and Y_w."""

    h_x: np.ndarray
    h_y: np.ndarray
    h_sum: np.ndarray


def pair_entropies(fibers_x: FiberFamily, fibers_y: FiberFamily) -> PairEntropies:
    """Every fiber's entropy and every pair sum's, in one batched pass.

    Each distinct fiber is transformed once; the pair spectra are inverted in
    batches of whole X_u rows, at most _BATCH_ENTRIES entries each, and every
    X_u + Y_w table is cleaned as a Dist would be.
    """
    xs, ys = fibers_x.dists, fibers_y.dists
    distinct = {d: i for i, d in enumerate(dict.fromkeys((*xs, *ys)))}
    spec = wht(np.stack([d.mass for d in distinct]))
    spec_x = spec[[distinct[d] for d in xs]]
    spec_y = spec[[distinct[d] for d in ys]]
    size = spec.shape[1]
    step = max(1, _BATCH_ENTRIES // (len(ys) * size))
    h_sum = np.empty((len(xs), len(ys)))
    for lo in range(0, len(xs), step):
        raw = wht(spec_x[lo : lo + step, None, :] * spec_y[None, :, :])
        raw /= size
        sums = _clean(np.maximum(raw, 0.0, out=raw), axis=-1)
        h_sum[lo : lo + step] = [[_entropy(row) for row in rows] for rows in sums]
    h_x = np.array([shannon_entropy(d) for d in xs])
    h_y = np.array([shannon_entropy(d) for d in ys])
    return PairEntropies(h_x, h_y, h_sum)


def conditional_doubling_mass(
    fibers_x: FiberFamily, fibers_y: FiberFamily, entropies: PairEntropies | None = None
) -> float:
    """E_{u,w} s[X_u ; Y_w] over independent fiber labels, reduced from
    `entropies`, the families' pair_entropies (computed here when None)."""
    if len(fibers_x.weights) != len(fibers_x.dists) or len(fibers_y.weights) != len(
        fibers_y.dists
    ):
        raise ValueError("weights and fibers must align")
    if entropies is None:
        entropies = pair_entropies(fibers_x, fibers_y)
    hx, hy = entropies.h_x.tolist(), entropies.h_y.tolist()
    total = 0.0
    for wu, hu, row in zip(fibers_x.weights, hx, entropies.h_sum.tolist()):
        for ww, hw, hs in zip(fibers_y.weights, hy, row):
            total += wu * ww * (hu + hw - hs)
    return float(total)


def quotient_entropy(p: Dist, v: Subspace) -> float:
    """H[pi_V(X)], via the pushforward table."""
    return shannon_entropy(pushforward_quotient(p, v))


@dataclass(frozen=True)
class FibringReport:
    """The four terms of the fibring identity, in bits.

    s_total = s_quotient + s_fiber - residual_mi up to float error;
    identity_gap records the achieved discrepancy.
    """

    s_total: float
    s_quotient: float
    s_fiber: float
    residual_mi: float

    @property
    def identity_gap(self) -> float:
        return self.s_total - (self.s_quotient + self.s_fiber - self.residual_mi)

    def to_json(self) -> dict:
        payload = asdict(self)
        payload["identity_gap"] = self.identity_gap
        return payload


def _coset_sum_tables(
    x_mass: np.ndarray, reps: np.ndarray, y_spec: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked joint tables of K pairs: rows Pr[X_k+Y_k = z, pi_{V_k}(X_k) = t],
    one per coset t of V_k in increasing representative order, pair after pair.

    x_mass, reps and y_spec are (K, 2^n): the masses of X_k, the rep tables of
    V_k and the transforms of Y_k.  Also returns each pair's first row.
    """
    pairs, size = x_mass.shape
    is_rep = reps == np.arange(size)
    counts = is_rep.sum(axis=1)
    starts = np.zeros(pairs, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    row = np.take_along_axis(np.cumsum(is_rep, axis=1) - 1, reps, axis=1) + starts[:, None]
    masked = np.zeros((int(counts.sum()), size))
    masked[row, np.arange(size)] = x_mass
    spec = wht(masked)
    del masked
    spec *= np.repeat(y_spec, counts, axis=0)
    zt = wht(spec)
    del spec
    zt /= size
    np.maximum(zt, 0.0, out=zt)
    zt[zt < MASS_EPS] = 0.0
    return zt, starts


def fiber_interactions(triples: Sequence[tuple[Dist, Dist, Subspace]]) -> np.ndarray:
    """s[X|pi_V(X); Y|pi_V(Y)] = H[X] + H[Y] - H[X+Y, pi_V(X)] for each (X, Y, V).

    The fibring_decompose term for many pairs at once: each distinct X and Y
    gets its entropy, and each Y its transform, once; the coset tables run in
    batches of at most _BATCH_ENTRIES entries (one pair may exceed it alone).
    """
    entropy: dict[Dist, float] = {}
    spectrum: dict[Dist, np.ndarray] = {}
    for x, y, v in triples:
        if x.n != y.n or x.n != v.n:
            raise DimensionMismatchError("ambient dimensions differ")
        for d in (x, y):
            if d not in entropy:
                entropy[d] = shannon_entropy(d)
        if y not in spectrum:
            spectrum[y] = wht(y.mass)
    out = np.empty(len(triples))
    lo = 0
    while lo < len(triples):
        hi, entries = lo, 0
        while hi < len(triples):
            x, _, v = triples[hi]
            cost = (1 << (x.n - v.dim)) << x.n
            if hi > lo and entries + cost > _BATCH_ENTRIES:
                break
            entries += cost
            hi += 1
        batch = triples[lo:hi]
        zt, starts = _coset_sum_tables(
            np.stack([x.mass for x, _, _ in batch]),
            np.stack([v.rep_table() for _, _, v in batch]),
            np.stack([spectrum[y] for _, y, _ in batch]),
        )
        ends = np.append(starts[1:], len(zt))
        for k, (x, y, _) in enumerate(batch):
            out[lo + k] = entropy[x] + entropy[y] - _entropy(zt[starts[k] : ends[k]])
        lo = hi
    return out


def fibring_decompose(p: Dist, q: Dist, v: Subspace) -> FibringReport:
    """Exact decomposition of s[X;Y] relative to the subspace V.

    Terms: s[X;Y], s[pi(X); pi(Y)], s[X|pi(X); Y|pi(Y)], and the residual
    I[X+Y : (pi(X), pi(Y)) | pi(X+Y)].
    """
    if p.n != q.n or p.n != v.n:
        raise DimensionMismatchError("ambient dimensions differ")
    hp, hq = shannon_entropy(p), shannon_entropy(q)
    s_total = hp + hq - shannon_entropy(xor_convolve(p, q))
    pp, qp = pushforward_quotient(p, v), pushforward_quotient(q, v)
    s_quotient = (
        shannon_entropy(pp) + shannon_entropy(qp) - shannon_entropy(xor_convolve(pp, qp))
    )
    # H[X+Y | pi(X), pi(Y)] comes from the (X+Y, pi(X)) table: pi(Y) is then
    # determined, so s_fiber = H[X] + H[Y] - H[X+Y, pi(X)].
    reps = v.rep_table()
    zt = _coset_sum_tables(p.mass[None, :], reps[None, :], wht(q.mass)[None, :])[0]
    s_fiber = hp + hq - _entropy(zt)
    # Residual: expectation over c ~ pi(X+Y) of I[X+Y : pi(X) | pi(X+Y) = c];
    # conditioned on pi(X+Y), the pair (pi(X), pi(Y)) carries the same
    # information as pi(X) alone.
    residual = 0.0
    for c in np.unique(reps):
        sub = zt[:, reps == c]
        w = sub.sum()
        if w <= MASS_EPS:
            continue
        sub = sub / w
        residual += w * (
            _entropy(sub.sum(axis=1)) + _entropy(sub.sum(axis=0)) - _entropy(sub)
        )
    return FibringReport(
        s_total=float(s_total),
        s_quotient=float(s_quotient),
        s_fiber=float(s_fiber),
        residual_mi=float(residual),
    )
