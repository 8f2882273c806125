"""Shannon entropy calculus over F_2^n, in bits.

Conditional functionals are computed from exact joint tables, never by
sampling, so identities hold to IDENTITY_TOL rather than statistically.
The fibring decomposition splits the doubling mass s[X;Y] into a quotient
term, a fiber term, and a residual conditional mutual information.  The
fiber and residual terms come from one coset-pair kernel: in coordinates
E[a, u] = reps[a] ^ V[u], the (pi(X), X+Y) table is the XOR convolution
over V of the fibers a of X and a ^ c of Y, streamed in bounded blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .dist import Dist, FiberFamily, JointDist, _clean, pushforward_quotient, wht, xor_convolve
from .errors import DimensionMismatchError, ValidationError
from .gf2 import Subspace, pivot_of, span
from .records import Record, plain
from .tolerances import MASS_EPS

# Entries (float64) per batch of the batched kernels below, far under
# 2^MAX_JOINT_BITS: larger batches ran no faster and raised the peak memory.
# A batch holds whole rows, and a single row that is larger runs alone.
_BATCH_ENTRIES = 1 << 16


def _entropy(table: np.ndarray) -> float:
    """H = -sum t log2 t over a whole table of any shape, counting only the
    entries above MASS_EPS (0 log 0 = 0): the one definition of H.  The
    terms are added one by one in index order (np.add.accumulate), so
    _entropies reads the same float off any batch of rows."""
    p = np.asarray(table, dtype=np.float64).ravel()
    p = p[p > MASS_EPS]
    if p.size == 0:
        return 0.0
    return float(-np.add.accumulate(p * np.log2(p))[-1] + 0.0)


def _entropies(rows: np.ndarray) -> np.ndarray:
    """_entropy of each row of a table, along its last axis, in one pass.
    _plogp's terms are added one by one along each row, and the zeros it
    puts at the masked entries leave every partial sum as it was, so each
    row's H is the same float as _entropy's."""
    terms = _plogp(np.asarray(rows, dtype=np.float64))
    return -np.add.accumulate(terms, axis=-1, out=terms)[..., -1] + 0.0


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
        raise ValidationError("target and conditioning blocks overlap")
    if not g:
        return joint_entropy(j, t)
    return joint_entropy(j, t + g) - joint_entropy(j, g)


def mutual_information(j: JointDist, a: int | Sequence[int], b: int | Sequence[int]) -> float:
    """I[A : B] = H[A] + H[B] - H[A, B]."""
    ba, bb = _as_blocks(a), _as_blocks(b)
    if set(ba) & set(bb):
        raise ValidationError("blocks overlap")
    return joint_entropy(j, ba) + joint_entropy(j, bb) - joint_entropy(j, ba + bb)


def conditional_mutual_information(
    j: JointDist, a: int | Sequence[int], b: int | Sequence[int], s: int | Sequence[int]
) -> float:
    """I[A : B | S] = H[A,S] + H[B,S] - H[A,B,S] - H[S] >= 0."""
    ba, bb, bs = _as_blocks(a), _as_blocks(b), _as_blocks(s)
    if (set(ba) & set(bb)) or (set(ba) & set(bs)) or (set(bb) & set(bs)):
        raise ValidationError("blocks overlap")
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

    Each family's masses table is transformed in one call; the pair spectra
    are inverted in batches of whole X_u rows, at most _BATCH_ENTRIES entries
    each.  Every X_u + Y_w table is cleaned as a Dist would be, and a batch's
    H[X_u + Y_w] are one _entropies call over its last axis, as are each
    family's H[X_u] and H[Y_w]: each the float shannon_entropy gives its row.

    When fibers_y is fibers_x (X = Y), the table is symmetric: only the pairs
    u <= w are inverted, in batches of at most _BATCH_ENTRIES entries, and
    mirrored, and h_y is h_x.  A pair's spectrum product is the same float
    either way round, and each pair's row is transformed and reduced on its
    own, so the result equals that of an equal copy of the family: up to
    rounding in general, and bit for bit where wht's BLAS matmul gives a row
    the same floats in any batch of two or more rows, as the OpenBLAS of
    numpy's wheels does.
    """
    xs, ys = fibers_x.masses, fibers_y.masses
    symmetric = fibers_y is fibers_x
    spec_x = wht(xs)
    spec_y = spec_x if symmetric else wht(ys)
    size = spec_x.shape[1]
    h_sum = np.empty((len(xs), len(ys)))
    if symmetric:
        u, w = np.triu_indices(len(xs))
        step = max(1, _BATCH_ENTRIES // size)
        for lo in range(0, len(u), step):
            pairs = slice(lo, lo + step)
            h_sum[u[pairs], w[pairs]] = _sum_entropies(spec_x[u[pairs]] * spec_x[w[pairs]])
        h_sum.T[u, w] = h_sum[u, w]
    else:
        step = max(1, _BATCH_ENTRIES // (len(ys) * size))
        for lo in range(0, len(xs), step):
            h_sum[lo : lo + step] = _sum_entropies(spec_x[lo : lo + step, None, :] * spec_y)
    h_x = _entropies(xs)
    return PairEntropies(h_x, h_x if symmetric else _entropies(ys), h_sum)


def _sum_entropies(spectra: np.ndarray) -> np.ndarray:
    """H of each sum law whose spectrum is a row of `spectra` (its last axis),
    inverted and cleaned as a Dist would be."""
    raw = wht(spectra)
    raw /= raw.shape[-1]
    return _entropies(_clean(np.maximum(raw, 0.0, out=raw), axis=-1))


def conditional_doubling_mass(
    fibers_x: FiberFamily, fibers_y: FiberFamily, entropies: PairEntropies | None = None
) -> float:
    """E_{u,w} s[X_u ; Y_w] over independent fiber labels, reduced from
    `entropies`, the families' pair_entropies (computed here when None), as
    w_x @ (H[X_u] + H[Y_w] - H[X_u + Y_w]) @ w_y."""
    if entropies is None:
        entropies = pair_entropies(fibers_x, fibers_y)
    s = entropies.h_x[:, None] + entropies.h_y[None, :] - entropies.h_sum
    return float(fibers_x.weights @ s @ fibers_y.weights)


def quotient_entropy(p: Dist, v: Subspace) -> float:
    """H[pi_V(X)], via the pushforward table."""
    return shannon_entropy(pushforward_quotient(p, v))


@dataclass(frozen=True)
class FibringReport(Record):
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
        return {**super().to_json(), "identity_gap": plain(self.identity_gap)}


def _fiber_index(v: Subspace) -> np.ndarray:
    """E[a, u] = reps[a] ^ V[u]: F_2^n laid out by the cosets of V.

    reps are V's canonical coset representatives in increasing order and V[u]
    XORs the basis rows picked by the bits of u.  Both labelings are linear
    (a representative is an x with V's pivot bits cleared), so
    E[a, u] ^ E[b, w] = E[a ^ b, u ^ w].
    """
    reps = v.rep_table()
    members = np.zeros(1, dtype=np.int64)
    for r in v.basis:
        members = np.concatenate([members, members ^ r])
    return np.flatnonzero(reps == np.arange(reps.size))[:, None] ^ members[None, :]


def hyperplane_entropies(masses: np.ndarray, v: Subspace) -> np.ndarray:
    """H[pi_W(X)] for each row X of the k x 2^n table masses and each
    hyperplane W of V (dim V = d >= 1), as a k x (2^d - 1) array.

    Column f - 1 holds W = ker f for the functional f = 1 .. 2^d - 1 on V's
    basis coordinates: f(V[u]) = popcount(f & u) mod 2, with V[u] the XOR of
    the basis rows picked by the bits of u.  In the layout
    M[c, u] = X[E[c, u]] (_fiber_index), the two cosets of W inside coset c
    of V carry (M^[c, 0] +- M^[c, f]) / 2, where M^ is M transformed along
    u.  So one wht and one masked t log2 t reduction (_plogp) give every
    hyperplane, for any d and n <= MAX_DENSE_N, with no lattice.
    """
    spec = wht(np.asarray(masses, dtype=np.float64)[:, _fiber_index(v)])
    spec *= 0.5
    whole, half = spec[..., :1], spec[..., 1:]
    return -(_plogp(whole + half) + _plogp(whole - half)).sum(axis=1) + 0.0


def _hyperplane(v: Subspace, f: int) -> Subspace:
    """The hyperplane ker f of V for a functional f on V's basis coordinates,
    as hyperplane_entropies numbers them: the basis rows f leaves out, and the
    others it picks each XORed with the lowest one it picks."""
    low = pivot_of(f)
    pick = v.basis[low]
    rows = [r ^ pick if (f >> i) & 1 else r for i, r in enumerate(v.basis) if i != low]
    return span(rows, v.n)


def _plogp(t: np.ndarray) -> np.ndarray:
    """t log2 t elementwise, and 0 where t <= MASS_EPS, as _entropy masks."""
    out = np.zeros_like(t)
    np.log2(t, out=out, where=t > MASS_EPS)
    out *= t
    return out


def _plogp_hits(t: np.ndarray) -> np.ndarray:
    """_plogp's values, with the log taken only on the entries above MASS_EPS.

    _plogp's masked log2 serves dense tables, where the mask has few runs;
    this gather serves sparse, scattered hits, as a small support leaves
    in a lattice scan's coset bins.
    """
    out = np.zeros_like(t)
    hits = np.flatnonzero(t > MASS_EPS)
    vals = t[hits]
    out[hits] = np.log2(vals) * vals
    return out


def _plogp_sums(table: np.ndarray) -> np.ndarray:
    """sum t log2 t over each leading-axis slice, by _plogp."""
    return _plogp(table).reshape(len(table), -1).sum(axis=1)


def _coset_pair_sums(x_spec: np.ndarray, y_spec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sum A log A and I[X+Y : pi(X) | pi(X+Y)] for K pairs sharing n and dim V.

    x_spec and y_spec are (K, 2^(n-d), 2^d): the transforms, along V, of the
    fibers X[E[a, :]] and Y[E[a, :]].  The table
    A[k, a, c, u] = Pr[pi(X) = a, pi(X+Y) = c, X+Y = E[c, u]]
    is the XOR convolution over V of fiber a of X with fiber a ^ c of Y.  It
    is built and reduced in blocks of a-rows of at most _BATCH_ENTRIES
    entries (one a-row may exceed it alone), keeping per pair the row sums
    r[a, c] as sum r log r and the column sums col[c, u].  The residual is
    -sum col log col - sum r log r + sum A log A + sum w log w, where w is
    the law of pi(X+Y).  A pair's results are the same for every K up to
    rounding: the batched transforms are BLAS matmuls.
    """
    pairs, cosets, size = x_spec.shape
    rows = min(cosets, max(1, _BATCH_ENTRIES // (cosets * size)))
    plogp = np.zeros(pairs)
    row_plogp = np.zeros(pairs)
    col = np.zeros((pairs, cosets, size))
    labels = np.arange(cosets)
    for lo in range(0, cosets, rows):
        a = labels[lo : lo + rows]
        block = wht(x_spec[:, lo : lo + rows, None] * np.take(y_spec, a[:, None] ^ labels, axis=1))
        block /= size
        np.maximum(block, 0.0, out=block)
        block[block < MASS_EPS] = 0.0
        a_log_a = _plogp_sums(block)
        plogp += a_log_a
        # With dim V = 0 each row sum is the row's one entry.
        row_plogp += a_log_a if size == 1 else _plogp_sums(block.sum(axis=-1))
        col += block.sum(axis=1)
    # H[X+Y | pi(X+Y)] - H[X+Y | pi(X), pi(X+Y)], each from the table.
    residual = (_plogp_sums(col.sum(axis=-1)) - _plogp_sums(col)) - (row_plogp - plogp)
    return plogp, residual


def _fiber_terms(
    triples: Sequence[tuple[np.ndarray, np.ndarray, Subspace]]
) -> tuple[np.ndarray, np.ndarray]:
    """s[X|pi_V(X); Y|pi_V(Y)] and I[X+Y : (pi(X), pi(Y)) | pi(X+Y)] for each (X, Y, V).

    X and Y are length-2^n mass rows, grouped by (n, dim V); each distinct row
    gets its entropy and each distinct V its fiber index once.  Whole pairs
    share a kernel call while their tables fit in _BATCH_ENTRIES together; a
    larger pair runs alone.  A triple's results are the same as alone up to rounding.
    """
    entropy: dict[bytes, float] = {}
    index: dict[Subspace, np.ndarray] = {}
    groups: dict[tuple[int, int], list[int]] = {}
    h_xy = np.zeros(len(triples))
    for i, (x, y, v) in enumerate(triples):
        if x.shape != (1 << v.n,) or y.shape != (1 << v.n,):
            raise DimensionMismatchError("ambient dimensions differ")
        for row in (x, y):
            key = row.tobytes()
            if key not in entropy:
                entropy[key] = _entropy(row)
            h_xy[i] += entropy[key]
        if v not in index:
            index[v] = _fiber_index(v)
        groups.setdefault((v.n, v.dim), []).append(i)
    s_fiber = np.empty(len(triples))
    residual = np.empty(len(triples))
    for (n, dim), group in groups.items():
        step = max(1, _BATCH_ENTRIES >> (2 * n - dim))
        for lo in range(0, len(group), step):
            chunk = group[lo : lo + step]
            rows = [triples[i] for i in chunk]
            plogp, residual[chunk] = _coset_pair_sums(
                wht(np.stack([x[index[v]] for x, _, v in rows])),
                wht(np.stack([y[index[v]] for _, y, v in rows])),
            )
            s_fiber[chunk] = h_xy[chunk] + plogp
    return s_fiber, residual


def fiber_interactions(triples: Sequence[tuple[np.ndarray, np.ndarray, Subspace]]) -> np.ndarray:
    """s[X|pi_V(X); Y|pi_V(Y)] = H[X] + H[Y] - H[X+Y, pi_V(X)] for each triple
    (x_row, y_row, V) of mass rows: the fibring_decompose term for many pairs
    at once, by the same kernel."""
    return _fiber_terms(triples)[0]


def fibring_decompose(p: Dist, q: Dist, v: Subspace) -> FibringReport:
    """Exact decomposition of s[X;Y] relative to the subspace V.

    Terms: s[X;Y], s[pi(X); pi(Y)], s[X|pi(X); Y|pi(Y)], and the residual
    I[X+Y : (pi(X), pi(Y)) | pi(X+Y)].  s[X;Y] and s[pi(X); pi(Y)] come from
    convolutions; the fiber term and the residual come from the coset-pair
    kernel's (pi(X), pi(X+Y), X+Y) table, streamed in blocks of at most
    _BATCH_ENTRIES entries (one a-row of 2^n entries at least), so neither
    is derived from the identity and identity_gap checks the kernel.
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
    # determined, so s_fiber = H[X] + H[Y] - H[X+Y, pi(X)].  Conditioned on
    # pi(X+Y), the pair (pi(X), pi(Y)) carries the same information as pi(X),
    # so the residual is read from the same table's marginals.
    (s_fiber,), (residual,) = _fiber_terms([(p.mass, q.mass, v)])
    return FibringReport(
        s_total=float(s_total),
        s_quotient=float(s_quotient),
        s_fiber=float(s_fiber),
        residual_mi=float(residual),
    )
