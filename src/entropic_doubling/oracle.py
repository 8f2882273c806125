"""Concrete subspace finders standing in for the entropic-PFR black box.

The cited structure theorem is realized as a search contract: exhaustive scans
over the full subspace lattice (n <= 6) serve as ground truth, and a greedy
ascent covers larger n with honest failure when the bounds cannot be met.
Every returned certificate re-verifies from (inputs, V) alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dist import Dist, pushforward_quotient, xor_convolve
from .entropy import _entropy, _plogp, _plogp_hits, ruzsa_distance, shannon_entropy
from .errors import (
    CapacityError,
    DimensionMismatchError,
    PipelineError,
    SearchFailureError,
    ValidationError,
)
from .gf2 import Subspace, all_subspaces, span
from .records import Record
from .tolerances import IDENTITY_TOL, MAX_ENUM_N

CRITERION_PFR = "PFR_COR22"
CRITERION_B = "STATEMENT_B"
CRITERION_T11 = "THEOREM_11"

OBJECTIVE_PROJECTED_ENTROPY = "projected_entropy"
OBJECTIVE_STATEMENT_B = "statement_b"
OBJECTIVE_PFR = "pfr"

# The PFR size budget dim V <= 7 (H[X] + H[Y]), also the endgame's per-pair budget.
PFR_SIZE_FACTOR = 7.0


@dataclass(frozen=True)
class SubspaceCertificate(Record):
    """A subspace plus the numerically verified inequalities it satisfies."""

    criterion: str
    search_mode: str
    subspace: Subspace
    parameters: dict
    achieved: dict


@dataclass(frozen=True)
class CriterionCheck:
    """A certificate criterion evaluated for one V: the recomputed quantities
    (named as in the certificate's ``achieved`` block) and each inequality's
    verdict, by name."""

    values: dict
    verdicts: dict

    @property
    def passes(self) -> bool:
        return all(self.verdicts.values())

    def require(self, what: str) -> None:
        """Raise PipelineError naming each failed inequality."""
        failed = [name for name, ok in self.verdicts.items() if not ok]
        if failed:
            raise PipelineError(
                f"{what} verification failed ({', '.join(failed)}): {self.values}"
            )


def certificate(
    criterion: str, search_mode: str, v: Subspace, parameters: dict, chk: CriterionCheck
) -> SubspaceCertificate:
    """The certificate for V built from its criterion's check: achieved is
    dim V and every value the check recomputed, which verify_bundle compares."""
    return SubspaceCertificate(
        criterion=criterion,
        search_mode=search_mode,
        subspace=v,
        parameters=parameters,
        achieved={"dim": v.dim, **chk.values},
    )


# The inequalities below take entropies as floats or as numpy arrays over many
# subspaces, so the exhaustive scans and the single-V checks share them.


def b_inequality(h_sum, h_x, h_y, h_total, dim, eta, eps, big_l=None):
    """Statement B: H[pi X + pi Y] >= (1 - eta)(H[pi X] + H[pi Y]) - eps (H[X] + H[Y]),
    and dim V <= L (H[X] + H[Y]) when L is given.

    Returns (rhs, size_bound, ok); size_bound is None without L.
    """
    rhs = (1.0 - eta) * (h_x + h_y) - eps * h_total
    ok = h_sum >= rhs - IDENTITY_TOL
    size_bound = None if big_l is None else big_l * h_total
    if size_bound is not None:
        ok = ok & (dim <= size_bound + IDENTITY_TOL)
    return rhs, size_bound, ok


def _require_epsilon(epsilon: float, top: float = 1.0) -> None:
    """A criterion's epsilon range (0, top]; NaN and inf fall outside it.  Its
    check enforces the range first thing, for producer and verifier alike."""
    if not 0.0 < epsilon <= top:
        raise ValidationError(f"epsilon must lie in (0, {top:g}], got {epsilon}")


@dataclass(frozen=True)
class StatementParams:
    """Parameters (eta, epsilon, c, L) for the intermediate statements."""

    eta: float
    epsilon: float | None = None
    c: float | None = None
    L: float | None = None

    def __post_init__(self):
        if not 0.0 < self.eta <= 0.5:
            raise ValidationError(f"eta must lie in (0, 1/2], got {self.eta}")
        if self.epsilon is not None:
            _require_epsilon(self.epsilon)
        if self.c is not None and not 0.0 < self.c <= 1.0:
            raise ValidationError(f"c must lie in (0, 1], got {self.c}")
        if self.L is not None and not 0.0 <= self.L < math.inf:
            raise ValidationError(f"L must be finite and nonnegative, got {self.L}")


def _b_check(
    h_sum: float, hp: float, hq: float, h_total: float, dim: int, params: StatementParams
) -> CriterionCheck:
    """check_statement_B for a V of dimension dim, from H[pi X + pi Y],
    H[pi_V(X)], H[pi_V(Y)] and H[X] + H[Y]."""
    rhs, _, ok = b_inequality(h_sum, hp, hq, h_total, dim, params.eta, params.epsilon, params.L)
    return CriterionCheck(
        values={
            "lhs": float(h_sum),
            "rhs": float(rhs),
            "h_total": h_total,
            "h_proj_x": hp,
            "h_proj_y": hq,
        },
        verdicts={"statement B inequality": bool(ok)},
    )


def _b_certificate(
    search_mode: str, v: Subspace, params: StatementParams, chk: CriterionCheck
) -> SubspaceCertificate:
    """The statement-B certificate for V, with L_achieved the smallest L whose
    size bound V meets (none does for V != 0 when H[X] + H[Y] = 0)."""
    h_total = chk.values["h_total"]
    achieved_l = v.dim / h_total if h_total > 0 else (math.inf if v.dim else 0.0)
    parameters = {"eta": params.eta, "epsilon": params.epsilon, "L_achieved": achieved_l}
    return certificate(CRITERION_B, search_mode, v, parameters, chk)


def pfr_inequality(h_x, h_y, h_total, dim, d):
    """PFR: max(H[pi X], H[pi Y]) <= 12 d[X;Y] and dim V <= 7 (H[X] + H[Y]).

    Returns (pfr_bound, size_bound, ok).
    """
    pfr_bound = 12.0 * d
    size_bound = PFR_SIZE_FACTOR * h_total
    ok = (np.maximum(h_x, h_y) <= pfr_bound + IDENTITY_TOL) & (dim <= size_bound + IDENTITY_TOL)
    return pfr_bound, size_bound, ok


@lru_cache(maxsize=8)
def _scan_tables(n: int) -> tuple[tuple[Subspace, ...], np.ndarray, np.ndarray, np.ndarray]:
    """All subspaces of F_2^n with their cosets numbered as contiguous bins.

    Subspace i owns bins starts[i] .. starts[i] + 2^(n - dim) - 1, one per
    coset in increasing order of canonical representative.  bins is
    point-major: row bins[x] holds the bin of x's coset under every
    subspace, so a scan reads only its support's rows.  The last subspace,
    F_2^n, owns the one last bin.

    The representatives come from one pass over the zero-padded bases: for
    each of the n basis slots, x's column XORs in that slot's row when x
    holds the row's pivot bit (the lowest set bit; a zero row adds nothing).
    Rows never touch each other's pivot bits (RREF), so the slot order is
    irrelevant, as in Subspace.rep_table.
    """
    subs = all_subspaces(n)
    dims = np.array([v.dim for v in subs], dtype=np.float64)
    basis = np.zeros((n, len(subs)), dtype=np.int64)
    for i, v in enumerate(subs):
        basis[: v.dim, i] = v.basis
    reps = np.repeat(np.arange(1 << n, dtype=np.int64)[:, None], len(subs), axis=1)
    for row in basis:
        reps ^= np.where(reps & (row & -row), row, 0)
    is_rep = reps == np.arange(1 << n)[:, None]
    starts = np.zeros(len(subs), dtype=np.int64)
    np.cumsum(is_rep.sum(axis=0)[:-1], out=starts[1:])
    # Rank of each representative within its column, then offset by the column's start.
    rank = np.cumsum(is_rep, axis=0) - 1
    bins = np.take_along_axis(rank, reps, axis=0) + starts
    return subs, bins, starts, dims


def lattice_entropies(mass: np.ndarray) -> np.ndarray:
    """H[pi_V(X)] for X with the length-2^n mass table `mass` (n <= 6) and every
    subspace V of F_2^n, in all_subspaces order: the lattice scan.

    One bincount pushes each support point's mass onto its row of coset
    bins.  Each bin adds its points in increasing x, as a scan over every
    point does, and a point of zero mass would add nothing, so the floats
    are the same.  A full support hits every bin and takes _plogp's dense
    log; a smaller one takes the log on its hit list (_plogp_hits).

    The bins hold unrenormalized masses, so X on one coset of V would read
    up to about 2e-16 bits either side of 0 there.  Each V whose bins put
    the whole support in its first point's bin reads exactly 0.0.
    """
    _, bins, starts, _ = _scan_tables(mass.size.bit_length() - 1)
    ys = np.flatnonzero(mass)
    full = ys.size == len(bins)
    rows = bins if full else bins[ys]
    pushed = np.bincount(
        rows.ravel(), weights=np.repeat(mass[ys], len(starts)), minlength=starts[-1] + 1
    )
    plogp = _plogp(pushed) if full else _plogp_hits(pushed)
    one_coset = (rows == rows[0]).all(axis=0)
    return np.where(one_coset, 0.0, np.maximum(-np.add.reduceat(plogp, starts), 0.0) + 0.0)


def exhaustive_best_subspace(
    p: Dist,
    q: Dist,
    objective: str,
    *,
    entropy_budget: float | None = None,
    params: dict | None = None,
) -> SubspaceCertificate:
    """Scan all subspaces (n <= 6) and return the deterministic optimum.

    Objectives: minimize H[pi(X)]+H[pi(Y)] under the budget constraint, or
    minimize dim V subject to the statement-B inequality (params eta,
    epsilon and an optional L, checked by StatementParams before the scan)
    or the PFR bounds.  Ties break to the earliest subspace in (dim, lex)
    order.  The statement-B and PFR certificates are built from their
    criterion's check, as the pipeline's and the greedy search's are.
    """
    if p.n != q.n:
        raise DimensionMismatchError("ambient dimensions differ")
    if p.n > MAX_ENUM_N:
        raise CapacityError(f"exhaustive search capped at n <= {MAX_ENUM_N}")
    if objective not in (OBJECTIVE_PROJECTED_ENTROPY, OBJECTIVE_STATEMENT_B, OBJECTIVE_PFR):
        raise ValidationError(f"unknown objective {objective!r}")
    params = dict(params or {})
    if objective == OBJECTIVE_STATEMENT_B:
        for key in ("eta", "epsilon"):
            if key not in params:
                raise ValidationError(f"the {objective} objective needs params[{key!r}]")
        big_l = params.get("L")
        b_params = StatementParams(
            eta=float(params["eta"]),
            epsilon=float(params["epsilon"]),
            L=None if big_l is None else float(big_l),
        )
    subs, _, _, dims = _scan_tables(p.n)
    hp0, hq0 = shannon_entropy(p), shannon_entropy(q)
    hp = lattice_entropies(p.mass)
    hq = lattice_entropies(q.mass)
    feasible = np.ones(len(subs), dtype=bool)
    if entropy_budget is not None:
        feasible &= dims <= entropy_budget + IDENTITY_TOL

    if objective == OBJECTIVE_PROJECTED_ENTROPY:
        idx = int(_masked_argmin(hp + hq, feasible, objective))
        v = subs[idx]
        return SubspaceCertificate(
            criterion=objective,
            search_mode="exhaustive",
            subspace=v,
            parameters={"objective": objective, **params},
            achieved={
                "dim": v.dim,
                "h_x": hp0,
                "h_y": hq0,
                "h_proj_x": float(hp[idx]),
                "h_proj_y": float(hq[idx]),
            },
        )
    if objective == OBJECTIVE_PFR:
        d = ruzsa_distance(p, q)
        ok = pfr_inequality(hp, hq, hp0 + hq0, dims, d)[2]
        idx = _first_feasible(ok & feasible, objective)
        chk = _pfr_check((hp0, hq0), float(hp[idx]), float(hq[idx]), subs[idx].dim, d)
        return certificate(CRITERION_PFR, "exhaustive", subs[idx], {}, chk)
    # Only the statement-B objective reads X+Y and pays for its convolution and scan.
    hpq = lattice_entropies(xor_convolve(p, q).mass)
    ok = b_inequality(
        hpq, hp, hq, hp0 + hq0, dims, b_params.eta, b_params.epsilon, b_params.L
    )[2]
    idx = _first_feasible(ok & feasible, objective)
    v = subs[idx]
    chk = _b_check(float(hpq[idx]), float(hp[idx]), float(hq[idx]), hp0 + hq0, v.dim, b_params)
    return _b_certificate("exhaustive", v, b_params, chk)


def _masked_argmin(score: np.ndarray, feasible: np.ndarray, tag: str) -> np.ndarray:
    """Index of the smallest feasible score along the last axis, the first on ties."""
    if not feasible.any(axis=-1).all():
        raise SearchFailureError(f"no subspace satisfies the constraints for {tag}")
    return np.argmin(np.where(feasible, score, np.inf), axis=-1)


def _first_feasible(ok: np.ndarray, tag: str) -> int:
    hits = np.nonzero(ok)[0]
    if hits.size == 0:
        raise SearchFailureError(f"no subspace satisfies the constraints for {tag}")
    return int(hits[0])


# Pair entries per block of extension_entropies' merge-loss table: 2^15
# float64s (256 KiB) per working array keep a block in cache, and a block
# never holds more than max(2^15, 2^n) entries.
MERGE_BLOCK = 1 << 15


def extension_entropies(d: Dist, v: Subspace) -> tuple[np.ndarray, np.ndarray]:
    """(x, H[pi_{V+<x>}(X)]) for X ~ d over the nonzero coset representatives
    x of V, in increasing order.

    With a the raw pushforward of X onto V's representatives, the cosets of
    V + <x> are the pairs {y, rep(y ^ x)}, so
    H[pi_{V+<x>} X] = H[pi_V X] - sum of g(a_y, a_z) over the pairs y < z in
    a's support with rep(y ^ z) = x, where g(a, b) = f(a) + f(b) - f(a + b)
    and f(t) = -t log2 t (0 for t <= MASS_EPS).  One weighted bincount of
    the support's pairwise XORs, keyed by rep[y ^ z], gives every x's loss
    in O(s^2) for a support of s cosets.

    The pairs are laid out as support rows i0 .. i1 - 1 against columns
    i0 .. s - 1, at most MERGE_BLOCK entries (or one row) per block.  The
    rows' own square holds each of its pairs twice, so it is halved; its
    diagonal lands in bin rep[0] = 0, which no candidate reads.
    """
    rep = v.rep_table()
    pushed = np.bincount(rep, weights=d.mass, minlength=rep.size)
    ys = np.flatnonzero(pushed > 0)
    a = pushed[ys]
    plogp_a = _plogp(a)
    loss = np.zeros(rep.size)
    s, i0 = ys.size, 0
    while i0 < s:
        i1 = min(s, i0 + max(1, MERGE_BLOCK // (s - i0)))
        g = _plogp(a[i0:i1, None] + a[None, i0:])
        g -= plogp_a[i0:i1, None]
        g -= plogp_a[None, i0:]
        g[:, : i1 - i0] *= 0.5
        keys = rep[ys[i0:i1, None] ^ ys[None, i0:]]
        loss += np.bincount(keys.ravel(), weights=g.ravel(), minlength=rep.size)
        i0 = i1
    reps = np.flatnonzero(rep == np.arange(rep.size))[1:]
    return reps, _entropy(pushed) - loss[reps]


def greedy_extension(p: Dist, q: Dist, v: Subspace, combine: np.ufunc) -> Subspace | None:
    """V + <x> for the nonzero coset representative x of V minimizing
    combine(H[pi(X)], H[pi(Y)]) after the step.

    Every candidate is scored at once: extension_entropies gives
    H[pi_{V+<x>} X] as H[pi_V X] minus the entropy lost by merging each pair
    of cosets {y, rep(y ^ x)}, from one bincount of the support's pairwise
    XORs in blocks of at most MERGE_BLOCK entries (working memory
    O(2^n + MERGE_BLOCK)).  combine is an elementwise ufunc over the two
    score vectors: np.maximum for the PFR ascent, np.add for the FALLBACK
    step.  The pick is the smallest representative whose score is within
    1e-15 of the minimum.  Returns None when V is already the whole group.
    """
    reps, h_x = extension_entropies(p, v)
    if reps.size == 0:
        return None
    _, h_y = extension_entropies(q, v)
    score = combine(h_x, h_y)
    best = reps[np.argmax(score <= score.min() + 1e-15)]
    return span(v.basis + (int(best),), v.n)


def pfr_subspace(p: Dist, q: Dist) -> SubspaceCertificate:
    """Find V with dim V <= 7(H[X]+H[Y]) and max proj entropy <= 12 d[X;Y].

    Exhaustive for n <= 6 (minimal qualifying subspace).  Above, a greedy
    ascent: each step is greedy_extension with np.maximum, which adds the
    coset representative that most reduces the larger projected entropy,
    scoring all of them in one merge-loss pass per input.  Each V it reaches
    is measured afresh through pushforward_quotient, and the search raises
    an honest SearchFailureError when the bounds cannot be met.
    """
    if p.n != q.n:
        raise DimensionMismatchError("ambient dimensions differ")
    if p.n <= MAX_ENUM_N:
        return exhaustive_best_subspace(p, q, OBJECTIVE_PFR)

    d = ruzsa_distance(p, q)
    h = shannon_entropy(p), shannon_entropy(q)
    v = Subspace.zero(p.n)
    while True:
        hp = shannon_entropy(pushforward_quotient(p, v))
        hq = shannon_entropy(pushforward_quotient(q, v))
        chk = _pfr_check(h, hp, hq, v.dim, d)
        if chk.passes:
            break
        if v.dim + 1 > chk.values["size_bound"] + IDENTITY_TOL:
            raise SearchFailureError(
                "greedy PFR search exhausted its size budget without meeting the bound"
            )
        v = greedy_extension(p, q, v, np.maximum)
        if v is None:
            raise SearchFailureError("greedy PFR search found no extension vector")
    return certificate(CRITERION_PFR, "greedy", v, {}, chk)


def _pfr_check(
    h: tuple[float, float], hp: float, hq: float, dim: int, d: float
) -> CriterionCheck:
    """check_pfr for a V of dimension dim, from (H[X], H[Y]),
    H[pi_V(X)], H[pi_V(Y)] and d = d[X;Y]."""
    h_x, h_y = h
    pfr_bound, size_bound, ok = pfr_inequality(hp, hq, h_x + h_y, dim, d)
    return CriterionCheck(
        values={
            "h_x": h_x,
            "h_y": h_y,
            "h_proj_x": hp,
            "h_proj_y": hq,
            "pfr_bound": pfr_bound,
            "size_bound": size_bound,
        },
        verdicts={"pfr bounds": bool(ok)},
    )


def check_pfr(p: Dist, q: Dist, v: Subspace) -> CriterionCheck:
    """Recompute the PFR bounds for V from the inputs alone."""
    hp = shannon_entropy(pushforward_quotient(p, v))
    hq = shannon_entropy(pushforward_quotient(q, v))
    h = shannon_entropy(p), shannon_entropy(q)
    return _pfr_check(h, hp, hq, v.dim, ruzsa_distance(p, q))
