"""Concrete subspace finders standing in for the entropic-PFR black box.

The cited structure theorem is realized as a search contract: exhaustive scans
over the full subspace lattice (n <= 6) serve as ground truth, and a greedy
ascent covers larger n with honest failure when the bounds cannot be met.
Every returned certificate re-verifies from (inputs, V) alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .dist import Dist, pushforward_quotient, xor_convolve
from .entropy import (
    joint_entropy,
    mutual_information,
    ruzsa_distance,
    shannon_entropy,
    _entropy,
)
from .errors import (
    CapacityError,
    DimensionMismatchError,
    PipelineError,
    SearchFailureError,
)
from .gf2 import Subspace, all_subspaces, span
from .tolerances import IDENTITY_TOL, MASS_EPS, MAX_ENUM_N, tolerances_dict

CRITERION_PFR = "PFR_COR22"
CRITERION_B = "STATEMENT_B"
CRITERION_A = "STATEMENT_A"
CRITERION_T11 = "THEOREM_11"

OBJECTIVE_PROJECTED_ENTROPY = "projected_entropy"
OBJECTIVE_STATEMENT_B = "statement_b"
OBJECTIVE_PFR = "pfr"

# The PFR size budget dim V <= 7 (H[X] + H[Y]), also the endgame's per-pair budget.
PFR_SIZE_FACTOR = 7.0


@dataclass(frozen=True)
class SubspaceCertificate:
    """A subspace plus the numerically verified inequalities it satisfies."""

    criterion: str
    search_mode: str
    subspace: Subspace
    parameters: dict
    achieved: dict
    tolerances: dict = field(default_factory=tolerances_dict)
    inputs: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "criterion": self.criterion,
            "search_mode": self.search_mode,
            "subspace": self.subspace.to_json(),
            "parameters": self.parameters,
            "achieved": self.achieved,
            "tolerances": self.tolerances,
            "inputs": self.inputs,
        }


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

    def to_json(self) -> dict:
        return {
            "values": self.values,
            "verdicts": {name: bool(ok) for name, ok in self.verdicts.items()},
        }


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
    coset in increasing order of canonical representative; bins[i, x] is the
    bin of the coset of x.
    """
    subs = all_subspaces(n)
    reps = np.stack([v.rep_table() for v in subs])
    dims = np.array([v.dim for v in subs], dtype=np.float64)
    is_rep = reps == np.arange(1 << n)
    starts = np.zeros(len(subs), dtype=np.int64)
    np.cumsum(is_rep.sum(axis=1)[:-1], out=starts[1:])
    # Rank of each representative within its row, then offset by the row's start.
    rank = np.cumsum(is_rep, axis=1) - 1
    bins = np.take_along_axis(rank, reps, axis=1) + starts[:, None]
    return subs, bins, starts, dims


def lattice_entropies(d: Dist) -> np.ndarray:
    """H[pi_V(X)] for X ~ d and every subspace V of F_2^n (n <= 6), in
    all_subspaces order: the lattice scan, one bincount over all coset bins."""
    _, bins, starts, _ = _scan_tables(d.n)
    pushed = np.bincount(bins.ravel(), weights=np.tile(d.mass, len(bins)))
    plogp = np.where(pushed > MASS_EPS, pushed * np.log2(np.maximum(pushed, MASS_EPS)), 0.0)
    return -np.add.reduceat(plogp, starts) + 0.0


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
    minimize dim V subject to the statement-B inequality or the PFR bounds.  Ties break to the earliest subspace in (dim, lex) order.
    """
    if p.n != q.n:
        raise DimensionMismatchError("ambient dimensions differ")
    if p.n > MAX_ENUM_N:
        raise CapacityError(f"exhaustive search capped at n <= {MAX_ENUM_N}")
    params = dict(params or {})
    subs, _, _, dims = _scan_tables(p.n)
    hp0, hq0 = shannon_entropy(p), shannon_entropy(q)
    hp = lattice_entropies(p)
    hq = lattice_entropies(q)
    # Only the statement-B objective reads X+Y and pays for its convolution and scan.
    hpq = None
    if objective == OBJECTIVE_STATEMENT_B:
        hpq = lattice_entropies(xor_convolve(p, q))

    feasible = np.ones(len(subs), dtype=bool)
    if entropy_budget is not None:
        feasible &= dims <= entropy_budget + IDENTITY_TOL

    if objective == OBJECTIVE_PROJECTED_ENTROPY:
        score = hp + hq
        idx = _masked_argmin(score, feasible, objective)
    elif objective == OBJECTIVE_STATEMENT_B:
        big_l = params.get("L")
        ok = b_inequality(
            hpq, hp, hq, hp0 + hq0, dims, float(params["eta"]), float(params["epsilon"]),
            None if big_l is None else float(big_l),
        )[2]
        idx = _first_feasible(ok & feasible, objective)
    elif objective == OBJECTIVE_PFR:
        d = ruzsa_distance(p, q)
        params["ruzsa_distance"] = d
        pfr_bound, size_bound, ok = pfr_inequality(hp, hq, hp0 + hq0, dims, d)
        idx = _first_feasible(ok & feasible, objective)
    else:
        raise ValueError(f"unknown objective {objective!r}")

    v = subs[idx]
    achieved = {
        "dim": v.dim,
        "h_x": hp0,
        "h_y": hq0,
        "h_proj_x": float(hp[idx]),
        "h_proj_y": float(hq[idx]),
    }
    if hpq is not None:
        achieved["h_proj_sum"] = float(hpq[idx])
        achieved["quotient_doubling"] = float(hp[idx] + hq[idx] - hpq[idx])
    if objective == OBJECTIVE_PFR:
        achieved["ruzsa_distance"] = float(d)
        achieved["pfr_bound"] = float(pfr_bound)
        achieved["size_bound"] = float(size_bound)
    criterion = {
        OBJECTIVE_STATEMENT_B: CRITERION_B,
        OBJECTIVE_PFR: CRITERION_PFR,
    }.get(objective, objective)
    return SubspaceCertificate(
        criterion=criterion,
        search_mode="exhaustive",
        subspace=v,
        parameters={"objective": objective, **params},
        achieved=achieved,
        inputs={"p": p.digest(), "q": q.digest()},
    )


def _masked_argmin(score: np.ndarray, feasible: np.ndarray, tag: str) -> int:
    if not feasible.any():
        raise SearchFailureError(f"no subspace satisfies the constraints for {tag}")
    masked = np.where(feasible, score, np.inf)
    return int(np.argmin(masked))


def _first_feasible(ok: np.ndarray, tag: str) -> int:
    hits = np.nonzero(ok)[0]
    if hits.size == 0:
        raise SearchFailureError(f"no subspace satisfies the constraints for {tag}")
    return int(hits[0])


def greedy_extension(
    p: Dist, q: Dist, v: Subspace, combine: Callable[[float, float], float]
) -> Subspace | None:
    """V + <x> for the x minimizing combine(H[pi(X)], H[pi(Y)]) after the step.

    Scans each nonzero coset of V once, through its canonical representative
    in increasing order, so near-ties (within 1e-15) go to the smallest
    representative.  Returns None when V is already the whole group.
    """
    rep = v.rep_table()
    best_vec, best_score = None, np.inf
    for vec in np.flatnonzero(rep == np.arange(rep.size))[1:].tolist():
        cand = span(v.basis + (vec,), v.n)
        score = combine(
            shannon_entropy(pushforward_quotient(p, cand)),
            shannon_entropy(pushforward_quotient(q, cand)),
        )
        if score < best_score - 1e-15:
            best_vec, best_score = vec, score
    return None if best_vec is None else span(v.basis + (best_vec,), v.n)


def pfr_subspace(p: Dist, q: Dist) -> SubspaceCertificate:
    """Find V with dim V <= 7(H[X]+H[Y]) and max proj entropy <= 12 d[X;Y].

    Exhaustive for n <= 6 (minimal qualifying subspace); greedy ascent above,
    adding the vector that best reduces the larger projected entropy, with an
    honest SearchFailureError when the bounds cannot be met.
    """
    if p.n != q.n:
        raise DimensionMismatchError("ambient dimensions differ")
    if p.n <= MAX_ENUM_N:
        return exhaustive_best_subspace(p, q, OBJECTIVE_PFR)

    d = ruzsa_distance(p, q)
    h_x, h_y = shannon_entropy(p), shannon_entropy(q)
    v = Subspace.zero(p.n)
    while True:
        hp = shannon_entropy(pushforward_quotient(p, v))
        hq = shannon_entropy(pushforward_quotient(q, v))
        pfr_bound, size_bound, ok = pfr_inequality(hp, hq, h_x + h_y, v.dim, d)
        if ok:
            break
        if v.dim + 1 > size_bound + IDENTITY_TOL:
            raise SearchFailureError(
                "greedy PFR search exhausted its size budget without meeting the bound"
            )
        v = greedy_extension(p, q, v, max)
        if v is None:
            raise SearchFailureError("greedy PFR search found no extension vector")

    return SubspaceCertificate(
        criterion=CRITERION_PFR,
        search_mode="greedy",
        subspace=v,
        parameters={"objective": OBJECTIVE_PFR, "ruzsa_distance": d},
        achieved={
            "dim": v.dim,
            "h_x": h_x,
            "h_y": h_y,
            "h_proj_x": hp,
            "h_proj_y": hq,
            "pfr_bound": pfr_bound,
            "size_bound": size_bound,
        },
        inputs={"p": p.digest(), "q": q.digest()},
    )


def check_pfr(p: Dist, q: Dist, v: Subspace) -> CriterionCheck:
    """Recompute the PFR bounds for V from the inputs alone."""
    hp = shannon_entropy(pushforward_quotient(p, v))
    hq = shannon_entropy(pushforward_quotient(q, v))
    h_total = shannon_entropy(p) + shannon_entropy(q)
    ok = pfr_inequality(hp, hq, h_total, v.dim, ruzsa_distance(p, q))[2]
    return CriterionCheck(
        values={"h_proj_x": hp, "h_proj_y": hq}, verdicts={"pfr bounds": bool(ok)}
    )


@dataclass(frozen=True)
class BsgReport:
    """Both sides of the entropic Balog-Szemeredi-Gowers inequality."""

    expected_fiber_distance: float
    bound: float
    mutual_info: float
    holds: bool

    def to_json(self) -> dict:
        return {
            "expected_fiber_distance": self.expected_fiber_distance,
            "bound": self.bound,
            "mutual_info": self.mutual_info,
            "holds": self.holds,
        }


def bsg_check(j) -> BsgReport:
    """E_{t ~ A+B} d[A|A+B=t ; B|A+B=t] <= 3 I[A:B] + 2 H[A+B] - H[A] - H[B]."""
    if j.k != 2 or j.dims[0] != j.dims[1]:
        raise DimensionMismatchError("bsg_check expects a two-block joint on G x G")
    n = j.dims[0]
    size = 1 << n
    idx = np.arange(size)
    sum_mass = np.zeros(size)
    np.add.at(sum_mass, (idx[:, None] ^ idx[None, :]).ravel(), j.mass.ravel())
    lhs = 0.0
    for t in np.nonzero(sum_mass > MASS_EPS)[0]:
        pt = sum_mass[t]
        fiber_a = Dist(n, j.mass[idx, idx ^ t] / pt)
        fiber_b = Dist(n, j.mass[idx ^ t, idx] / pt)
        lhs += pt * ruzsa_distance(fiber_a, fiber_b)
    mi = mutual_information(j, 0, 1)
    rhs = 3.0 * mi + 2.0 * _entropy(sum_mass) - joint_entropy(j, 0) - joint_entropy(j, 1)
    return BsgReport(
        expected_fiber_distance=float(lhs),
        bound=float(rhs),
        mutual_info=float(mi),
        holds=bool(lhs <= rhs + IDENTITY_TOL),
    )
