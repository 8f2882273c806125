"""Statements A and B as checkable contracts, and the constructive pipeline.

Statement B(eta, eps, L): there is a subspace V with H[U_V] <= L(H[X]+H[Y])
and H[pi(X)+pi(Y)] >= (1-eta)(H[pi(X)]+H[pi(Y)]) - eps(H[X]+H[Y]).
Statement A(eta, L, c): if H[X+Y] <= (1-eta)(H[X]+H[Y]) there is such a V
with H[pi(X)]+H[pi(Y)] <= (1-c)(H[X]+H[Y]).

solve_B realizes B constructively: sumset preprocessing, a case split on
fiber doubling (with the endgame as the third case), local-to-global gluing
of per-fiber subspaces, and recursion on eta toward the 1/2 base case.  Every
produced subspace is accepted only after an independent statement check; the
worst-case constants of the analysis are recorded but never trusted.

Every check_* function returns an oracle.CriterionCheck: the recomputed
quantities, named as in the certificate's achieved block, and one verdict per
inequality.  Producers and verify_bundle call the same functions.

Two run modes: "paper-faithful" enforces eps0 = 2^-15 eta0^2 and the stated
case thresholds (feasible only on tiny instances); "practical" keeps the
same control flow but derives thresholds and zeta from measured quantities.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .dist import Dist, FiberFamily, pushforward_quotient, uniform_on, xor_convolve
from .endgame import (
    FiberGrid,
    _check_endgame_inputs,
    _endgame_grid,
    _endgame_hypotheses,
    _move_table,
    cap_fibers,
    fiber_grid,
)
from .entropy import PairEntropies, fibring_decompose, shannon_entropy
from .errors import (
    DimensionMismatchError,
    EmptySupportError,
    HypothesisViolationError,
    PipelineError,
    SearchFailureError,
    ValidationError,
)
from .families import doubling_stats
from .gf2 import Subspace, coset_decompose, span, subspace_sum
from .oracle import (
    CRITERION_A,
    CRITERION_B,
    CRITERION_T11,
    CriterionCheck,
    SubspaceCertificate,
    b_inequality,
    greedy_extension,
)
from .tolerances import FIBER_CAP, IDENTITY_TOL

MODE_PRACTICAL = "practical"
MODE_PAPER = "paper-faithful"

CRITERION_RICH = "RICH_COSETS"
CRITERION_MANY = "MANY_SUMS"

# A B-solver returns a statement-B certificate for (X, Y) at the inductive
# step's (eta0, eps0), and returns V = 0 whenever V = 0 satisfies statement B
# at (eta0, eps0).  _solve_b checks V = 0 first, and the exhaustive
# statement_b scan returns the first feasible subspace in (dim, lex) order, so
# both keep this contract; inductive_step relies on it to skip fiber grids.
BSolver = Callable[[Dist, Dist], SubspaceCertificate]


# ---------------------------------------------------------------------------
# Statement parameters and checks


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
        if self.epsilon is not None and not 0.0 < self.epsilon <= 1.0:
            raise ValidationError(f"epsilon must lie in (0, 1], got {self.epsilon}")
        if self.c is not None and not 0.0 < self.c <= 1.0:
            raise ValidationError(f"c must lie in (0, 1], got {self.c}")
        if self.L is not None and self.L < 0.0:
            raise ValidationError(f"L must be nonnegative, got {self.L}")

    def to_json(self) -> dict:
        return {"eta": self.eta, "epsilon": self.epsilon, "c": self.c, "L": self.L}


def check_statement_B(
    p: Dist, q: Dist, v: Subspace, params: StatementParams
) -> CriterionCheck:
    """Statement B for V: the inequality and, when params.L is given, the size bound."""
    if params.epsilon is None:
        raise ValueError("statement B requires epsilon")
    if p.n != q.n or p.n != v.n:
        raise DimensionMismatchError("ambient dimensions differ")
    h_total = shannon_entropy(p) + shannon_entropy(q)
    pp, qp = pushforward_quotient(p, v), pushforward_quotient(q, v)
    hp, hq = shannon_entropy(pp), shannon_entropy(qp)
    lhs = shannon_entropy(xor_convolve(pp, qp))
    rhs, _, ok = b_inequality(
        lhs, hp, hq, h_total, v.dim, params.eta, params.epsilon, params.L
    )
    return CriterionCheck(
        values={
            "lhs": float(lhs),
            "rhs": float(rhs),
            "h_total": h_total,
            "h_proj_x": hp,
            "h_proj_y": hq,
        },
        verdicts={"statement B inequality": bool(ok)},
    )


def check_statement_A(
    p: Dist, q: Dist, v: Subspace, params: StatementParams
) -> CriterionCheck:
    """Statement A for V: the hypothesis H[X+Y] <= (1-eta)(H[X]+H[Y]), the
    conclusion H[pi(X)]+H[pi(Y)] <= (1-c)(H[X]+H[Y]) and, when params.L is
    given, the size bound dim V <= L(H[X]+H[Y])."""
    if params.c is None:
        raise ValueError("statement A requires c")
    if p.n != q.n or p.n != v.n:
        raise DimensionMismatchError("ambient dimensions differ")
    h_total = shannon_entropy(p) + shannon_entropy(q)
    h_sum = shannon_entropy(xor_convolve(p, q))
    hp = shannon_entropy(pushforward_quotient(p, v))
    hq = shannon_entropy(pushforward_quotient(q, v))
    lhs = hp + hq
    rhs = (1.0 - params.c) * h_total
    size_bound = None if params.L is None else params.L * h_total
    return CriterionCheck(
        values={
            "lhs": float(lhs),
            "rhs": float(rhs),
            "h_total": h_total,
            "h_sum": h_sum,
            "size_bound": size_bound,
        },
        verdicts={
            "hypothesis": bool(h_sum <= (1.0 - params.eta) * h_total + IDENTITY_TOL),
            "conclusion": bool(lhs <= rhs + IDENTITY_TOL),
            "size bound": size_bound is None or v.dim <= size_bound + IDENTITY_TOL,
        },
    )


def check_rich_cosets(p: Dist, q: Dist, v: Subspace, epsilon: float) -> CriterionCheck:
    """Rich cosets: s[pi(X);pi(Y)] <= eps(H[X]+H[Y]) and
    H[X|pi(X)], H[Y|pi(Y)] >= s[X;Y] - eps(H[X]+H[Y])."""
    h_x, h_y = shannon_entropy(p), shannon_entropy(q)
    h_total = h_x + h_y
    s = h_total - shannon_entropy(xor_convolve(p, q))
    report = fibring_decompose(p, q, v)
    hx_cond = h_x - shannon_entropy(pushforward_quotient(p, v))
    hy_cond = h_y - shannon_entropy(pushforward_quotient(q, v))
    bound = s - epsilon * h_total
    return CriterionCheck(
        values={
            "s": s,
            "s_quotient": report.s_quotient,
            "s_fiber": report.s_fiber,
            "residual_mi": report.residual_mi,
            "h_x_given_proj": hx_cond,
            "h_y_given_proj": hy_cond,
            "bound": bound,
            "h_total": h_total,
        },
        verdicts={
            "quotient interaction": report.s_quotient <= epsilon * h_total + IDENTITY_TOL,
            "x coset bound": hx_cond >= bound - IDENTITY_TOL,
            "y coset bound": hy_cond >= bound - IDENTITY_TOL,
        },
    )


def check_many_sums(dists: Sequence[Dist], v: Subspace, epsilon: float) -> CriterionCheck:
    """k-fold sums: H[pi(X_1)+...+pi(X_k)] >= sum H[pi(X_i)] - eps sum H[X_i]."""
    pushed = [pushforward_quotient(d, v) for d in dists]
    total = pushed[0]
    for extra in pushed[1:]:
        total = xor_convolve(total, extra)
    lhs = shannon_entropy(total)
    h_proj = [shannon_entropy(d) for d in pushed]
    h_total = sum(shannon_entropy(d) for d in dists)
    rhs = sum(h_proj) - epsilon * h_total
    return CriterionCheck(
        values={"lhs": lhs, "rhs": rhs, "h_total": h_total, "h_proj": h_proj},
        verdicts={"k-fold inequality": lhs >= rhs - IDENTITY_TOL},
    )


def check_theorem_11(
    members: Sequence[int], u_a: Dist, v: Subspace, epsilon: float
) -> CriterionCheck:
    """Theorem 1.1 for A = members (sorted, distinct) with U_A = u_a:
    E_{a in A} log2|A cap (V+a)| >= (eta - eps) log2|A|, and that expectation
    equals H[U_A | pi_V(U_A)]."""
    stats = doubling_stats(members)
    size = len(members)
    parts = coset_decompose(members, v)
    expected_log = sum(len(part) * math.log2(len(part)) for part in parts.values()) / size
    h_cond = shannon_entropy(u_a) - shannon_entropy(pushforward_quotient(u_a, v))
    identity_gap = abs(expected_log - h_cond)
    bound = (stats.eta - epsilon) * math.log2(size) if size > 1 else 0.0
    return CriterionCheck(
        values={
            "set_size": size,
            "sumset_size": stats.sumset_size,
            "eta": stats.eta,
            "expected_log_intersection": expected_log,
            "h_cond": h_cond,
            "identity_gap": identity_gap,
            "bound": bound,
        },
        verdicts={
            "coset identity": identity_gap <= IDENTITY_TOL,
            "intersection bound": expected_log >= bound - IDENTITY_TOL,
        },
    )


# ---------------------------------------------------------------------------
# Traces


@dataclass(frozen=True)
class TraceStep:
    kind: str
    added: Subspace
    dim_total: int
    h_before: float
    h_after: float
    note: dict = field(default_factory=dict)

    @property
    def decrement(self) -> float:
        return self.h_before - self.h_after

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "added": self.added.to_json(),
            "dim_total": self.dim_total,
            "h_before": self.h_before,
            "h_after": self.h_after,
            "decrement": self.decrement,
            "note": self.note,
        }


@dataclass(frozen=True)
class PipelineTrace:
    steps: tuple[TraceStep, ...]
    subspace: Subspace
    certificate: SubspaceCertificate

    def to_json(self) -> dict:
        return {
            "steps": [s.to_json() for s in self.steps],
            "subspace": self.subspace.to_json(),
            "certificate": self.certificate.to_json(),
        }


# ---------------------------------------------------------------------------
# Lemma: make the two derived sumset pairs non-doubling


def make_sumsets_not_double(
    p: Dist, q: Dist, eta0: float, eps0: float, b_solver: BSolver
) -> tuple[Subspace, list[TraceStep]]:
    """Find V so both derived sumset pairs obey the eta0-ratio up to 4 eps0.

    Repeatedly applies the B-solver to whichever of (X1+X2, Y1+Y2) and
    (X1+Y2, Y1+X2) still doubles too much; terminates within ceil(2/eps0)
    applications.
    """
    h_orig = shannon_entropy(p) + shannon_entropy(q)
    v = Subspace.zero(p.n)
    steps: list[TraceStep] = []
    max_steps = math.ceil(2.0 / eps0) + 1
    for _ in range(max_steps):
        pp, qp = pushforward_quotient(p, v), pushforward_quotient(q, v)
        a = xor_convolve(pp, pp)
        b = xor_convolve(qp, qp)
        c = xor_convolve(pp, qp)
        s_all = shannon_entropy(xor_convolve(a, b))
        slack = 4.0 * eps0 * h_orig
        ok1 = s_all >= (1.0 - eta0) * (shannon_entropy(a) + shannon_entropy(b)) - slack - IDENTITY_TOL
        ok2 = s_all >= (1.0 - eta0) * (2.0 * shannon_entropy(c)) - slack - IDENTITY_TOL
        if ok1 and ok2:
            return v, steps
        h_before = shannon_entropy(pp) + shannon_entropy(qp)
        if not ok1:
            cert = b_solver(a, b)
            kind = "SUMSET_FIX_1"
        else:
            cert = b_solver(c, c)
            kind = "SUMSET_FIX_2"
        v = subspace_sum(v, cert.subspace)
        pp, qp = pushforward_quotient(p, v), pushforward_quotient(q, v)
        h_after = shannon_entropy(pp) + shannon_entropy(qp)
        steps.append(
            TraceStep(
                kind=kind,
                added=cert.subspace,
                dim_total=v.dim,
                h_before=h_before,
                h_after=h_after,
            )
        )
    raise PipelineError(
        f"sumset fixing did not terminate within {max_steps} solver applications"
    )


# ---------------------------------------------------------------------------
# Lemma: size of Y's fibers under nested subspaces


@dataclass(frozen=True)
class YSizeReport:
    h_y_given_w: float
    s_fiber_v: float
    h_w_given_v: float
    holds: bool

    def to_json(self) -> dict:
        return {
            "h_y_given_w": self.h_y_given_w,
            "s_fiber_v": self.s_fiber_v,
            "h_w_given_v": self.h_w_given_v,
            "holds": self.holds,
        }


def y_size_lower_bound_check(p: Dist, q: Dist, w: Subspace, v: Subspace) -> YSizeReport:
    """Check H[Y|pi_W(Y)] >= s[X|pi_V(X); Y|pi_V(Y)] - H[pi_W(X)|pi_V(X)]."""
    if not w.is_subspace_of(v):
        raise ValueError("W must be a subspace of V")
    h_y_given_w = shannon_entropy(q) - shannon_entropy(pushforward_quotient(q, w))
    s_fiber_v = fibring_decompose(p, q, v).s_fiber
    # pi_V(X) is a function of pi_W(X) because W <= V.
    h_w_given_v = shannon_entropy(pushforward_quotient(p, w)) - shannon_entropy(
        pushforward_quotient(p, v)
    )
    return YSizeReport(
        h_y_given_w=float(h_y_given_w),
        s_fiber_v=float(s_fiber_v),
        h_w_given_v=float(h_w_given_v),
        holds=bool(h_y_given_w >= s_fiber_v - h_w_given_v - IDENTITY_TOL),
    )


# ---------------------------------------------------------------------------
# Lemma: local-to-global gluing of per-fiber subspaces


@dataclass(frozen=True)
class LocalToGlobalResult:
    subspace: Subspace
    k: int
    tau: float
    zeta: float
    attempts: int
    seed_label: tuple[int, int]
    h_y_given_proj: float
    h_y_floor: float
    dim_bound: float
    h_sequence: tuple[float, ...]
    exact_expectations: bool
    mc_samples: int

    def to_json(self) -> dict:
        return {
            "subspace": self.subspace.to_json(),
            "k": self.k,
            "tau": self.tau,
            "zeta": self.zeta,
            "attempts": self.attempts,
            "seed_label": list(self.seed_label),
            "h_y_given_proj": self.h_y_given_proj,
            "h_y_floor": self.h_y_floor,
            "dim_bound": self.dim_bound,
            "h_sequence": list(self.h_sequence),
            "exact_expectations": self.exact_expectations,
            "mc_samples": self.mc_samples,
        }


def _h_expectation_sequence(
    grid: FiberGrid,
    tau: float,
    rng: np.random.Generator,
    exact_cap: int = 200_000,
    mc_samples: int = 800,
) -> tuple[list[float], bool, int]:
    """h_j = E_{u, w^(1..j)} H[pi_{V(u,w1)+...+V(u,wj)}(X_u)] for j = 0..k+1,
    where k is the first j with h_j - h_{j+1} <= tau h_0 (the pigeonhole).

    h is nonincreasing and h_0 >= 0, so some j <= ceil(1/tau) stops, and
    computing h level by level up to it gives the same k as the whole
    sequence.  Exact dynamic programming over the reachable subspace-sum
    lattice draws nothing from rng.  If its transition count passes
    exact_cap, a recorded Monte-Carlo estimate takes over: mc_samples paths,
    advanced one level at a time and stopped by the same rule.
    """
    fibers_x, fibers_y, v_table = grid.fibers_x, grid.fibers_y, grid.v_table
    n = fibers_x.dists[0].n
    zero = Subspace.zero(n)
    # h_1 .. h_{ceil(1/tau)+1}: the last level tests j = ceil(1/tau).
    levels = math.ceil(1.0 / tau) + 1
    # States are canonical bases.  One join memo and one entropy memo, keyed
    # by basis, serve both the exact DP and the Monte-Carlo fallback.
    spaces: dict[tuple[int, ...], Subspace] = {zero.basis: zero}
    joins: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[int, ...]] = {}
    h_cache: dict[tuple[int, tuple[int, ...]], float] = {}

    def join(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        merged = joins.get((a, b))
        if merged is None:
            v = span(a + b, n)
            merged = joins[(a, b)] = v.basis
            spaces.setdefault(merged, v)
        return merged

    def push_entropy(ui: int, basis: tuple[int, ...]) -> float:
        key = (ui, basis)
        if key not in h_cache:
            h_cache[key] = shannon_entropy(
                pushforward_quotient(fibers_x.dists[ui], spaces[basis])
            )
        return h_cache[key]

    def stops(h: list[float]) -> bool:
        return h[-2] - h[-1] <= tau * h[0] + IDENTITY_TOL

    # Per u: the basis of V(u, w) and Pr[w], over w.
    rows = [
        [(v_table[(u, w)].basis, qw) for w, qw in zip(fibers_y.labels, fibers_y.weights)]
        for u in fibers_x.labels
    ]

    h = [
        float(sum(w * shannon_entropy(d) for w, d in zip(fibers_x.weights, fibers_x.dists)))
    ]
    transitions = 0
    states_by_u: list[dict[tuple[int, ...], float]] = [
        {zero.basis: 1.0} for _ in fibers_x.labels
    ]
    for _ in range(levels):
        transitions += sum(len(states) for states in states_by_u) * len(fibers_y.labels)
        if transitions > exact_cap:
            break
        total = 0.0
        for ui, wu in enumerate(fibers_x.weights):
            new: dict[tuple[int, ...], float] = {}
            for basis, pr in states_by_u[ui].items():
                for vb, qw in rows[ui]:
                    merged = join(basis, vb)
                    new[merged] = new.get(merged, 0.0) + pr * qw
            states_by_u[ui] = new
            total += wu * sum(pr * push_entropy(ui, basis) for basis, pr in new.items())
        h.append(float(total))
        if stops(h):
            return h, True, 0
    else:
        raise PipelineError("pigeonhole failed to select k; expectations inconsistent")

    # Monte-Carlo fallback: every path advances one level per round of draws,
    # each round's indices from one rng.random call on the cumulative weights.
    def draw(weights: np.ndarray) -> np.ndarray:
        cum = np.cumsum(weights)
        return np.searchsorted(cum[:-1], rng.random(mc_samples) * cum[-1], side="right")

    paths = draw(fibers_x.weights).tolist()
    bases = [zero.basis] * mc_samples
    h = [sum(push_entropy(ui, zero.basis) for ui in paths) / mc_samples]
    for _ in range(levels):
        for i, (ui, wi) in enumerate(zip(paths, draw(fibers_y.weights).tolist())):
            bases[i] = join(bases[i], rows[ui][wi][0])
        h.append(sum(push_entropy(ui, b) for ui, b in zip(paths, bases)) / mc_samples)
        if stops(h):
            return h, False, mc_samples
    raise PipelineError("pigeonhole failed to select k; expectations inconsistent")


def local_to_global(
    grid: FiberGrid,
    zeta: float,
    rng: np.random.Generator,
    seed_label: tuple[int, int] = (0, 0),
) -> LocalToGlobalResult:
    """Glue per-pair subspaces V(u,w) into one V-bar that bites into Y.

    Requires the local interaction hypothesis
    E_{u,w} s[X_u|pi(X_u); Y_w|pi(Y_w)] >= zeta (H[X]+H[Y]); then samples
    u ~ U and w^(1..k) ~ W (seeded), with k the first j of the pigeonhole rule
    h_j - h_{j+1} <= tau h_0 at tau = zeta/2 (h_sequence holds h_0 .. h_{k+1}),
    retrying until H[Y|pi(Y)] >= (zeta/4)(H[X]+H[Y]) and
    dim <= (8/zeta^2) E dim V(u,w).
    """
    if zeta <= 0.0:
        raise ValueError("zeta must be positive")
    fibers_x, fibers_y, v_table = grid.fibers_x, grid.fibers_y, grid.v_table
    x_mix = fibers_x.mixture()
    y_mix = fibers_y.mixture()
    h_total = shannon_entropy(x_mix) + shannon_entropy(y_mix)
    n = x_mix.n

    hyp, e_dim = grid.local_interaction
    if hyp < zeta * h_total - IDENTITY_TOL:
        raise HypothesisViolationError(
            f"local interaction {hyp:.6g} below zeta*(H[X]+H[Y]) = {zeta * h_total:.6g}",
            gaps=[("local_structure", zeta * h_total, hyp)],
        )

    tau = zeta / 2.0
    h_seq, exact, mc_samples = _h_expectation_sequence(grid, tau, rng)
    k = len(h_seq) - 2

    h_y = shannon_entropy(y_mix)
    floor = (zeta / 4.0) * h_total
    dim_bound = (8.0 / zeta**2) * e_dim
    max_attempts = math.ceil(100.0 / zeta)
    labels_u = list(fibers_x.labels)
    labels_w = list(fibers_y.labels)
    for attempt in range(1, max_attempts + 1):
        u = labels_u[int(rng.choice(len(labels_u), p=fibers_x.weights))]
        v_bar = Subspace.zero(n)
        for _ in range(k):
            w = labels_w[int(rng.choice(len(labels_w), p=fibers_y.weights))]
            v_bar = subspace_sum(v_bar, v_table[(u, w)])
        h_y_proj = h_y - shannon_entropy(pushforward_quotient(y_mix, v_bar))
        if h_y_proj >= floor - IDENTITY_TOL and v_bar.dim <= dim_bound + IDENTITY_TOL:
            return LocalToGlobalResult(
                subspace=v_bar,
                k=k,
                tau=tau,
                zeta=zeta,
                attempts=attempt,
                seed_label=seed_label,
                h_y_given_proj=float(h_y_proj),
                h_y_floor=float(floor),
                dim_bound=float(dim_bound),
                h_sequence=tuple(h_seq),
                exact_expectations=exact,
                mc_samples=mc_samples,
            )
    raise SearchFailureError(
        f"local-to-global sampling exhausted {max_attempts} attempts "
        f"(zeta={zeta:.4g}, k={k})"
    )


# ---------------------------------------------------------------------------
# The inductive step


def _zero_subspace_meets_b(
    fam_x: FiberFamily,
    fam_y: FiberFamily,
    entropies: PairEntropies,
    eta0: float,
    eps0: float,
) -> bool:
    """Whether V = 0 meets statement B at (eta0, eps0) for every fiber pair of
    the grid fiber_grid would build over fam_x x fam_y, read off the
    families' pair entropies on the pairs cap_fibers keeps.

    The comparison has no tolerance, while the B-solver accepts V = 0 down to
    -IDENTITY_TOL, so a pair the solver could answer with a nonzero V never
    passes; a pair within float error of the boundary fails here instead.
    """
    kept_x, kept_y, _ = cap_fibers(fam_x, fam_y)
    rows = [fam_x.labels.index(u) for u in kept_x.labels]
    cols = [fam_y.labels.index(w) for w in kept_y.labels]
    hx, hy = entropies.h_x[rows, None], entropies.h_y[None, cols]
    h_sum = entropies.h_sum[np.ix_(rows, cols)]
    rhs = b_inequality(h_sum, hx, hy, hx + hy, 0, eta0, eps0)[0]
    return bool(np.all(h_sum >= rhs))


def inductive_step(
    p: Dist,
    q: Dist,
    eta0: float,
    eps0: float,
    b_solver: BSolver,
    *,
    mode: str = MODE_PRACTICAL,
    rng: np.random.Generator | None = None,
    l0: float | None = None,
    seed_label: tuple[int, int] = (0, 0),
) -> PipelineTrace:
    """One inductive step: from a B-solver at (eta0, eps0) to a statement-A
    witness at eta0 - eps0.

    Preprocesses with the sumset lemma, then splits on fiber doubling
    (Case 1: same-letter fibers, Case 2: crossed fibers, Case 3: endgame),
    glues the case's fiber grid with local_to_global, and verifies the
    statement-A conclusion numerically before returning.  Every case builds
    its grid with fiber_grid, capped at FIBER_CAP pairs; the endgame case
    checks the endgame hypotheses on the step's move table and builds only
    the endgame's budgeted grid, never its Z-system bookkeeping.

    b_solver must return V = 0 whenever V = 0 satisfies statement B at
    (eta0, eps0).  The step relies on that: a Case 1 or Case 2 grid whose
    every pair meets B at V = 0 would have every V(u, w) = 0 and no local
    interaction, so the case fails without building the grid or calling
    b_solver.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if not 0.0 < eps0 < eta0 <= 0.5:
        raise ValueError("need 0 < eps0 < eta0 <= 1/2")
    if mode == MODE_PAPER and eps0 > (2.0**-15) * eta0**2 + 1e-15:
        raise ValueError("paper-faithful mode requires eps0 <= 2^-15 eta0^2")
    h_in = shannon_entropy(p) + shannon_entropy(q)
    s_in = h_in - shannon_entropy(xor_convolve(p, q))
    if s_in < (eta0 - eps0) * h_in - IDENTITY_TOL:
        raise HypothesisViolationError(
            f"s[X;Y] = {s_in:.6g} below (eta0-eps0)(H[X]+H[Y]) = "
            f"{(eta0 - eps0) * h_in:.6g}",
            gaps=[("doubling_floor", (eta0 - eps0) * h_in, s_in)],
        )

    v0, steps = make_sumsets_not_double(p, q, eta0, eps0, b_solver)
    p0, q0 = pushforward_quotient(p, v0), pushforward_quotient(q, v0)
    h0 = shannon_entropy(p0) + shannon_entropy(q0)
    c_paper = min(eps0, eta0**2 / 32.0)
    l1_paper = max(12.0 * eps0**-2 * (l0 if l0 is not None else 1.0), 2.0**12 * eta0**-4)

    case_note: dict = {"mode": mode}
    result = None
    if h0 <= (1.0 - c_paper) * h_in + IDENTITY_TOL:
        v_final = v0
        case_note["early_exit"] = True
    else:
        # One move table per step: its fiber moves pick the case, and its
        # sum-fiber families are the Case 1, Case 2 and endgame grids.
        move_table = _move_table(p0, q0)
        moves = move_table.moves
        m1 = moves["fiber_1"][0] - eta0 * moves["fiber_1"][1]
        m2 = moves["fiber_2"][0] - eta0 * moves["fiber_2"][1]
        if mode == MODE_PAPER:
            thresh = 8.0 * eps0 * h0
            if m1 >= thresh:
                candidates = ["CASE1"]
            elif m2 >= thresh:
                candidates = ["CASE2"]
            else:
                candidates = ["ENDGAME"]
        else:
            # Practical mode cascades: try the fiber cases by measured margin
            # and fall through to the endgame if the per-fiber B-subspaces
            # leave no interaction for the gluing lemma to exploit.
            fiber_cases = sorted(
                [(m1, "CASE1"), (m2, "CASE2")], key=lambda t: -t[0]
            )
            candidates = [c for m, c in fiber_cases if m > IDENTITY_TOL]
            candidates.append("ENDGAME")
        case_note.update({"margin_case1": m1, "margin_case2": m2})

        case_grids = {
            "CASE1": (move_table.fib_pp, move_table.fib_qq, move_table.entropies_1),
            "CASE2": (move_table.fib_pq, move_table.fib_qp, move_table.entropies_2),
        }
        failures: list[str] = []
        for case in candidates:
            if case in case_grids:
                fam_x, fam_y, entropies = case_grids[case]
                if _zero_subspace_meets_b(fam_x, fam_y, entropies, eta0, eps0):
                    failures.append(
                        f"{case}: every fiber pair meets statement B at V = 0, so every "
                        "V(u, w) = 0 and the local interaction is 0"
                    )
                    continue
                grid = fiber_grid(fam_x, fam_y, b_solver)
                zeta_paper = 7.0 * eps0
            else:
                # The move table holds 2 H[X0+Y0]; halving it is exact.
                s0 = h0 - moves["sumset_2"][1] / 2.0
                if mode == MODE_PAPER:
                    eta_e, kappa = eta0 - 2.0 * eps0, 12.0 * eps0 * h0
                else:
                    # The endgame measures kappa from the step's move table.
                    eta_e, kappa = min(max(s0 / h0 if h0 > 0 else 0.0, 1e-9), 0.5), None
                # Only the hypotheses and the grid: the gluing reads nothing else
                # of the endgame.
                _check_endgame_inputs(p0.n, eta_e, kappa)
                try:
                    kappa = _endgame_hypotheses(eta_e, kappa, h0, s0, moves)[0]
                except HypothesisViolationError as exc:
                    failures.append(f"ENDGAME hypotheses: {exc}")
                    continue
                grid = _endgame_grid(move_table, FIBER_CAP)[0]
                zeta_paper = eta0**2 / 8.0
                case_note.update({"eta_endgame": eta_e, "kappa": kappa})

            if mode == MODE_PAPER:
                zeta = zeta_paper
            else:
                hyp = grid.local_interaction[0]
                zeta = (hyp / h0) * (1.0 - 1e-12) if h0 > 0 else 0.0
                if zeta <= 1e-9:
                    failures.append(f"{case}: measured zeta {zeta:.3g} too small")
                    continue
            try:
                result = local_to_global(grid, zeta, rng, seed_label)
            except (HypothesisViolationError, SearchFailureError) as exc:
                failures.append(f"{case}: {exc}")
                continue
            case_note.update({"case": case, "fiber_cap": grid.cap, "failures": failures})
            break
        if result is None:
            raise HypothesisViolationError(
                "no case of the inductive step made progress: " + "; ".join(failures)
            )
        v_final = subspace_sum(v0, result.subspace)
        case_note["local_to_global"] = result.to_json()

    p1, q1 = pushforward_quotient(p, v_final), pushforward_quotient(q, v_final)
    h1 = shannon_entropy(p1) + shannon_entropy(q1)
    if result is not None:
        steps.append(
            TraceStep(
                kind=case_note["case"],
                added=result.subspace,
                dim_total=v_final.dim,
                h_before=h0,
                h_after=h1,
                note=case_note,
            )
        )
    c_meas = 1.0 - h1 / h_in if h_in > 0 else 1.0
    if c_meas <= IDENTITY_TOL:
        raise PipelineError(
            f"inductive step produced no entropy decrement (c = {c_meas:.3g})"
        )
    if mode == MODE_PAPER:
        params = StatementParams(eta=eta0 - eps0, c=c_paper, L=l1_paper)
    else:
        c_used = min(c_meas * (1.0 - 1e-12), 1.0 - 1e-12)
        l_used = v_final.dim / h_in if h_in > 0 else 0.0
        params = StatementParams(eta=eta0 - eps0, c=c_used, L=l_used + IDENTITY_TOL)
    chk = check_statement_A(p, q, v_final, params)
    chk.require("inductive-step statement-A")
    cert = SubspaceCertificate(
        criterion=CRITERION_A,
        search_mode="pipeline",
        subspace=v_final,
        parameters={
            "eta0": eta0,
            "eps0": eps0,
            "mode": mode,
            "c_paper": c_paper,
            "l1_paper": l1_paper,
            "c_measured": c_meas,
            **params.to_json(),
        },
        achieved={
            "dim": v_final.dim,
            "h_in": h_in,
            "h_out": h1,
            "lhs": chk.values["lhs"],
            "rhs": chk.values["rhs"],
        },
        inputs={"p": p.digest(), "q": q.digest()},
    )
    return PipelineTrace(steps=tuple(steps), subspace=v_final, certificate=cert)


# ---------------------------------------------------------------------------
# Theorem: statement B via recursion on eta


# Caps on one solve_B call's recursion depth and on its sub-solver calls.
MAX_SOLVE_DEPTH = 48
MAX_SOLVE_INVOCATIONS = 30_000


@dataclass
class _SolveContext:
    rng: np.random.Generator
    mode: str
    seed: int
    memo: dict = field(default_factory=dict)
    depth: int = 0
    invocations: int = 0
    l2g_counter: int = 0


@dataclass(frozen=True)
class SolveResult:
    certificate: SubspaceCertificate
    steps: tuple[TraceStep, ...]
    check: CriterionCheck
    mode: str
    seed: int

    @property
    def subspace(self) -> Subspace:
        return self.certificate.subspace

    def to_json(self) -> dict:
        return {
            "certificate": self.certificate.to_json(),
            "steps": [s.to_json() for s in self.steps],
            "check": self.check.to_json(),
            "mode": self.mode,
            "seed": self.seed,
        }


def _b_certificate(
    p: Dist,
    q: Dist,
    v: Subspace,
    eta: float,
    eps: float,
    mode: str,
    chk: CriterionCheck,
) -> SubspaceCertificate:
    h_total = chk.values["h_total"]
    achieved_l = v.dim / h_total if h_total > 0 else 0.0
    return SubspaceCertificate(
        criterion=CRITERION_B,
        search_mode="pipeline",
        subspace=v,
        parameters={"eta": eta, "epsilon": eps, "mode": mode, "L_achieved": achieved_l},
        achieved={"dim": v.dim, **chk.values},
        inputs={"p": p.digest(), "q": q.digest()},
    )


def _solve_b(
    p: Dist, q: Dist, eta: float, eps: float, ctx: _SolveContext
) -> tuple[SubspaceCertificate, tuple[TraceStep, ...]]:
    key = (p.digest(), q.digest(), round(eta, 12), round(eps, 12))
    if key in ctx.memo:
        return ctx.memo[key]
    ctx.invocations += 1
    if ctx.invocations > MAX_SOLVE_INVOCATIONS:
        raise PipelineError("solver invocation budget exhausted")
    ctx.depth += 1
    try:
        result = _solve_b_inner(p, q, eta, eps, ctx)
    finally:
        ctx.depth -= 1
    ctx.memo[key] = result
    return result


def _solve_b_inner(
    p: Dist, q: Dist, eta: float, eps: float, ctx: _SolveContext
) -> tuple[SubspaceCertificate, tuple[TraceStep, ...]]:
    if ctx.depth > MAX_SOLVE_DEPTH:
        raise PipelineError(f"recursion depth cap {MAX_SOLVE_DEPTH} exceeded")
    n = p.n
    params = StatementParams(eta=eta, epsilon=eps)
    v = Subspace.zero(n)
    steps: list[TraceStep] = []

    # Base case: H[X+Y] >= max(H[X], H[Y]) makes eta = 1/2 unconditional.
    if eta >= 0.5 - 1e-12:
        chk = check_statement_B(p, q, v, params)
        if not chk.passes:
            raise PipelineError(
                "base case failed: H[X+Y] < (H[X]+H[Y])/2 - eps, which is impossible"
            )
        steps.append(
            TraceStep(
                kind="BASE",
                added=v,
                dim_total=0,
                h_before=chk.values["h_total"],
                h_after=chk.values["h_total"],
                note={"base_case": True},
            )
        )
        return _b_certificate(p, q, v, eta, eps, ctx.mode, chk), tuple(steps)

    cap = max(16, math.ceil(4.0 / eps))
    for _ in range(cap + 1):
        chk = check_statement_B(p, q, v, params)
        if chk.passes:
            return _b_certificate(p, q, v, eta, eps, ctx.mode, chk), tuple(steps)
        pp, qp = pushforward_quotient(p, v), pushforward_quotient(q, v)
        h_before = shannon_entropy(pp) + shannon_entropy(qp)
        if ctx.mode == MODE_PAPER:
            eps0 = (2.0**-15) * eta * eta
        else:
            eps0 = max((0.5 - eta) / 2.0, 0.02)
        eta0 = min(0.5, eta + eps0)
        eps0 = min(eps0, eta0 - eta if eta0 > eta else eps0)
        eps0 = max(eps0, 1e-12)

        def sub_solver(a: Dist, b: Dist) -> SubspaceCertificate:
            return _solve_b(a, b, eta0, eps0, ctx)[0]

        ctx.l2g_counter += 1
        seed_label = (ctx.seed, ctx.l2g_counter)
        try:
            tr = inductive_step(
                pp,
                qp,
                eta0,
                eps0,
                sub_solver,
                mode=ctx.mode,
                rng=ctx.rng,
                seed_label=seed_label,
            )
            added = tr.subspace
            kind = tr.steps[-1].kind if tr.steps else "CASE1"
            note = {"inductive": [s.to_json() for s in tr.steps]}
        except (HypothesisViolationError, SearchFailureError, PipelineError) as exc:
            if ctx.mode == MODE_PAPER:
                raise
            added = greedy_extension(pp, qp, Subspace.zero(n), operator.add)
            if added is None:
                raise PipelineError(f"no fallback vector available after: {exc}") from exc
            kind = "FALLBACK"
            note = {"reason": str(exc)}
        v_new = subspace_sum(v, added)
        pp2, qp2 = pushforward_quotient(p, v_new), pushforward_quotient(q, v_new)
        h_after = shannon_entropy(pp2) + shannon_entropy(qp2)
        if h_after > h_before - IDENTITY_TOL and v_new.dim <= v.dim:
            raise PipelineError("pipeline stalled: no entropy decrement and no new dims")
        steps.append(
            TraceStep(
                kind=kind,
                added=added,
                dim_total=v_new.dim,
                h_before=h_before,
                h_after=h_after,
                note=note,
            )
        )
        v = v_new
    raise PipelineError(f"statement-B loop exceeded {cap} pushforward rounds")


def solve_B(
    p: Dist,
    q: Dist,
    eta: float,
    epsilon: float,
    *,
    mode: str = MODE_PRACTICAL,
    seed: int = 0,
) -> SolveResult:
    """Produce a verified statement-B subspace certificate for (eta, epsilon).

    Follows the inductive recursion on eta up to the 1/2 base case; the
    final certificate reports the achieved (eta, epsilon, dim V), never the
    analysis' worst-case size constant.
    """
    if p.n != q.n:
        raise DimensionMismatchError("ambient dimensions differ")
    if mode not in (MODE_PRACTICAL, MODE_PAPER):
        raise ValueError(f"unknown mode {mode!r}")
    StatementParams(eta=eta, epsilon=epsilon)
    ctx = _SolveContext(rng=np.random.default_rng(seed), mode=mode, seed=seed)
    cert, steps = _solve_b(p, q, eta, epsilon, ctx)
    chk = check_statement_B(
        p, q, cert.subspace,
        StatementParams(eta=eta, epsilon=epsilon, L=cert.parameters["L_achieved"] + IDENTITY_TOL),
    )
    chk.require("final statement-B")
    return SolveResult(certificate=cert, steps=steps, check=chk, mode=mode, seed=seed)


# ---------------------------------------------------------------------------
# Corollaries


def rich_cosets(
    p: Dist,
    q: Dist,
    epsilon: float,
    *,
    mode: str = MODE_PRACTICAL,
    seed: int = 0,
) -> SolveResult:
    """Find V with H[X|pi(X)], H[Y|pi(Y)] >= s - epsilon(H[X]+H[Y]).

    Runs solve_B at eta = eps = epsilon/2 and verifies the conditional
    entropy bounds through the fibring chain.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValidationError(f"epsilon must lie in (0, 1], got {epsilon}")
    inner = solve_B(p, q, epsilon / 2.0, epsilon / 2.0, mode=mode, seed=seed)
    v = inner.subspace
    chk = check_rich_cosets(p, q, v, epsilon)
    chk.require("rich-cosets")
    cert = SubspaceCertificate(
        criterion=CRITERION_RICH,
        search_mode="pipeline",
        subspace=v,
        parameters={"epsilon": epsilon, "mode": mode, "seed": seed},
        achieved={"dim": v.dim, **chk.values},
        inputs={"p": p.digest(), "q": q.digest()},
    )
    return SolveResult(certificate=cert, steps=inner.steps, check=chk, mode=mode, seed=seed)


def many_sums(
    dists: Sequence[Dist],
    epsilon: float,
    *,
    mode: str = MODE_PRACTICAL,
    seed: int = 0,
) -> SolveResult:
    """k-fold version: H[pi(X_1)+...+pi(X_k)] >= sum H[pi(X_i)] - eps sum H[X_i].

    Iteratively fixes the first prefix pair violating the delta-gap via
    rich_cosets (delta = eps/(k-1)), accumulating the lifted subspaces.
    """
    k = len(dists)
    if not 2 <= k <= 4:
        raise ValidationError(f"many_sums supports 2..4 variables, got {k}")
    n = dists[0].n
    if any(d.n != n for d in dists):
        raise DimensionMismatchError("ambient dimensions differ")
    if not 0.0 < epsilon <= 1.0:
        raise ValidationError(f"epsilon must lie in (0, 1], got {epsilon}")
    delta = epsilon / (k - 1)
    s_h = sum(shannon_entropy(d) for d in dists)
    w = Subspace.zero(n)
    steps: list[TraceStep] = []
    max_rounds = math.ceil(2.0 / delta) + 2
    for _ in range(max_rounds):
        pushed = [pushforward_quotient(d, w) for d in dists]
        violated = None
        for j in range(1, k):
            prefix = pushed[0]
            for extra in pushed[1:j]:
                prefix = xor_convolve(prefix, extra)
            lhs = shannon_entropy(xor_convolve(prefix, pushed[j]))
            gap_rhs = (
                shannon_entropy(prefix) + shannon_entropy(pushed[j]) - delta * s_h
            )
            if lhs < gap_rhs - IDENTITY_TOL:
                violated = (j, prefix, pushed[j])
                break
        if violated is None:
            break
        j, prefix, tail = violated
        sub = rich_cosets(prefix, tail, delta / 2.0, mode=mode, seed=seed)
        h_before = sum(shannon_entropy(d) for d in pushed)
        w = subspace_sum(w, sub.subspace)
        h_after = sum(
            shannon_entropy(pushforward_quotient(d, w)) for d in dists
        )
        steps.append(
            TraceStep(
                kind="SUMSET_FIX_1",
                added=sub.subspace,
                dim_total=w.dim,
                h_before=h_before,
                h_after=h_after,
                note={"prefix_length": j},
            )
        )
    else:
        raise PipelineError(f"many_sums did not stabilize within {max_rounds} rounds")

    chk = check_many_sums(dists, w, epsilon)
    chk.require("many_sums")
    cert = SubspaceCertificate(
        criterion=CRITERION_MANY,
        search_mode="pipeline",
        subspace=w,
        parameters={"epsilon": epsilon, "k": k, "delta": delta, "mode": mode, "seed": seed},
        achieved={"dim": w.dim, **chk.values},
        inputs={f"x{i}": d.digest() for i, d in enumerate(dists)},
    )
    return SolveResult(certificate=cert, steps=tuple(steps), check=chk, mode=mode, seed=seed)


def analyze_set(
    elements: Sequence[int],
    n: int,
    epsilon: float,
    *,
    mode: str = MODE_PRACTICAL,
    seed: int = 0,
) -> SolveResult:
    """Subspace certificate for a concrete set with moderate doubling.

    Measures eta from |A+A| = |A|^(2-eta), runs rich_cosets on X = Y = U_A,
    and verifies both E_{a in A} log2|A cap (V+a)| >= (eta - eps) log2|A| and
    the exact identity with H[U_A | pi_V(U_A)].
    """
    # rich_cosets runs at epsilon / 2 and accepts (0, 1].
    if not 0.0 < epsilon <= 2.0:
        raise ValidationError(f"epsilon must lie in (0, 2], got {epsilon}")
    members = sorted(set(elements))
    if not members:
        raise EmptySupportError("analyze_set requires a nonempty set")
    u_a = uniform_on(members, n)
    inner = rich_cosets(u_a, u_a, epsilon / 2.0, mode=mode, seed=seed)
    v = inner.subspace
    chk = check_theorem_11(members, u_a, v, epsilon)
    chk.require("Theorem 1.1")
    cert = SubspaceCertificate(
        criterion=CRITERION_T11,
        search_mode="pipeline",
        subspace=v,
        parameters={"epsilon": epsilon, "mode": mode, "seed": seed},
        achieved={"dim": v.dim, **chk.values},
        inputs={"set": [format(x, "x") for x in members], "n": n},
    )
    return SolveResult(certificate=cert, steps=inner.steps, check=chk, mode=mode, seed=seed)
