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
inequality.  Each check first holds its parameters to the criterion's range
(one ValidationError line), and each producer tests the same range before it
solves.  Each producer builds its certificate from the check it accepted
(oracle.certificate), and verify_bundle calls the same function and compares
every value.

The control flow is the paper's, but each step's eps0, case order, kappa and
zeta come from measured quantities, not from the analysis' schedule
eps0 = 2^-15 eta0^2: under that schedule the climb from eta to 1/2 exceeds
MAX_SOLVE_DEPTH unless eta > 0.4996.  The paper's c still decides the
inductive step's early exit.

The sumset lemma, the recursion on eta and the k-fold corollary all grow V
one subspace at a time until their criterion holds; one loop, _grow, does
the growing, the trace and the stall and round checks for all three.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .dist import Dist, FiberFamily, pushforward_quotient, uniform_on, xor_convolve
from .endgame import FiberGrid, _move_table, _MoveTable, cap_fibers, endgame_grid, fiber_grid
from .entropy import PairEntropies, _entropy, fibring_decompose, shannon_entropy
from .errors import (
    DimensionMismatchError,
    EmptySupportError,
    HypothesisViolationError,
    PipelineError,
    SearchFailureError,
    ValidationError,
)
from .families import doubling_stats, seeded_rng
from .gf2 import Subspace, coset_decompose, span, subspace_sum
from .oracle import (
    CRITERION_T11,
    CriterionCheck,
    StatementParams,
    SubspaceCertificate,
    _b_certificate,
    _b_check,
    _join_masks,
    _lattice_masks,
    _require_epsilon,
    _scan_tables,
    b_inequality,
    certificate,
    greedy_extension,
)
from .tolerances import IDENTITY_TOL, MAX_ENUM_N

CRITERION_RICH = "RICH_COSETS"
CRITERION_MANY = "MANY_SUMS"

# THEOREM_11's epsilon range is (0, 2]: analyze_set runs rich_cosets at epsilon / 2.
T11_EPSILON_MAX = 2.0

# A B-solver returns a statement-B certificate for (X, Y) at the inductive
# step's (eta0, eps0), and returns V = 0 whenever V = 0 satisfies statement B
# at (eta0, eps0).  _solve_b checks V = 0 first, and the exhaustive
# statement_b scan returns the first feasible subspace in (dim, lex) order, so
# both keep this contract; inductive_step relies on it to skip fiber grids.
BSolver = Callable[[Dist, Dist], SubspaceCertificate]


# ---------------------------------------------------------------------------
# Statement checks


def check_statement_B(
    p: Dist, q: Dist, v: Subspace, params: StatementParams
) -> CriterionCheck:
    """Statement B for V: the inequality and, when params.L is given, the size bound."""
    if params.epsilon is None:
        raise ValueError("statement B requires epsilon")
    if p.n != q.n or p.n != v.n:
        raise DimensionMismatchError("ambient dimensions differ")
    pushed = [pushforward_quotient(p, v), pushforward_quotient(q, v)]
    return _check_b_pushed(p, q, pushed, v.dim, params)


def _check_b_pushed(
    p: Dist, q: Dist, pushed: list[Dist], dim: int, params: StatementParams
) -> CriterionCheck:
    """check_statement_B for a V of dimension dim, given pi_V(X) and pi_V(Y)."""
    pp, qp = pushed
    h_total = shannon_entropy(p) + shannon_entropy(q)
    hp, hq = shannon_entropy(pp), shannon_entropy(qp)
    return _b_check(shannon_entropy(xor_convolve(pp, qp)), hp, hq, h_total, dim, params)


def check_statement_A(
    p: Dist, q: Dist, v: Subspace, params: StatementParams
) -> CriterionCheck:
    """Statement A for V: the hypothesis H[X+Y] <= (1-eta)(H[X]+H[Y]), the
    conclusion H[pi(X)]+H[pi(Y)] <= (1-c)(H[X]+H[Y]) and, when params.L is
    given, the size bound dim V <= L(H[X]+H[Y])."""
    if p.n != q.n or p.n != v.n:
        raise DimensionMismatchError("ambient dimensions differ")
    if params.c is None:
        raise ValueError("statement A requires c")
    h_total = shannon_entropy(p) + shannon_entropy(q)
    h_sum = shannon_entropy(xor_convolve(p, q))
    lhs = sum(shannon_entropy(pushforward_quotient(d, v)) for d in (p, q))
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
    H[X|pi(X)], H[Y|pi(Y)] >= s[X;Y] - eps(H[X]+H[Y]), for eps in (0, 1]."""
    _require_epsilon(epsilon)
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


def _many_sums_range(k: int, epsilon: float) -> None:
    """MANY_SUMS' parameters: k = 2..4 variables and epsilon in (0, 1]."""
    if not 2 <= k <= 4:
        raise ValidationError(f"many_sums supports 2..4 variables, got {k}")
    _require_epsilon(epsilon)


def check_many_sums(dists: Sequence[Dist], v: Subspace, epsilon: float) -> CriterionCheck:
    """k-fold sums: H[pi(X_1)+...+pi(X_k)] >= sum H[pi(X_i)] - eps sum H[X_i],
    for k = len(dists) in 2..4 and eps in (0, 1]."""
    _many_sums_range(len(dists), epsilon)
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
    equals H[U_A | pi_V(U_A)], for eps in (0, T11_EPSILON_MAX]."""
    _require_epsilon(epsilon, T11_EPSILON_MAX)
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


def _grow(
    dists: Sequence[Dist],
    rounds: int,
    what: str,
    next_step: Callable[[Subspace, list[Dist]], tuple[str, Subspace, dict] | None],
) -> tuple[Subspace, list[TraceStep]]:
    """Grow V from 0 until the criterion holds: next_step(V, pushed), with
    pushed every input's pushforward through V, returns None then, and
    otherwise the step's (kind, added subspace, note).  Returns V and the
    steps.

    Each step's h_before and h_after sum the inputs' projected entropies
    before and after it.  A step that adds no dimension raises PipelineError
    at once, since it would leave V and every float unchanged; the loop also
    raises once it has taken `rounds` steps.
    """
    v = Subspace.zero(dists[0].n)
    pushed = [pushforward_quotient(d, v) for d in dists]
    h = None
    steps: list[TraceStep] = []
    for _ in range(rounds):
        taken = next_step(v, pushed)
        if taken is None:
            return v, steps
        kind, added, note = taken
        v_new = subspace_sum(v, added)
        if v_new.dim == v.dim:
            raise PipelineError(f"{what} stalled: its {kind} step added no dimension")
        if h is None:
            h = sum(shannon_entropy(d) for d in pushed)
        pushed = [pushforward_quotient(d, v_new) for d in dists]
        h_after = sum(shannon_entropy(d) for d in pushed)
        steps.append(
            TraceStep(
                kind=kind,
                added=added,
                dim_total=v_new.dim,
                h_before=h,
                h_after=h_after,
                note=note,
            )
        )
        v, h = v_new, h_after
    raise PipelineError(f"{what} did not terminate within {rounds} rounds")


# ---------------------------------------------------------------------------
# Lemma: make the two derived sumset pairs non-doubling


def make_sumsets_not_double(
    p: Dist, q: Dist, eta0: float, eps0: float, b_solver: BSolver
) -> tuple[Subspace, list[TraceStep], _MoveTable]:
    """Find V so both derived sumset pairs obey the eta0-ratio up to 4 eps0.

    Each V is measured by one move table of (pi_V(X), pi_V(Y)): a pair
    passes when its sumset move's mass is at most eta0 times its entropy sum
    + 4 eps0 (H[X]+H[Y]).  V grows by the B-solver's subspace for the first
    pair that fails, within ceil(2/eps0) + 1 applications; a solver subspace
    already inside V raises PipelineError.  Returns V, the steps and the
    final V's move table.
    """
    slack = 4.0 * eps0 * (shannon_entropy(p) + shannon_entropy(q))
    table = None

    def fix(v: Subspace, pushed: list[Dist]) -> tuple[str, Subspace, dict] | None:
        nonlocal table
        table = _move_table(*pushed)
        for kind, move, pair in (
            ("SUMSET_FIX_1", "sumset_1", (table.conv_pp, table.conv_qq)),
            ("SUMSET_FIX_2", "sumset_2", (table.conv_pq, table.conv_pq)),
        ):
            mass, entropy_sum = table.moves[move]
            if mass > eta0 * entropy_sum + slack + IDENTITY_TOL:
                return kind, b_solver(*pair).subspace, {}
        return None

    v, steps = _grow((p, q), math.ceil(2.0 / eps0) + 1, "sumset fixing", fix)
    return v, steps, table


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


# The dict DP's transition budget above MAX_ENUM_N, and the Monte-Carlo path
# count that takes over past it.
EXACT_DP_CAP = 200_000
MC_SAMPLES = 800


def _h_expectation_sequence(
    grid: FiberGrid, tau: float, rng: np.random.Generator
) -> tuple[list[float], bool, int]:
    """h_j = E_{u, w^(1..j)} H[pi_{V(u,w1)+...+V(u,wj)}(X_u)] for j = 0..k+1,
    where k is the first j with h_j - h_{j+1} <= tau h_0 (the pigeonhole),
    whether the h_j are exact, and the Monte-Carlo path count (0 if exact).

    h is nonincreasing and h_0 >= 0, so some j <= ceil(1/tau) stops, and
    computing h level by level up to it gives the same k as the whole
    sequence.  h_0 is sum_u Pr[u] H[X_u].  At n <= MAX_ENUM_N the exact
    lattice DP (_lattice_h_sequence) serves every grid and draws nothing from
    rng; above, the dict DP (_dict_h_sequence) does, with its cap and
    Monte-Carlo fallback.
    """
    if grid.fibers_x.n <= MAX_ENUM_N:
        return _lattice_h_sequence(grid, tau), True, 0
    return _dict_h_sequence(grid, tau, rng)


def _h_zero(grid: FiberGrid) -> float:
    fibers_x = grid.fibers_x
    return float(sum(w * _entropy(row) for w, row in zip(fibers_x.weights, fibers_x.masses)))


def _stops(h: list[float], tau: float) -> bool:
    return h[-2] - h[-1] <= tau * h[0] + IDENTITY_TOL


def _levels(tau: float) -> int:
    """h_1 .. h_{ceil(1/tau)+1}: the last level tests j = ceil(1/tau)."""
    return math.ceil(1.0 / tau) + 1


def _lattice_h_sequence(grid: FiberGrid, tau: float) -> list[float]:
    """The exact h_0 .. h_{k+1} at n <= MAX_ENUM_N, over lattice indices.

    A level is one kx x S array, Pr[u, state] with the states in
    _scan_tables order, and one bincount over (u, join(state, V(u, w))),
    weighted by Pr[u, state] Pr[w].  A join ORs a state's element mask with
    its XOR-translates by each basis vector of V(u, w) and looks the result
    up in the sorted masks.  h_j is read off the grid's lattice scans of
    the X_u, so no pushforward or span is computed.  The join arrays live in
    this call only.
    """
    fibers_x, fibers_y = grid.fibers_x, grid.fibers_y
    lat_x, picks = grid.lattice
    n = fibers_x.n
    masks, order = _lattice_masks(n)
    sorted_masks = masks[order]
    kx, size = lat_x.shape
    # Each distinct V(u, w) as a column of basis vectors, zero-padded: a zero
    # vector's translate is the state itself.
    distinct, slot = np.unique(picks, return_inverse=True)
    slot = slot.reshape(picks.shape)
    subs = _scan_tables(n)[0]
    depth = max(subs[i].dim for i in distinct.tolist())
    basis = np.zeros((depth, len(distinct)), dtype=np.uint64)
    for j, i in enumerate(distinct.tolist()):
        basis[: subs[i].dim, j] = subs[i].basis

    probs = np.zeros((kx, size))
    probs[:, 0] = 1.0  # all_subspaces starts with V = 0
    h = [_h_zero(grid)]
    for _ in range(_levels(tau)):
        u, state = np.nonzero(probs)
        columns = slot[u]
        joined = _join_masks(
            np.broadcast_to(masks[state][:, None], columns.shape),
            [vectors[columns] for vectors in basis],
            n,
        )
        target = order[np.searchsorted(sorted_masks, joined)]
        weights = probs[u, state][:, None] * fibers_y.weights
        probs = np.bincount(
            (u[:, None] * size + target).ravel(), weights.ravel(), minlength=kx * size
        ).reshape(kx, size)
        h.append(float(fibers_x.weights @ (probs * lat_x).sum(axis=1)))
        if _stops(h, tau):
            return h
    raise PipelineError("pigeonhole failed to select k; expectations inconsistent")


def _dict_h_sequence(
    grid: FiberGrid, tau: float, rng: np.random.Generator
) -> tuple[list[float], bool, int]:
    """_h_expectation_sequence by dynamic programming over canonical bases,
    the path above MAX_ENUM_N.

    Exact dynamic programming over the reachable subspace-sum lattice draws
    nothing from rng.  If its transition count passes EXACT_DP_CAP, a
    recorded Monte-Carlo estimate takes over: MC_SAMPLES paths, advanced one
    level at a time and stopped by the same rule.
    """
    fibers_x, fibers_y, v_table = grid.fibers_x, grid.fibers_y, grid.v_table
    n = fibers_x.n
    xs = [Dist(n, row) for row in fibers_x.masses]
    zero = Subspace.zero(n)
    levels = _levels(tau)
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
            h_cache[key] = shannon_entropy(pushforward_quotient(xs[ui], spaces[basis]))
        return h_cache[key]

    # Per u: the basis of V(u, w) and Pr[w], over w.
    rows = [
        [(v_table[(u, w)].basis, qw) for w, qw in zip(fibers_y.labels.tolist(), fibers_y.weights)]
        for u in fibers_x.labels.tolist()
    ]

    h = [_h_zero(grid)]
    transitions = 0
    states_by_u: list[dict[tuple[int, ...], float]] = [
        {zero.basis: 1.0} for _ in fibers_x.labels
    ]
    for _ in range(levels):
        transitions += sum(len(states) for states in states_by_u) * len(fibers_y.labels)
        if transitions > EXACT_DP_CAP:
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
        if _stops(h, tau):
            return h, True, 0
    else:
        raise PipelineError("pigeonhole failed to select k; expectations inconsistent")

    # Monte-Carlo fallback: every path advances one level per round of draws,
    # each round's indices from one rng.random call on the cumulative weights.
    def draw(weights: np.ndarray) -> np.ndarray:
        cum = np.cumsum(weights)
        return np.searchsorted(cum[:-1], rng.random(MC_SAMPLES) * cum[-1], side="right")

    paths = draw(fibers_x.weights).tolist()
    bases = [zero.basis] * MC_SAMPLES
    h = [sum(push_entropy(ui, zero.basis) for ui in paths) / MC_SAMPLES]
    for _ in range(levels):
        for i, (ui, wi) in enumerate(zip(paths, draw(fibers_y.weights).tolist())):
            bases[i] = join(bases[i], rows[ui][wi][0])
        h.append(sum(push_entropy(ui, b) for ui, b in zip(paths, bases)) / MC_SAMPLES)
        if _stops(h, tau):
            return h, False, MC_SAMPLES
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
    for attempt in range(1, max_attempts + 1):
        u = int(fibers_x.labels[rng.choice(len(fibers_x.labels), p=fibers_x.weights)])
        v_bar = Subspace.zero(n)
        for _ in range(k):
            w = int(fibers_y.labels[rng.choice(len(fibers_y.labels), p=fibers_y.weights)])
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
    _, _, _, rows, cols = cap_fibers(fam_x, fam_y)
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
    rng: np.random.Generator | None = None,
    seed_label: tuple[int, int] = (0, 0),
) -> PipelineTrace:
    """One inductive step: from a B-solver at (eta0, eps0) to a statement-A
    witness at eta0 - eps0.

    Preprocesses with the sumset lemma, then splits on fiber doubling
    (Case 1: same-letter fibers, Case 2: crossed fibers, Case 3: endgame)
    and glues the case's fiber grid with local_to_global.  The lemma's last
    move table is the step's one measurement of its pushed pair.  Every case
    builds its grid with fiber_grid, capped at FIBER_CAP pairs; the endgame
    case calls endgame_grid on the move table, which checks the endgame
    hypotheses and builds the endgame's budgeted grid, never its Z-system
    bookkeeping.  Case 1 and Case 2 are tried in order of measured margin,
    then the endgame; zeta is the grid's measured local interaction over
    H[pi(X)]+H[pi(Y)].  The paper's c only decides the early exit after the
    sumset lemma.  A V with measured c <= IDENTITY_TOL raises PipelineError;
    statement A then holds at the measured c and L = dim V/(H[X]+H[Y]).

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
    h_in = shannon_entropy(p) + shannon_entropy(q)
    s_in = h_in - shannon_entropy(xor_convolve(p, q))
    if s_in < (eta0 - eps0) * h_in - IDENTITY_TOL:
        raise HypothesisViolationError(
            f"s[X;Y] = {s_in:.6g} below (eta0-eps0)(H[X]+H[Y]) = "
            f"{(eta0 - eps0) * h_in:.6g}",
            gaps=[("doubling_floor", (eta0 - eps0) * h_in, s_in)],
        )

    v0, steps, move_table = make_sumsets_not_double(p, q, eta0, eps0, b_solver)
    h0 = move_table.h_x + move_table.h_y
    c_paper = min(eps0, eta0**2 / 32.0)

    case_note: dict = {}
    result = None
    if h0 <= (1.0 - c_paper) * h_in + IDENTITY_TOL:
        # The move table measured the pair pushed through v0 = v_final.
        v_final, h1 = v0, h0
        case_note["early_exit"] = True
    else:
        # The lemma's last move table: its fiber moves pick the case, and its
        # sum-fiber families are the Case 1, Case 2 and endgame grids.
        moves = move_table.moves
        m1 = moves["fiber_1"][0] - eta0 * moves["fiber_1"][1]
        m2 = moves["fiber_2"][0] - eta0 * moves["fiber_2"][1]
        # Try the fiber cases by measured margin and fall through to the
        # endgame if the per-fiber B-subspaces leave no interaction for the
        # gluing lemma to exploit.
        fiber_cases = sorted([(m1, "CASE1"), (m2, "CASE2")], key=lambda t: -t[0])
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
            else:
                # The endgame measures kappa from the step's move table.
                s0 = move_table.s_xy
                eta_e = min(max(s0 / h0 if h0 > 0 else 0.0, 1e-9), 0.5)
                try:
                    kappa, _, grid, _ = endgame_grid(move_table, eta_e, None)
                except HypothesisViolationError as exc:
                    failures.append(f"ENDGAME hypotheses: {exc}")
                    continue
                case_note.update({"eta_endgame": eta_e, "kappa": kappa})

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
    return PipelineTrace(steps=tuple(steps), subspace=v_final)


# ---------------------------------------------------------------------------
# Theorem: statement B via recursion on eta


# Caps on one solve_B call's recursion depth and on its sub-solver calls.
MAX_SOLVE_DEPTH = 48
MAX_SOLVE_INVOCATIONS = 30_000


@dataclass
class _SolveContext:
    rng: np.random.Generator
    seed: int
    memo: dict = field(default_factory=dict)
    depth: int = 0
    invocations: int = 0
    l2g_counter: int = 0


@dataclass(frozen=True)
class SolveResult:
    certificate: SubspaceCertificate
    steps: tuple[TraceStep, ...]
    seed: int

    @property
    def subspace(self) -> Subspace:
        return self.certificate.subspace

    @property
    def trivial(self) -> bool:
        """V = 0 or V = F_2^n: a certificate that shows no structure."""
        return self.subspace.dim in (0, self.subspace.n)

    def to_json(self) -> dict:
        return {
            "certificate": self.certificate.to_json(),
            "steps": [s.to_json() for s in self.steps],
            "trivial": self.trivial,
            "seed": self.seed,
        }


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
    params = StatementParams(eta=eta, epsilon=eps)

    # Base case: H[X+Y] >= max(H[X], H[Y]) makes eta = 1/2 unconditional.
    if eta >= 0.5 - 1e-12:
        v = Subspace.zero(p.n)
        chk = check_statement_B(p, q, v, params)
        if not chk.passes:
            raise PipelineError(
                "base case failed: H[X+Y] < (H[X]+H[Y])/2 - eps, which is impossible"
            )
        base = TraceStep(
            kind="BASE",
            added=v,
            dim_total=0,
            h_before=chk.values["h_total"],
            h_after=chk.values["h_total"],
            note={"base_case": True},
        )
        return _b_certificate("pipeline", v, params, chk), (base,)

    eps0 = max((0.5 - eta) / 2.0, 0.02)
    eta0 = min(0.5, eta + eps0)
    eps0 = min(eps0, eta0 - eta)

    def sub_solver(a: Dist, b: Dist) -> SubspaceCertificate:
        return _solve_b(a, b, eta0, eps0, ctx)[0]

    passed: list[CriterionCheck] = []

    def step(v: Subspace, pushed: list[Dist]) -> tuple[str, Subspace, dict] | None:
        chk = _check_b_pushed(p, q, pushed, v.dim, params)
        if chk.passes:
            passed.append(chk)
            return None
        pp, qp = pushed
        ctx.l2g_counter += 1
        try:
            tr = inductive_step(
                pp,
                qp,
                eta0,
                eps0,
                sub_solver,
                rng=ctx.rng,
                seed_label=(ctx.seed, ctx.l2g_counter),
            )
        except (HypothesisViolationError, SearchFailureError, PipelineError) as exc:
            added = greedy_extension(pp, qp, Subspace.zero(p.n), np.add)
            if added is None:
                raise PipelineError(f"no fallback vector available after: {exc}") from exc
            return "FALLBACK", added, {"reason": str(exc)}
        # Only the early exit records no step, and without a SUMSET_FIX step
        # it needs H[X] + H[Y] = 0, where V = 0 has already passed.
        assert tr.steps, "inductive step recorded no step"
        return tr.steps[-1].kind, tr.subspace, {"inductive": [s.to_json() for s in tr.steps]}

    rounds = max(16, math.ceil(4.0 / eps)) + 1
    v, steps = _grow((p, q), rounds, "the statement-B recursion", step)
    return _b_certificate("pipeline", v, params, passed[0]), tuple(steps)


def solve_B(
    p: Dist,
    q: Dist,
    eta: float,
    epsilon: float,
    *,
    seed: int = 0,
) -> SolveResult:
    """Produce a verified statement-B subspace certificate for (eta, epsilon).

    Follows the inductive recursion on eta up to the 1/2 base case; the
    final certificate reports the achieved (eta, epsilon, dim V), never the
    analysis' worst-case size constant.  The certificate is built from the
    statement-B check that accepted V, so its achieved values are that
    check's; with L = L_achieved its size bound holds by definition.
    """
    if p.n != q.n:
        raise DimensionMismatchError("ambient dimensions differ")
    StatementParams(eta=eta, epsilon=epsilon)
    ctx = _SolveContext(rng=seeded_rng(seed), seed=seed)
    cert, steps = _solve_b(p, q, eta, epsilon, ctx)
    return SolveResult(certificate=cert, steps=steps, seed=seed)


# ---------------------------------------------------------------------------
# Corollaries


def rich_cosets(
    p: Dist,
    q: Dist,
    epsilon: float,
    *,
    seed: int = 0,
) -> SolveResult:
    """Find V with H[X|pi(X)], H[Y|pi(Y)] >= s - epsilon(H[X]+H[Y]).

    Runs solve_B at eta = eps = epsilon/2 and verifies the conditional
    entropy bounds through the fibring chain.
    """
    _require_epsilon(epsilon)
    inner = solve_B(p, q, epsilon / 2.0, epsilon / 2.0, seed=seed)
    v = inner.subspace
    chk = check_rich_cosets(p, q, v, epsilon)
    chk.require("rich-cosets")
    cert = certificate(CRITERION_RICH, "pipeline", v, {"epsilon": epsilon}, chk)
    return SolveResult(certificate=cert, steps=inner.steps, seed=seed)


def many_sums(
    dists: Sequence[Dist],
    epsilon: float,
    *,
    seed: int = 0,
) -> SolveResult:
    """k-fold version: H[pi(X_1)+...+pi(X_k)] >= sum H[pi(X_i)] - eps sum H[X_i].

    Grows V by rich_cosets' subspace for the first prefix pair
    (pi(X_1)+...+pi(X_j), pi(X_{j+1})) that violates the delta-gap
    (delta = eps/(k-1)), within ceil(2/delta) + 2 rounds; a subspace already
    inside V raises PipelineError.
    """
    k = len(dists)
    _many_sums_range(k, epsilon)
    n = dists[0].n
    if any(d.n != n for d in dists):
        raise DimensionMismatchError("ambient dimensions differ")
    # Checked here too: the result records the seed even when no prefix pair
    # needs a rich_cosets call.
    seeded_rng(seed)
    delta = epsilon / (k - 1)
    s_h = sum(shannon_entropy(d) for d in dists)

    def fix(w: Subspace, pushed: list[Dist]) -> tuple[str, Subspace, dict] | None:
        prefix = pushed[0]
        for j in range(1, k):
            total = xor_convolve(prefix, pushed[j])
            gap_rhs = (
                shannon_entropy(prefix) + shannon_entropy(pushed[j]) - delta * s_h
            )
            if shannon_entropy(total) < gap_rhs - IDENTITY_TOL:
                sub = rich_cosets(prefix, pushed[j], delta / 2.0, seed=seed)
                return "SUMSET_FIX_1", sub.subspace, {"prefix_length": j}
            prefix = total
        return None

    w, steps = _grow(dists, math.ceil(2.0 / delta) + 2, "many_sums", fix)
    chk = check_many_sums(dists, w, epsilon)
    chk.require("many_sums")
    cert = certificate(CRITERION_MANY, "pipeline", w, {"epsilon": epsilon}, chk)
    return SolveResult(certificate=cert, steps=tuple(steps), seed=seed)


def analyze_set(
    elements: Sequence[int],
    n: int,
    epsilon: float,
    *,
    seed: int = 0,
) -> SolveResult:
    """Subspace certificate for a concrete set with moderate doubling.

    Measures eta from |A+A| = |A|^(2-eta), runs rich_cosets on X = Y = U_A,
    and verifies both E_{a in A} log2|A cap (V+a)| >= (eta - eps) log2|A| and
    the exact identity with H[U_A | pi_V(U_A)].
    """
    _require_epsilon(epsilon, T11_EPSILON_MAX)
    members = sorted(set(elements))
    if not members:
        raise EmptySupportError("analyze_set requires a nonempty set")
    u_a = uniform_on(members, n)
    inner = rich_cosets(u_a, u_a, epsilon / 2.0, seed=seed)
    v = inner.subspace
    chk = check_theorem_11(members, u_a, v, epsilon)
    chk.require("Theorem 1.1")
    cert = certificate(CRITERION_T11, "pipeline", v, {"epsilon": epsilon}, chk)
    return SolveResult(certificate=cert, steps=inner.steps, seed=seed)
