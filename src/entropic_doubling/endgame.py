"""The endgame: forcing fiber variables into small subspaces.

Given independent X, Y whose four doubling moves (two sumsets, two fiber
systems) all fail to beat the eta-ratio by more than kappa, the conditional
mutual informations I[Z_1:Z_3|S] and I[Z_1:Z_2|S] of the Z-system

    Z_1 = X_1+Y_1,  Z_2 = X_2+Y_1,  Z_3 = X_1+X_2,  S = X_1+X_2+Y_1+Y_2

cancel down to at most 4*kappa, and the fibers X_u = (X_1 | X_1+Y_2 = u),
Y_w = (Y_1 | Y_1+X_2 = w) admit per-pair subspaces V(u,w) within the
7(H[X_u]+H[Y_w]) size budget whose expected projected entropy is <= 480*kappa.
Everything here is verified numerically, never trusted.

A FiberGrid is what each case of the inductive step (Case 1, Case 2 and this
endgame) hands to the local-to-global lemma; fiber_grid builds each one that
the step tries.  The step skips a Case 1 or Case 2 grid whose every capped
fiber pair (cap_fibers) meets statement B at V = 0: the B-solver would return
V(u, w) = 0 for each, and such a grid has no local interaction.  The
inductive step's endgame case runs only the hypothesis check on its own move
table and the budgeted per-pair grid; the Z-system bookkeeping and the
480*kappa table are endgame()'s, for transcripts and bundles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .dist import Dist, FiberFamily, JointDist, sum_fibers, xor_convolve
from .entropy import (
    PairEntropies,
    conditional_doubling_mass,
    conditional_entropy,
    conditional_mutual_information,
    doubling_mass,
    fiber_interactions,
    pair_entropies,
    shannon_entropy,
)
from .errors import (
    CapacityError,
    DimensionMismatchError,
    HypothesisViolationError,
    ValidationError,
)
from .gf2 import Subspace
from .oracle import (
    OBJECTIVE_PROJECTED_ENTROPY,
    PFR_SIZE_FACTOR,
    SubspaceCertificate,
    _masked_argmin,
    _scan_tables,
    lattice_entropies,
)
from .tolerances import FIBER_CAP, IDENTITY_TOL, MAX_ENUM_N, tolerances_dict


def z_system_joints(p: Dist, q: Dist) -> tuple[JointDist, JointDist]:
    """Exact joints of (Z1, Z2, S) and (Z1, Z3, S) for X ~ p, Y ~ q.

    Built by summing over Y_1 directly (O(2^{4n}) time, O(2^{3n}) memory),
    which matches the product-then-map route but never materializes the
    four-block table.
    """
    if p.n != q.n:
        raise DimensionMismatchError("ambient dimensions differ")
    n = p.n
    size = 1 << n
    idx = np.arange(size)
    xor_grid = idx[:, None] ^ idx[None, :]
    px, py = p.mass, q.mass
    j12 = np.zeros((size, size, size))
    j13 = np.zeros((size, size, size))
    for y1 in range(size):
        a = px[idx ^ y1]
        w = py[y1]
        if w == 0.0:
            continue
        # (Z1, Z2, S): x1 = z1^y1, x2 = z2^y1, y2 = s^z1^z2^y1.
        k12 = py[xor_grid ^ y1]  # k12[v, s] = q(s ^ v ^ y1) with v = z1^z2
        j12 += w * a[:, None, None] * a[None, :, None] * k12[xor_grid, :]
        # (Z1, Z3, S): x1 = z1^y1, x2 = z3^z1^y1, y2 = s^z3^y1.
        b_grid = px[xor_grid ^ y1]  # b_grid[z1, z3] = p(z3 ^ z1 ^ y1)
        k13 = py[xor_grid ^ y1]  # k13[z3, s] = q(s ^ z3 ^ y1)
        j13 += w * a[:, None, None] * b_grid[:, :, None] * k13[None, :, :]
    return JointDist((n, n, n), j12), JointDist((n, n, n), j13)


@dataclass(frozen=True)
class EndgameTranscript:
    """Measured witnesses of the endgame bookkeeping, all in bits."""

    eta: float
    kappa: float
    s_xy: float
    h_total: float
    hypothesis_gaps: dict
    i_z1_z3: float
    i_z1_z2: float
    h_z_given_s: tuple[float, float, float]
    mi_bound_holds: bool
    z_entropy_gap_holds: bool
    table: tuple
    grid: FiberGrid = field(compare=False, repr=False)
    expectation: float
    expectation_bound: float
    expectation_holds: bool
    tolerances: dict = field(default_factory=tolerances_dict)

    @property
    def fiber_cap(self) -> dict:
        return self.grid.cap

    def to_json(self) -> dict:
        return {
            "eta": self.eta,
            "kappa": self.kappa,
            "s_xy": self.s_xy,
            "h_total": self.h_total,
            "hypothesis_gaps": self.hypothesis_gaps,
            "i_z1_z3": self.i_z1_z3,
            "i_z1_z2": self.i_z1_z2,
            "h_z_given_s": list(self.h_z_given_s),
            "mi_bound_holds": self.mi_bound_holds,
            "z_entropy_gap_holds": self.z_entropy_gap_holds,
            "table": [
                {
                    "u": u,
                    "w": w,
                    "weight": weight,
                    "subspace": v.to_json(),
                    "h_fiber_x": hx,
                    "h_fiber_y": hy,
                    "h_proj_x": px,
                    "h_proj_y": py,
                }
                for (u, w, weight, v, hx, hy, px, py) in self.table
            ],
            "expectation": self.expectation,
            "expectation_bound": self.expectation_bound,
            "expectation_holds": self.expectation_holds,
            "fiber_cap": self.fiber_cap,
            "tolerances": self.tolerances,
        }


@dataclass(frozen=True, eq=False)
class _MoveTable:
    """The four doubling moves of (X, Y), name -> (mass, paired entropy sum),
    with the sum-fiber families they were measured on: X_1 | X_1+X_2 (pp),
    Y_1 | Y_1+Y_2 (qq), X_1 | X_1+Y_2 (pq) and Y_1 | Y_1+X_2 (qp), and the
    pair entropies of the pp x qq and pq x qp grids that fiber_1 and fiber_2
    reduce.  Case 1 reads the pp/qq grid, Case 2 and the endgame the pq/qp grid."""

    moves: dict
    fib_pp: FiberFamily
    fib_qq: FiberFamily
    fib_pq: FiberFamily
    fib_qp: FiberFamily
    entropies_1: PairEntropies
    entropies_2: PairEntropies


def _move_table(p: Dist, q: Dist) -> _MoveTable:
    conv_pp = xor_convolve(p, p)
    conv_qq = xor_convolve(q, q)
    conv_pq = xor_convolve(p, q)
    fib_pp = sum_fibers(p, p)
    fib_qq = sum_fibers(q, q)
    fib_pq = sum_fibers(p, q)
    fib_qp = sum_fibers(q, p)
    entropies_1 = pair_entropies(fib_pp, fib_qq)
    entropies_2 = pair_entropies(fib_pq, fib_qp)
    moves = {
        "sumset_1": (
            doubling_mass(conv_pp, conv_qq),
            shannon_entropy(conv_pp) + shannon_entropy(conv_qq),
        ),
        "sumset_2": (
            doubling_mass(conv_pq, conv_pq),
            2.0 * shannon_entropy(conv_pq),
        ),
        "fiber_1": (
            conditional_doubling_mass(fib_pp, fib_qq, entropies_1),
            fib_pp.conditional_entropy() + fib_qq.conditional_entropy(),
        ),
        "fiber_2": (
            conditional_doubling_mass(fib_pq, fib_qp, entropies_2),
            fib_pq.conditional_entropy() + fib_qp.conditional_entropy(),
        ),
    }
    return _MoveTable(moves, fib_pp, fib_qq, fib_pq, fib_qp, entropies_1, entropies_2)


def endgame_move_quantities(p: Dist, q: Dist) -> dict:
    """The four doubling moves' masses and their paired entropy sums."""
    return _move_table(p, q).moves


def _kappa_from_moves(moves: dict, eta: float) -> float:
    gap = max(lhs - eta * pair for lhs, pair in moves.values())
    return max(gap, 0.0) + 1e-12


@dataclass(frozen=True, eq=False)
class FiberGrid:
    """The (u, w) grid that one inductive-step case feeds to the
    local-to-global lemma: capped fiber families X_u and Y_w, the per-pair
    subspaces V(u, w), and the fiber-cap note."""

    fibers_x: FiberFamily
    fibers_y: FiberFamily
    v_table: dict[tuple[int, int], Subspace]
    cap: dict = field(default_factory=dict)

    @cached_property
    def local_interaction(self) -> tuple[float, float]:
        """E_{u,w} s[X_u|pi(X_u); Y_w|pi(Y_w)] and E_{u,w} dim V(u,w), measured once,
        with every s-term from one batched fiber_interactions call.  A pair
        with V(u, w) = 0 adds nothing: each fiber of pi is then a point, so its
        term H[X_u] + H[Y_w] - H[X_u+Y_w, X_u] is exactly 0."""
        pairs = [
            (wu * ww, xu, yw, v)
            for wu, u, xu in zip(self.fibers_x.weights, self.fibers_x.labels, self.fibers_x.dists)
            for ww, w, yw in zip(self.fibers_y.weights, self.fibers_y.labels, self.fibers_y.dists)
            if (v := self.v_table[(u, w)]).dim
        ]
        s_fiber = fiber_interactions([(xu, yw, v) for _, xu, yw, v in pairs])
        hyp = 0.0
        e_dim = 0.0
        for (weight, _, _, v), s in zip(pairs, s_fiber.tolist()):
            hyp += weight * s
            e_dim += weight * v.dim
        return hyp, e_dim


def _heaviest(fam: FiberFamily, k: int) -> tuple[FiberFamily, float]:
    """The k heaviest fibers in label order, renormalized, and their total weight."""
    order = np.argsort(-fam.weights)[:k]
    coverage = float(fam.weights[order].sum())
    order = np.sort(order)
    weights = fam.weights[order]
    kept = FiberFamily(
        tuple(fam.labels[i] for i in order),
        weights / weights.sum(),
        tuple(fam.dists[i] for i in order),
    )
    return kept, coverage


class PairScan(NamedTuple):
    """One endgame pair's transcript row: V(u, w) and its four entropies."""

    subspace: Subspace
    h_x: float
    h_y: float
    h_proj_x: float
    h_proj_y: float


def cap_fibers(
    fam_x: FiberFamily, fam_y: FiberFamily, cap: int = FIBER_CAP
) -> tuple[FiberFamily, FiberFamily, dict]:
    """The families a grid over fam_x x fam_y keeps, and its cap note.

    A grid over more than `cap` pairs keeps each family's floor(sqrt(cap))
    heaviest fibers and records their coverage in the note.
    """
    kx, ky = len(fam_x.labels), len(fam_y.labels)
    if kx * ky <= cap:
        return fam_x, fam_y, {"applied": False, "cap": cap}
    side = max(1, int(np.sqrt(cap)))
    fam_x, coverage_x = _heaviest(fam_x, min(side, kx))
    fam_y, coverage_y = _heaviest(fam_y, min(side, ky))
    note = {
        "applied": True,
        "cap": cap,
        "kept_u": len(fam_x.labels),
        "kept_w": len(fam_y.labels),
        "coverage_u": coverage_x,
        "coverage_w": coverage_y,
    }
    return fam_x, fam_y, note


def fiber_grid(
    fam_x: FiberFamily,
    fam_y: FiberFamily,
    solver: Callable[[Dist, Dist], SubspaceCertificate | PairScan],
    cap: int = FIBER_CAP,
) -> FiberGrid:
    """Fibers X_u of fam_x and Y_w of fam_y with V(u, w) = solver(X_u, Y_w).subspace,
    over the families cap_fibers keeps.  The solver runs u-major, in label order.
    """
    fam_x, fam_y, note = cap_fibers(fam_x, fam_y, cap)
    v_table = {
        (u, w): solver(xu, yw).subspace
        for u, xu in zip(fam_x.labels, fam_x.dists)
        for w, yw in zip(fam_y.labels, fam_y.dists)
    }
    return FiberGrid(fam_x, fam_y, v_table, note)


def _check_endgame_inputs(n: int, eta: float, kappa: float | None) -> None:
    if n > MAX_ENUM_N:
        raise CapacityError(
            f"endgame needs the exhaustive subspace oracle, capped at n <= {MAX_ENUM_N}"
        )
    if not 0.0 < eta <= 0.5:
        raise ValidationError(f"eta must lie in (0, 1/2], got {eta}")
    # An infinite kappa would make every hypothesis and bound hold vacuously.
    if kappa is not None and not 0.0 <= kappa < float("inf"):
        raise ValidationError(f"kappa must be finite and nonnegative, got {kappa}")


def _endgame_hypotheses(
    eta: float, kappa: float | None, h_total: float, s_xy: float, moves: dict
) -> tuple[float, dict]:
    """Check s[X;Y] >= eta(H[X]+H[Y]) and the four move inequalities on a
    measured move table.  Without a kappa, the smallest one the moves allow is
    used.  Returns kappa and each move's gap; raises HypothesisViolationError
    naming every failed inequality."""
    gaps: list[tuple[str, float, float]] = []
    if s_xy < eta * h_total - IDENTITY_TOL:
        gaps.append(("interaction_floor", eta * h_total, s_xy))
    if kappa is None:
        kappa = _kappa_from_moves(moves, eta)
    hypothesis_gaps = {}
    for name, (lhs, pair) in moves.items():
        rhs = eta * pair + kappa
        hypothesis_gaps[name] = {"lhs": lhs, "rhs": rhs, "gap": lhs - rhs}
        if lhs > rhs + IDENTITY_TOL:
            gaps.append((name, lhs, rhs))
    if gaps:
        raise HypothesisViolationError(
            "endgame hypotheses fail: "
            + "; ".join(f"{name}: {lhs:.6g} > {rhs:.6g}" for name, lhs, rhs in gaps),
            gaps=gaps,
        )
    return kappa, hypothesis_gaps


def _endgame_grid(
    move_table: _MoveTable, fiber_cap: int
) -> tuple[FiberGrid, dict[tuple[Dist, Dist], PairScan]]:
    """The grid of the fibers X_u, Y_w with V(u, w) the minimizer of
    H[pi(X_u)]+H[pi(Y_w)] under the PFR size budget, and each pair's row.

    Each fiber's entropy and lattice scan are computed once, for every pair in
    its row or column.  The pick is exhaustive_best_subspace's projected-entropy
    objective at entropy_budget = PFR_SIZE_FACTOR (H[X_u] + H[Y_w]): the same
    float expressions and the same tie-break, so the same V(u, w)."""
    scanned: dict[Dist, tuple[float, np.ndarray]] = {}
    rows: dict[tuple[Dist, Dist], PairScan] = {}

    def scan(d: Dist) -> tuple[float, np.ndarray]:
        if d not in scanned:
            scanned[d] = (shannon_entropy(d), lattice_entropies(d))
        return scanned[d]

    def budgeted_pick(xu: Dist, yw: Dist) -> PairScan:
        (hx, lat_x), (hy, lat_y) = scan(xu), scan(yw)
        subs, _, _, dims = _scan_tables(xu.n)
        feasible = dims <= PFR_SIZE_FACTOR * (hx + hy) + IDENTITY_TOL
        idx = _masked_argmin(lat_x + lat_y, feasible, OBJECTIVE_PROJECTED_ENTROPY)
        rows[(xu, yw)] = PairScan(subs[idx], hx, hy, float(lat_x[idx]), float(lat_y[idx]))
        return rows[(xu, yw)]

    grid = fiber_grid(move_table.fib_pq, move_table.fib_qp, budgeted_pick, fiber_cap)
    return grid, rows


def endgame(
    p: Dist, q: Dist, eta: float, kappa: float | None = None, *, fiber_cap: int = FIBER_CAP
) -> EndgameTranscript:
    """Run the endgame bookkeeping and verify every claimed inequality.

    Without a kappa, the smallest one that the four move inequalities allow is
    measured from the same move table the hypothesis check reads.  Raises
    HypothesisViolationError when s[X;Y] >= eta(H[X]+H[Y]) or one of the four
    move inequalities fails for the given (eta, kappa).
    """
    if p.n != q.n:
        raise DimensionMismatchError("ambient dimensions differ")
    _check_endgame_inputs(p.n, eta, kappa)
    h_total = shannon_entropy(p) + shannon_entropy(q)
    s_xy = doubling_mass(p, q)
    move_table = _move_table(p, q)
    kappa, hypothesis_gaps = _endgame_hypotheses(eta, kappa, h_total, s_xy, move_table.moves)

    j12, j13 = z_system_joints(p, q)
    i_z1_z2 = conditional_mutual_information(j12, 0, 1, 2)
    i_z1_z3 = conditional_mutual_information(j13, 0, 1, 2)
    h1 = conditional_entropy(j13, 0, 2)
    h2 = conditional_entropy(j12, 1, 2)
    h3 = conditional_entropy(j13, 1, 2)
    mi_ok = i_z1_z2 + i_z1_z3 <= 4.0 * kappa + IDENTITY_TOL
    z_gap_ok = all(
        abs(a - b) <= 4.0 * kappa + IDENTITY_TOL
        for a, b in ((h1, h2), (h1, h3), (h2, h3))
    )

    grid, rows = _endgame_grid(move_table, fiber_cap)
    table = []
    expectation = 0.0
    for wu, u, xu in zip(grid.fibers_x.weights, grid.fibers_x.labels, grid.fibers_x.dists):
        for ww, w, yw in zip(grid.fibers_y.weights, grid.fibers_y.labels, grid.fibers_y.dists):
            row = rows[(xu, yw)]
            weight = float(wu * ww)
            expectation += weight * (row.h_proj_x + row.h_proj_y)
            table.append((u, w, weight, *row))
    bound = 480.0 * kappa
    return EndgameTranscript(
        eta=eta,
        kappa=kappa,
        s_xy=s_xy,
        h_total=h_total,
        hypothesis_gaps=hypothesis_gaps,
        i_z1_z3=float(i_z1_z3),
        i_z1_z2=float(i_z1_z2),
        h_z_given_s=(float(h1), float(h2), float(h3)),
        mi_bound_holds=bool(mi_ok),
        z_entropy_gap_holds=bool(z_gap_ok),
        table=tuple(table),
        grid=grid,
        expectation=float(expectation),
        expectation_bound=float(bound),
        expectation_holds=bool(expectation <= bound + IDENTITY_TOL),
    )

