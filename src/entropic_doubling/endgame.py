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
endgame) hands to the local-to-global lemma, over the at most FIBER_CAP pairs
that cap_fibers keeps.  Its fiber families are row tables (FiberFamily): the
cap, the lattice scans and the local interaction read rows.  fiber_grid builds
a Case 1 or Case 2 grid from a B-solver, the one reader that gets a Dist, made
once per kept row.  The step skips such a grid when every kept fiber pair
meets statement B at V = 0: the B-solver would return V(u, w) = 0 for each,
and such a grid has no local interaction.  The step's endgame case and endgame()
share endgame_grid, the hypothesis check and the budgeted grid, whose
V(u, w) come from one masked argmin per X_u row over the fibers' stacked
lattice scans; the grid keeps the X_u scans and the picks for the
local-to-global DP.  The Z-system bookkeeping and the 480*kappa table are
endgame()'s, for transcripts and bundles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .dist import Dist, FiberFamily, JointDist, sum_fibers, xor_convolve
from .entropy import (
    PairEntropies,
    conditional_doubling_mass,
    conditional_entropy,
    conditional_mutual_information,
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
    lattice_index,
)
from .tolerances import FIBER_CAP, IDENTITY_TOL, MAX_ENUM_N, ORACLE_TOL


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
        }


@dataclass(frozen=True, eq=False)
class _MoveTable:
    """The four doubling moves of (X, Y) on F_2^n, name -> (mass, paired
    entropy sum), with H[X], H[Y], H[X+Y] and what the moves were measured
    on: the sums X_1+X_2, Y_1+Y_2 and X+Y (conv_*), the sum-fiber families
    X_1 | X_1+X_2 (pp), Y_1 | Y_1+Y_2 (qq), X_1 | X_1+Y_2 (pq) and
    Y_1 | Y_1+X_2 (qp), and the pair entropies of the pp x qq and pq x qp
    grids that fiber_1 and fiber_2 reduce.  The sumset lemma tests the
    sumset moves and hands the B-solver the sums; Case 1 reads the pp/qq
    grid, Case 2 and the endgame the pq/qp grid."""

    n: int
    h_x: float
    h_y: float
    h_xy: float
    moves: dict
    conv_pp: Dist
    conv_qq: Dist
    conv_pq: Dist
    fib_pp: FiberFamily
    fib_qq: FiberFamily
    fib_pq: FiberFamily
    fib_qp: FiberFamily
    entropies_1: PairEntropies
    entropies_2: PairEntropies

    @property
    def s_xy(self) -> float:
        """s[X;Y] = H[X] + H[Y] - H[X+Y]."""
        return self.h_x + self.h_y - self.h_xy


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
    h_pp, h_qq, h_xy = (shannon_entropy(d) for d in (conv_pp, conv_qq, conv_pq))
    moves = {
        "sumset_1": (
            h_pp + h_qq - shannon_entropy(xor_convolve(conv_pp, conv_qq)),
            h_pp + h_qq,
        ),
        "sumset_2": (
            2.0 * h_xy - shannon_entropy(xor_convolve(conv_pq, conv_pq)),
            2.0 * h_xy,
        ),
        "fiber_1": (
            conditional_doubling_mass(fib_pp, fib_qq, entropies_1),
            float(fib_pp.weights @ entropies_1.h_x + fib_qq.weights @ entropies_1.h_y),
        ),
        "fiber_2": (
            conditional_doubling_mass(fib_pq, fib_qp, entropies_2),
            float(fib_pq.weights @ entropies_2.h_x + fib_qp.weights @ entropies_2.h_y),
        ),
    }
    return _MoveTable(
        p.n, shannon_entropy(p), shannon_entropy(q), h_xy, moves,
        conv_pp, conv_qq, conv_pq, fib_pp, fib_qq, fib_pq, fib_qp, entropies_1, entropies_2,
    )


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
    subspaces V(u, w), and the fiber-cap note.  endgame_grid also hands
    over its lattice scans and picks as `scans` (see lattice)."""

    fibers_x: FiberFamily
    fibers_y: FiberFamily
    v_table: dict[tuple[int, int], Subspace]
    cap: dict = field(default_factory=dict)
    scans: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    @cached_property
    def lattice(self) -> tuple[np.ndarray, np.ndarray]:
        """(lat_x, picks) at n <= MAX_ENUM_N: lat_x[u] holds H[pi_V(X_u)] for
        every subspace V in _scan_tables order, and picks[u, w] is the
        lattice index of V(u, w), both in label order.  They are the grid's
        `scans` when endgame_grid built it; any other grid scans its X_u and
        maps its V(u, w) to indices here, once."""
        if self.scans is not None:
            return self.scans
        fx, fy = self.fibers_x, self.fibers_y
        lat_x = np.stack([lattice_entropies(row) for row in fx.masses])
        vs = [self.v_table[(u, w)] for u in fx.labels.tolist() for w in fy.labels.tolist()]
        picks = lattice_index(vs, fx.n).reshape(len(fx.labels), len(fy.labels))
        return lat_x, picks

    @cached_property
    def local_interaction(self) -> tuple[float, float]:
        """E_{u,w} s[X_u|pi(X_u); Y_w|pi(Y_w)] and E_{u,w} dim V(u,w), measured once,
        with every s-term from one batched fiber_interactions call.  A pair
        with V(u, w) = 0 adds nothing: each fiber of pi is then a point, so its
        term H[X_u] + H[Y_w] - H[X_u+Y_w, X_u] is exactly 0."""
        fx, fy = self.fibers_x, self.fibers_y
        pairs = [
            (wu * ww, xu, yw, v)
            for wu, u, xu in zip(fx.weights, fx.labels.tolist(), fx.masses)
            for ww, w, yw in zip(fy.weights, fy.labels.tolist(), fy.masses)
            if (v := self.v_table[(u, w)]).dim
        ]
        s_fiber = fiber_interactions([(xu, yw, v) for _, xu, yw, v in pairs])
        hyp = 0.0
        e_dim = 0.0
        for (weight, _, _, v), s in zip(pairs, s_fiber.tolist()):
            hyp += weight * s
            e_dim += weight * v.dim
        return hyp, e_dim


def _heaviest(fam: FiberFamily, k: int) -> tuple[FiberFamily, float, np.ndarray]:
    """The k heaviest fibers in label order, renormalized, their weight and indices.

    Weights are ranked at ORACLE_TOL resolution and ties go to the smaller
    label, so float noise between equal weights does not pick the fibers kept.
    """
    order = np.lexsort((fam.labels, -np.round(fam.weights / ORACLE_TOL)))[:k]
    coverage = float(fam.weights[order].sum())
    order = np.sort(order)
    weights = fam.weights[order]
    kept = FiberFamily(fam.labels[order], weights / weights.sum(), fam.masses[order])
    return kept, coverage, order


def cap_fibers(
    fam_x: FiberFamily, fam_y: FiberFamily
) -> tuple[FiberFamily, FiberFamily, dict, np.ndarray, np.ndarray]:
    """The families a grid over fam_x x fam_y keeps, its cap note, and the
    kept fibers' indices in fam_x and in fam_y.

    A grid over more than FIBER_CAP pairs keeps each family's
    floor(sqrt(FIBER_CAP)) heaviest fibers and records their coverage in the note.
    """
    kx, ky = len(fam_x.labels), len(fam_y.labels)
    if kx * ky <= FIBER_CAP:
        return fam_x, fam_y, {"applied": False, "cap": FIBER_CAP}, np.arange(kx), np.arange(ky)
    side = int(np.sqrt(FIBER_CAP))
    fam_x, coverage_x, rows = _heaviest(fam_x, min(side, kx))
    fam_y, coverage_y, cols = _heaviest(fam_y, min(side, ky))
    note = {
        "applied": True,
        "cap": FIBER_CAP,
        "kept_u": len(fam_x.labels),
        "kept_w": len(fam_y.labels),
        "coverage_u": coverage_x,
        "coverage_w": coverage_y,
    }
    return fam_x, fam_y, note, rows, cols


def fiber_grid(
    fam_x: FiberFamily,
    fam_y: FiberFamily,
    solver: Callable[[Dist, Dist], SubspaceCertificate],
) -> FiberGrid:
    """Fibers X_u of fam_x and Y_w of fam_y with V(u, w) = solver(X_u, Y_w).subspace
    for a B-solver, over the families cap_fibers keeps.  The solver runs
    u-major, in label order, on one Dist per kept row.
    """
    fam_x, fam_y, note, _, _ = cap_fibers(fam_x, fam_y)
    xs, ys = ([Dist(fam.n, row) for row in fam.masses] for fam in (fam_x, fam_y))
    v_table = {
        (u, w): solver(xu, yw).subspace
        for u, xu in zip(fam_x.labels.tolist(), xs)
        for w, yw in zip(fam_y.labels.tolist(), ys)
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


def endgame_grid(
    move_table: _MoveTable, eta: float, kappa: float | None
) -> tuple[float, dict, FiberGrid, tuple[np.ndarray, ...]]:
    """Check eta, kappa, n <= MAX_ENUM_N, s[X;Y] >= eta(H[X]+H[Y]) and the
    four move inequalities on a measured move table, then build the grid of
    the fibers X_u, Y_w with V(u, w) the minimizer of H[pi(X_u)]+H[pi(Y_w)]
    under the PFR size budget.  Without a kappa, the smallest one the moves
    allow is used; a given kappa above the largest move mass raises
    ValidationError.  Returns kappa, each move's gap, the grid and the arrays
    H[X_u], H[Y_w], and H[pi(X_u)], H[pi(Y_w)] at each V(u, w); raises
    HypothesisViolationError naming every failed inequality.

    Each kept fiber's lattice is scanned once, and its entropy read from the
    move table.  Each X_u row's V(u, w) is one masked argmin of the stacked
    scans, under dim V <= PFR_SIZE_FACTOR (H[X_u] + H[Y_w]): the same floats
    and first-minimum tie-break as exhaustive_best_subspace's projected-entropy
    objective, so the same V(u, w).  The grid keeps the X_u scans and the
    picked lattice indices as its `scans`, which the local-to-global DP
    reads."""
    _check_endgame_inputs(move_table.n, eta, kappa)
    # Above the largest move mass every move inequality holds whatever eta is.
    largest = max(lhs for lhs, _ in move_table.moves.values())
    if kappa is not None and kappa > largest + IDENTITY_TOL:
        raise ValidationError(f"kappa {kappa} exceeds the largest move mass {largest:.6g}")
    h_total = move_table.h_x + move_table.h_y
    gaps: list[tuple[str, float, float]] = []
    if move_table.s_xy < eta * h_total - IDENTITY_TOL:
        gaps.append(("interaction_floor", eta * h_total, move_table.s_xy))
    if kappa is None:
        kappa = _kappa_from_moves(move_table.moves, eta)
    hypothesis_gaps = {}
    for name, (lhs, pair) in move_table.moves.items():
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

    fam_x, fam_y, note, rows, cols = cap_fibers(move_table.fib_pq, move_table.fib_qp)
    h_x = move_table.entropies_2.h_x[rows]
    h_y = move_table.entropies_2.h_y[cols]
    lat_x, lat_y = (np.stack([lattice_entropies(row) for row in f.masses]) for f in (fam_x, fam_y))
    subs, _, _, dims = _scan_tables(move_table.n)
    picks = np.empty((len(h_x), len(h_y)), dtype=np.int64)
    for i in range(len(h_x)):
        feasible = dims <= PFR_SIZE_FACTOR * (h_x[i] + h_y[:, None]) + IDENTITY_TOL
        picks[i] = _masked_argmin(lat_x[i] + lat_y, feasible, OBJECTIVE_PROJECTED_ENTROPY)
    v_table = {
        (u, w): subs[picks[i, j]]
        for i, u in enumerate(fam_x.labels.tolist())
        for j, w in enumerate(fam_y.labels.tolist())
    }
    proj_x = np.take_along_axis(lat_x, picks, axis=1)
    proj_y = lat_y[np.arange(len(h_y)), picks]
    grid = FiberGrid(fam_x, fam_y, v_table, note, (lat_x, picks))
    return kappa, hypothesis_gaps, grid, (h_x, h_y, proj_x, proj_y)


def endgame(p: Dist, q: Dist, eta: float, kappa: float | None = None) -> EndgameTranscript:
    """Run the endgame bookkeeping and verify every claimed inequality.

    Without a kappa, the smallest one that the four move inequalities allow is
    measured from the same move table the hypothesis check reads.  Raises
    HypothesisViolationError when s[X;Y] >= eta(H[X]+H[Y]) or one of the four
    move inequalities fails for the given (eta, kappa), and ValidationError
    when kappa exceeds the largest move mass.  The fiber grid keeps
    at most FIBER_CAP pairs (see cap_fibers).
    """
    if p.n != q.n:
        raise DimensionMismatchError("ambient dimensions differ")
    # Reject bad inputs before the 2^n x 2^n pair-entropy tables of the move table.
    _check_endgame_inputs(p.n, eta, kappa)
    move_table = _move_table(p, q)
    kappa, gaps, grid, (h_x, h_y, proj_x, proj_y) = endgame_grid(move_table, eta, kappa)

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

    table = []
    expectation = 0.0
    for i, (wu, u) in enumerate(zip(grid.fibers_x.weights, grid.fibers_x.labels.tolist())):
        for j, (ww, w) in enumerate(zip(grid.fibers_y.weights, grid.fibers_y.labels.tolist())):
            weight = float(wu * ww)
            px, py = float(proj_x[i, j]), float(proj_y[i, j])
            expectation += weight * (px + py)
            table.append((u, w, weight, grid.v_table[(u, w)], float(h_x[i]), float(h_y[j]), px, py))
    bound = 480.0 * kappa
    return EndgameTranscript(
        eta=eta,
        kappa=kappa,
        s_xy=move_table.s_xy,
        h_total=move_table.h_x + move_table.h_y,
        hypothesis_gaps=gaps,
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

