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
endgame) hands to the local-to-global lemma, over one of the move table's two
kept views (KeptFibers): the at most FIBER_CAP pairs that cap_fibers keeps of
a family pair, capped once.  Fiber families are row tables (FiberFamily): the
cap, the hull reductions and the local interaction read rows.  fiber_grid
builds a Case 1 or Case 2 grid from a B-solver, the one reader that gets a
Dist, made once per kept row.  The step skips such a grid when every kept
fiber pair meets statement B at V = 0: the B-solver would return V(u, w) = 0
for each, and such a grid has no local interaction.  The step's endgame case
and endgame() share endgame_grid, the hypothesis check and the budgeted grid
(_budget_grid).  Every V(u, w) starts at the support-hull sum
hull(X_u) + hull(Y_w).  The sums come from one batched GF(2) elimination
(_hull_sums) and stay its rows; a V(u, w) Subspace is built only when it is
read.  When each kept pair's sum fits the budget, that sum is each V(u, w) (a
hull grid): both projections are points, and the local interaction and the
local-to-global expectations have closed forms.  Otherwise every over-budget
pair descends from its sum one hyperplane at a time, and the grid is a plain
one, as fiber_grid's is, whose expectations take the local-to-global DP.
Both run at any n.  On X = Y the move table's pair entropies are one
symmetric table, of which only the pairs u <= w are measured
(entropy.pair_entropies), and its two kept views are one.
The Z-system bookkeeping and the 480*kappa table are endgame()'s, for
transcripts and bundles; endgame() keeps the n <= MAX_ENUM_N cap, which its
2^(3n)-entry Z-system joints need.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .dist import Dist, FiberFamily, JointDist, _sum_fibers, same_law, xor_convolve
from .entropy import (
    PairEntropies,
    _hyperplane,
    conditional_doubling_mass,
    conditional_entropy,
    conditional_mutual_information,
    fiber_interactions,
    hyperplane_entropies,
    pair_entropies,
    shannon_entropy,
)
from .errors import (
    CapacityError,
    DimensionMismatchError,
    HypothesisViolationError,
    ValidationError,
)
from .gf2 import Subspace, _rref_batch
from .oracle import PFR_SIZE_FACTOR, SubspaceCertificate
from .records import Record, plain
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


class EndgameRow(NamedTuple):
    """One kept fiber pair (u, w) of the transcript's table: its weight, its
    V(u, w), the fibers' entropies and their projections through V(u, w)."""

    u: int
    w: int
    weight: float
    subspace: Subspace
    h_fiber_x: float
    h_fiber_y: float
    h_proj_x: float
    h_proj_y: float


@dataclass(frozen=True)
class EndgameTranscript(Record):
    """Measured witnesses of the endgame bookkeeping, all in bits.  The grid
    stays out of the JSON; its fiber_cap note goes in."""

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
    table: tuple[EndgameRow, ...]
    grid: FiberGrid = field(compare=False, repr=False)
    expectation: float
    expectation_bound: float
    expectation_holds: bool

    @property
    def fiber_cap(self) -> dict:
        return self.grid.cap

    @property
    def verdicts(self) -> dict:
        """Each inequality the transcript claims, by the name verify_bundle reports."""
        return {
            "mi bound": self.mi_bound_holds,
            "z entropy gaps": self.z_entropy_gap_holds,
            "480k expectation": self.expectation_holds,
        }

    def to_json(self) -> dict:
        return {**super().to_json(), "fiber_cap": plain(self.fiber_cap)}


@dataclass(frozen=True, eq=False)
class _MoveTable:
    """The four doubling moves of (X, Y) on F_2^n, name -> (mass, paired
    entropy sum), with H[X], H[Y], H[X+Y], the sums X_1+X_2, Y_1+Y_2 and X+Y
    (conv_*) the moves were measured on, and the one kept view of each fiber
    grid: kept_1 over the sum-fiber families X_1 | X_1+X_2 x Y_1 | Y_1+Y_2,
    which fiber_1 reduces, and kept_2 over X_1 | X_1+Y_2 x Y_1 | Y_1+X_2,
    which fiber_2 reduces, each capped once (cap_fibers).  The sumset lemma
    tests the sumset moves and hands the B-solver the sums; Case 1 reads
    kept_1, Case 2 and the endgame kept_2.  On X = Y each group of equal
    fields (the sums, the kept views) is one object."""

    n: int
    h_x: float
    h_y: float
    h_xy: float
    moves: dict
    conv_pp: Dist
    conv_qq: Dist
    conv_pq: Dist
    kept_1: KeptFibers
    kept_2: KeptFibers

    @property
    def s_xy(self) -> float:
        """s[X;Y] = H[X] + H[Y] - H[X+Y]."""
        return self.h_x + self.h_y - self.h_xy


def _move_table(p: Dist, q: Dist) -> _MoveTable:
    """Measure the four moves of (X, Y) and what they read, each distinct law once.

    A q whose table equals p's (same_law) is read as p, and every
    convolution, sum-fiber family, pair-entropy table and entropy is computed
    once per distinct argument tuple, in a memo that lives for this call.
    Each sum-fiber family is gathered over the table's own convolution, and
    the (Y, X) family reads xor_convolve(p, q) for xor_convolve(q, p): the
    spectra multiply elementwise, so the floats are the same.  A pair X != Y
    takes 3 convolutions of p and q, where the public functions one by one
    take 7, and X = Y takes 1, one sum-fiber family, one pair-entropy table
    and one cap.  The moves read the whole families, the grids the kept views.
    The fields are bit-equal to the public functions computed one by one."""
    if same_law(p, q):
        q = p
    # Keys are object ids: every keyed argument is p, q or a memo value, all
    # alive until the call returns, so no id is reused within it.
    memo: dict = {}

    def once(fn, *args):
        key = (fn, tuple(map(id, args)))
        if key not in memo:
            memo[key] = fn(*args)
        return memo[key]

    conv_pp, conv_qq, conv_pq = (once(xor_convolve, a, b) for a, b in ((p, p), (q, q), (p, q)))
    fam_pp, fam_qq, fam_pq, fam_qp = (
        once(_sum_fibers, a, b, c)
        for a, b, c in ((p, p, conv_pp), (q, q, conv_qq), (p, q, conv_pq), (q, p, conv_pq))
    )
    ent_1 = once(pair_entropies, fam_pp, fam_qq)
    ent_2 = once(pair_entropies, fam_pq, fam_qp)
    h_pp, h_qq, h_xy = (once(shannon_entropy, d) for d in (conv_pp, conv_qq, conv_pq))
    moves = {
        "sumset_1": (
            h_pp + h_qq - once(shannon_entropy, once(xor_convolve, conv_pp, conv_qq)),
            h_pp + h_qq,
        ),
        "sumset_2": (
            2.0 * h_xy - once(shannon_entropy, once(xor_convolve, conv_pq, conv_pq)),
            2.0 * h_xy,
        ),
        "fiber_1": (
            conditional_doubling_mass(fam_pp, fam_qq, ent_1),
            float(fam_pp.weights @ ent_1.h_x + fam_qq.weights @ ent_1.h_y),
        ),
        "fiber_2": (
            conditional_doubling_mass(fam_pq, fam_qp, ent_2),
            float(fam_pq.weights @ ent_2.h_x + fam_qp.weights @ ent_2.h_y),
        ),
    }
    return _MoveTable(
        p.n, once(shannon_entropy, p), once(shannon_entropy, q), h_xy, moves, conv_pp, conv_qq,
        conv_pq, once(cap_fibers, fam_pp, fam_qq, ent_1),
        once(cap_fibers, fam_pq, fam_qp, ent_2),
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
    local-to-global lemma: the kept fiber families X_u and Y_w of a move
    table's KeptFibers, the per-pair subspaces V(u, w) as a read-only
    (u, w) -> Subspace mapping, and the kept view's fiber-cap note.

    On a hull grid, which _budget_grid builds when every V(u, w) is the
    support-hull sum hull(X_u) + hull(Y_w), `hull_terms` holds its
    closed-form local interaction (see local_interaction), and its
    local-to-global expectations are closed-form too; it is None on every
    other grid, whose expectations take the DP over subspace sums at any n
    (pipeline._dict_h_sequence).  A hull grid's v_table is a _HullTable,
    which builds a V(u, w) only when it is read: sampling reads one entry per
    draw, and the transcript's table reads them all.  Every other grid's
    v_table is a dict."""

    fibers_x: FiberFamily
    fibers_y: FiberFamily
    v_table: Mapping[tuple[int, int], Subspace]
    cap: dict = field(default_factory=dict)
    hull_terms: tuple[float, float] | None = None

    @cached_property
    def local_interaction(self) -> tuple[float, float]:
        """E_{u,w} s[X_u|pi(X_u); Y_w|pi(Y_w)] and E_{u,w} dim V(u,w), measured once,
        with every s-term from one batched fiber_interactions call.  A pair
        with V(u, w) = 0 adds nothing: each fiber of pi is then a point, so its
        term H[X_u] + H[Y_w] - H[X_u+Y_w, X_u] is exactly 0.  A hull grid
        returns its hull_terms, with no fiber_interactions call."""
        if self.hull_terms is not None:
            return self.hull_terms
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


def _distinct(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The index of the first copy of each distinct row of a 2-D array, keyed
    by its bytes, and each row's slot among those firsts."""
    rows = np.ascontiguousarray(rows)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, slots = np.unique(keys, return_index=True, return_inverse=True)
    return first, slots.ravel()


def _support_hulls(masses: np.ndarray) -> np.ndarray:
    """hull(X) = span(supp X - x_0) of each mass row, x_0 its first support
    point, as _rref_batch's pivot-indexed rows.  Each row is reduced over its
    own support points, packed to the left and zero-padded to the largest
    support, not over all 2^n columns."""
    row, point = np.nonzero(masses)
    first = np.searchsorted(row, np.arange(len(masses)))
    slot = np.arange(len(row)) - first[row]
    vectors = np.zeros((len(masses), slot.max() + 1), dtype=np.int64)
    vectors[row, slot] = point ^ point[first[row]]
    return _rref_batch(vectors, masses.shape[1].bit_length() - 1)


class _HullTable(Mapping):
    """A hull grid's read-only v_table, (u, w) -> V(u, w), which builds each
    V(u, w) only when it is read.  Row pair[i, j] of sums holds V(u, w) as
    _rref_batch's pivot-indexed basis, for the i-th kept label u and the
    j-th kept label w.  Iteration is u-major over the kept labels, as a
    grid's dict is."""

    def __init__(
        self, n: int, labels_x: list, labels_y: list, sums: np.ndarray, pair: np.ndarray
    ):
        self._n, self._sums, self._pair = n, sums, pair
        self._labels = labels_x, labels_y
        self._index = tuple({label: i for i, label in enumerate(ls)} for ls in self._labels)

    def __getitem__(self, key: tuple[int, int]) -> Subspace:
        try:
            u, w = key
            row = self._sums[self._pair[self._index[0][u], self._index[1][w]]]
        except (KeyError, TypeError, ValueError):
            raise KeyError(key) from None
        return Subspace._canonical(self._n, tuple(filter(None, row.tolist())))

    def __iter__(self):
        return itertools.product(*self._labels)

    def __len__(self) -> int:
        return len(self._labels[0]) * len(self._labels[1])

    @property
    def dims(self) -> np.ndarray:
        """dim V(u, w) for the i-th kept u and the j-th kept w, at [i, j]."""
        return np.count_nonzero(self._sums, axis=1)[self._pair]


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


class KeptFibers(NamedTuple):
    """The fibers a grid over one family pair keeps (cap_fibers), their rows
    of the pair's entropies, and the cap note."""

    fibers_x: FiberFamily
    fibers_y: FiberFamily
    entropies: PairEntropies
    cap: dict


def cap_fibers(fam_x: FiberFamily, fam_y: FiberFamily, entropies: PairEntropies) -> KeptFibers:
    """The fibers a grid over fam_x x fam_y keeps, with their rows of the
    pair entropies `entropies` of fam_x x fam_y, and the cap note.

    A grid over more than FIBER_CAP pairs keeps each family's
    floor(sqrt(FIBER_CAP)) heaviest fibers and records their coverage in the note.
    One family object passed as both (X = Y) comes back as one kept family.
    """
    kx, ky = len(fam_x.labels), len(fam_y.labels)
    if kx * ky <= FIBER_CAP:
        return KeptFibers(fam_x, fam_y, entropies, {"applied": False, "cap": FIBER_CAP})
    side = int(np.sqrt(FIBER_CAP))
    same = fam_y is fam_x
    fam_x, coverage_x, rows = _heaviest(fam_x, min(side, kx))
    fam_y, coverage_y, cols = (fam_x, coverage_x, rows) if same else _heaviest(fam_y, min(side, ky))
    note = {
        "applied": True,
        "cap": FIBER_CAP,
        "kept_u": len(fam_x.labels),
        "kept_w": len(fam_y.labels),
        "coverage_u": coverage_x,
        "coverage_w": coverage_y,
    }
    h_x, h_y, h_sum = entropies
    entropies = PairEntropies(h_x[rows], h_y[cols], h_sum[np.ix_(rows, cols)])
    return KeptFibers(fam_x, fam_y, entropies, note)


def fiber_grid(
    kept: KeptFibers, solver: Callable[[Dist, Dist], SubspaceCertificate]
) -> FiberGrid:
    """Kept fibers X_u and Y_w (a move table's KeptFibers) with
    V(u, w) = solver(X_u, Y_w).subspace for a B-solver.  The solver runs
    u-major, in label order, on one Dist per kept row.
    """
    fam_x, fam_y = kept.fibers_x, kept.fibers_y
    xs, ys = ([Dist(fam.n, row) for row in fam.masses] for fam in (fam_x, fam_y))
    v_table = {
        (u, w): solver(xu, yw).subspace
        for u, xu in zip(fam_x.labels.tolist(), xs)
        for w, yw in zip(fam_y.labels.tolist(), ys)
    }
    return FiberGrid(fam_x, fam_y, v_table, kept.cap)


def _check_endgame_inputs(eta: float, kappa: float | None) -> None:
    if not 0.0 < eta <= 0.5:
        raise ValidationError(f"eta must lie in (0, 1/2], got {eta}")
    # An infinite kappa would make every hypothesis and bound hold vacuously.
    if kappa is not None and not 0.0 <= kappa < float("inf"):
        raise ValidationError(f"kappa must be finite and nonnegative, got {kappa}")


def _budget(entropies: PairEntropies) -> np.ndarray:
    """Each pair's budget PFR_SIZE_FACTOR (H[X_u] + H[Y_w]), plus IDENTITY_TOL."""
    return PFR_SIZE_FACTOR * (entropies.h_x[:, None] + entropies.h_y) + IDENTITY_TOL


def _hull_sums(fam_x: FiberFamily, fam_y: FiberFamily) -> _HullTable:
    """The support-hull sum hull(X_u) + hull(Y_w) of every kept pair, as a
    _HullTable over the kept labels: each V(u, w) of _budget_grid starts here.

    Hulls come from one _rref_batch over the fiber rows of both families
    (_support_hulls), or of the one family on X = Y (fam_y is fam_x), and
    sums from one more over the distinct unordered (hull, hull) pairs: a sum
    does not depend on the order of its two hulls, so on X = Y each pair of
    hulls is reduced once.  The sums stay _rref_batch rows, and the table
    builds a Subspace only for the entries that are read.
    """
    n, kx = fam_x.n, len(fam_x.labels)
    symmetric = fam_y is fam_x
    masses = fam_x.masses if symmetric else np.concatenate([fam_x.masses, fam_y.masses])
    hulls = _support_hulls(masses)
    hull_first, hull_of = _distinct(hulls)
    hulls = hulls[hull_first]
    a, b = hull_of[:kx, None], hull_of[None, 0 if symmetric else kx :]
    combos, pair = np.unique(
        np.minimum(a, b) * len(hulls) + np.maximum(a, b), return_inverse=True
    )
    halves = hulls[combos // len(hulls)], hulls[combos % len(hulls)]
    sums = _rref_batch(np.concatenate(halves, axis=1), n)
    labels_x, labels_y = fam_x.labels.tolist(), fam_y.labels.tolist()
    return _HullTable(n, labels_x, labels_y, sums, pair.reshape(kx, -1))


def _budget_grid(kept: KeptFibers) -> tuple[FiberGrid, np.ndarray]:
    """The grid over the kept fibers with each V(u, w) the minimizer of
    H[pi(X_u)] + H[pi(Y_w)] under its budget dim <= PFR_SIZE_FACTOR (H[X_u] +
    H[Y_w]), and H[pi(X_u)], H[pi(Y_w)] at each V(u, w) as proj[0], proj[1].

    Every V(u, w) starts at its support-hull sum hull(X_u) + hull(Y_w)
    (_hull_sums).  pi_V(X_u) is a point exactly when V contains hull(X_u),
    so the hull sum is the smallest V at which both projections are points,
    and the first in (dim, lex) order at which H[pi(X_u)] + H[pi(Y_w)] = 0:
    the budgeted minimizer whenever it fits the budget.  When every sum fits,
    the grid is a hull grid, whose v_table is the sums themselves: both
    fibers project to points, so each pair's term is s[X_u; Y_w], the local
    interaction is w_x @ (H[X_u] + H[Y_w] - H[X_u + Y_w]) @ w_y, with
    E dim V = w_x @ dims @ w_y, and proj is 0.

    Otherwise the grid is a plain one, as fiber_grid's is, with a dict
    v_table.  While dim V is over the budget, V drops to its hyperplane W of
    least H[pi_W(X_u)] + H[pi_W(Y_w)], from one hyperplane_entropies call on
    the pair's two rows, ties within IDENTITY_TOL to the lowest functional.
    X_u lies on one coset of hull(X_u), so both projections depend only on
    V cap (hull(X_u) + hull(Y_w)), and the budgeted minimizer lies in that
    sum's lattice: the walk costs its dim in levels, whatever n is."""
    fam_x, fam_y, entropies, note = kept
    sums = _hull_sums(fam_x, fam_y)
    dims = sums.dims
    budget = _budget(entropies)
    proj = np.zeros((2, *budget.shape))
    if np.all(dims <= budget):
        s_pair = entropies.h_x[:, None] + entropies.h_y - entropies.h_sum
        w_x, w_y = fam_x.weights, fam_y.weights
        terms = (float(w_x @ s_pair @ w_y), float(w_x @ dims @ w_y))
        return FiberGrid(fam_x, fam_y, sums, note, hull_terms=terms), proj
    v_table = {}
    for i, u in enumerate(fam_x.labels.tolist()):
        for j, w in enumerate(fam_y.labels.tolist()):
            rows = np.stack([fam_x.masses[i], fam_y.masses[j]])
            v = sums[(u, w)]
            while v.dim > budget[i, j]:
                h = hyperplane_entropies(rows, v)
                total = h[0] + h[1]
                f = int(np.argmax(total <= total.min() + IDENTITY_TOL))
                v = _hyperplane(v, f + 1)
                proj[:, i, j] = h[:, f]
            v_table[(u, w)] = v
    return FiberGrid(fam_x, fam_y, v_table, note), proj


def endgame_grid(
    move_table: _MoveTable, eta: float, kappa: float | None
) -> tuple[float, dict, FiberGrid, np.ndarray]:
    """Check eta, kappa, s[X;Y] >= eta(H[X]+H[Y]) and the four move
    inequalities on a measured move table, then build the grid of its kept
    fibers X_u, Y_w (move_table.kept_2) with V(u, w) the minimizer of
    H[pi(X_u)]+H[pi(Y_w)] under the PFR size budget (_budget_grid).  Without
    a kappa, the smallest one the moves allow is used; a given kappa above
    the largest move mass raises ValidationError.  Returns kappa, each move's
    gap, the grid and (H[pi(X_u)], H[pi(Y_w)]) at each V(u, w), both 0.0 on
    a hull grid; raises HypothesisViolationError naming every failed
    inequality.  H[X_u] and H[Y_w] are the kept view's entropies.  No lattice
    is scanned, at any n."""
    _check_endgame_inputs(eta, kappa)
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

    grid, proj = _budget_grid(move_table.kept_2)
    return kappa, hypothesis_gaps, grid, proj


def endgame(p: Dist, q: Dist, eta: float, kappa: float | None = None) -> EndgameTranscript:
    """Run the endgame bookkeeping and verify every claimed inequality.

    Without a kappa, the smallest one that the four move inequalities allow is
    measured from the same move table the hypothesis check reads.  Raises
    HypothesisViolationError when s[X;Y] >= eta(H[X]+H[Y]) or one of the four
    move inequalities fails for the given (eta, kappa), and ValidationError
    when kappa exceeds the largest move mass.  The fiber grid is the move
    table's kept view, at most FIBER_CAP pairs (see cap_fibers), and H[X_u],
    H[Y_w] are read from it.
    """
    if p.n != q.n:
        raise DimensionMismatchError("ambient dimensions differ")
    # Reject bad inputs before the 2^n x 2^n pair-entropy tables of the move
    # table, and n > MAX_ENUM_N before the Z-system joints' 2^(3n) tables.
    if p.n > MAX_ENUM_N:
        raise CapacityError(f"endgame's Z-system joints are capped at n <= {MAX_ENUM_N}")
    _check_endgame_inputs(eta, kappa)
    move_table = _move_table(p, q)
    kappa, gaps, grid, (proj_x, proj_y) = endgame_grid(move_table, eta, kappa)
    h_x, h_y, _ = move_table.kept_2.entropies

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
            v = grid.v_table[(u, w)]
            table.append(EndgameRow(u, w, weight, v, float(h_x[i]), float(h_y[j]), px, py))
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

