"""The endgame: forcing fiber variables into small subspaces.

Given independent X, Y whose four doubling moves (two sumsets, two fiber
systems) all fail to beat the eta-ratio by more than kappa, the conditional
mutual informations I[Z_1:Z_3|S] and I[Z_1:Z_2|S] of the Z-system

    Z_1 = X_1+Y_1,  Z_2 = X_2+Y_1,  Z_3 = X_1+X_2,  S = X_1+X_2+Y_1+Y_2

cancel down to at most 4*kappa, and the fibers X_u = (X_1 | X_1+Y_2 = u),
Y_w = (Y_1 | Y_1+X_2 = w) admit per-pair subspaces V(u,w) within the
7(H[X_u]+H[Y_w]) size budget whose expected projected entropy is <= 480*kappa.
Everything here is verified numerically, never trusted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dist import Dist, FiberFamily, JointDist, sum_fibers, xor_convolve
from .entropy import (
    conditional_doubling_mass,
    conditional_entropy,
    conditional_mutual_information,
    doubling_mass,
    shannon_entropy,
)
from .errors import CapacityError, DimensionMismatchError, HypothesisViolationError
from .gf2 import Subspace
from .oracle import OBJECTIVE_PROJECTED_ENTROPY, PFR_SIZE_FACTOR, exhaustive_best_subspace
from .tolerances import IDENTITY_TOL, MAX_ENUM_N, tolerances_dict


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
    expectation: float
    expectation_bound: float
    expectation_holds: bool
    fiber_cap: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=tolerances_dict)

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


def endgame_move_quantities(p: Dist, q: Dist) -> dict:
    """The four doubling moves' masses and their paired entropy sums."""
    conv_pp = xor_convolve(p, p)
    conv_qq = xor_convolve(q, q)
    conv_pq = xor_convolve(p, q)
    fib_pp = sum_fibers(p, p)
    fib_qq = sum_fibers(q, q)
    fib_pq = sum_fibers(p, q)
    fib_qp = sum_fibers(q, p)
    return {
        "sumset_1": (
            doubling_mass(conv_pp, conv_qq),
            shannon_entropy(conv_pp) + shannon_entropy(conv_qq),
        ),
        "sumset_2": (
            doubling_mass(conv_pq, conv_pq),
            2.0 * shannon_entropy(conv_pq),
        ),
        "fiber_1": (
            conditional_doubling_mass(fib_pp, fib_qq),
            fib_pp.conditional_entropy() + fib_qq.conditional_entropy(),
        ),
        "fiber_2": (
            conditional_doubling_mass(fib_pq, fib_qp),
            fib_pq.conditional_entropy() + fib_qp.conditional_entropy(),
        ),
    }


def measure_endgame_kappa(p: Dist, q: Dist, eta: float) -> float:
    """Smallest kappa > 0 for which all four hypothesis inequalities hold."""
    moves = endgame_move_quantities(p, q)
    gap = max(lhs - eta * pair for lhs, pair in moves.values())
    return max(gap, 0.0) + 1e-12


def _capped_grid(
    fam_u: FiberFamily, fam_w: FiberFamily, cap: int
) -> tuple[FiberFamily, FiberFamily, dict]:
    """Keep the heaviest labels so the (u, w) grid fits the cap."""
    info: dict = {"applied": False, "cap": cap}
    ku, kw = len(fam_u.labels), len(fam_w.labels)
    if ku * kw <= cap:
        return fam_u, fam_w, info
    side = max(1, int(np.sqrt(cap)))

    def shrink(fam: FiberFamily, k: int) -> FiberFamily:
        order = np.argsort(-fam.weights)[:k]
        order = np.sort(order)
        weights = fam.weights[order]
        weights = weights / weights.sum()
        return FiberFamily(
            tuple(fam.labels[i] for i in order),
            weights,
            tuple(fam.dists[i] for i in order),
        )

    capped_u = shrink(fam_u, min(side, ku))
    capped_w = shrink(fam_w, min(side, kw))
    info = {
        "applied": True,
        "cap": cap,
        "kept_u": len(capped_u.labels),
        "kept_w": len(capped_w.labels),
        "coverage_u": float(fam_u.weights[np.argsort(-fam_u.weights)[: len(capped_u.labels)]].sum()),
        "coverage_w": float(fam_w.weights[np.argsort(-fam_w.weights)[: len(capped_w.labels)]].sum()),
    }
    return capped_u, capped_w, info


def endgame(
    p: Dist, q: Dist, eta: float, kappa: float, *, fiber_cap: int = 256
) -> EndgameTranscript:
    """Run the endgame bookkeeping and verify every claimed inequality.

    Raises HypothesisViolationError when s[X;Y] >= eta(H[X]+H[Y]) or one of
    the four move inequalities fails for the given (eta, kappa).
    """
    if p.n != q.n:
        raise DimensionMismatchError("ambient dimensions differ")
    if p.n > MAX_ENUM_N:
        raise CapacityError(
            f"endgame needs the exhaustive subspace oracle, capped at n <= {MAX_ENUM_N}"
        )
    if not 0.0 < eta <= 0.5:
        raise ValueError("eta must lie in (0, 1/2]")
    if kappa < 0.0:
        raise ValueError("kappa must be nonnegative")
    h_total = shannon_entropy(p) + shannon_entropy(q)
    s_xy = doubling_mass(p, q)
    gaps: list[tuple[str, float, float]] = []
    if s_xy < eta * h_total - IDENTITY_TOL:
        gaps.append(("interaction_floor", eta * h_total, s_xy))
    moves = endgame_move_quantities(p, q)
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

    fam_u = sum_fibers(p, q)
    fam_w = sum_fibers(q, p)
    fam_u, fam_w, cap_info = _capped_grid(fam_u, fam_w, fiber_cap)
    table = []
    expectation = 0.0
    for wu, u, xu in zip(fam_u.weights, fam_u.labels, fam_u.dists):
        hx_u = shannon_entropy(xu)
        for ww, w, yw in zip(fam_w.weights, fam_w.labels, fam_w.dists):
            hy_w = shannon_entropy(yw)
            cert = exhaustive_best_subspace(
                xu,
                yw,
                OBJECTIVE_PROJECTED_ENTROPY,
                entropy_budget=PFR_SIZE_FACTOR * (hx_u + hy_w),
            )
            proj_x = cert.achieved["h_proj_x"]
            proj_y = cert.achieved["h_proj_y"]
            weight = float(wu * ww)
            expectation += weight * (proj_x + proj_y)
            table.append((u, w, weight, cert.subspace, hx_u, hy_w, proj_x, proj_y))
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
        expectation=float(expectation),
        expectation_bound=float(bound),
        expectation_holds=bool(expectation <= bound + IDENTITY_TOL),
        fiber_cap=cap_info,
    )


def endgame_fiber_systems(
    transcript: EndgameTranscript, p: Dist, q: Dist
) -> tuple[FiberFamily, FiberFamily, dict[tuple[int, int], Subspace]]:
    """Reassemble the (capped) fiber families and V-table from a transcript."""
    seen_u: dict[int, Dist] = {}
    seen_w: dict[int, Dist] = {}
    wu: dict[int, float] = {}
    ww: dict[int, float] = {}
    v_table: dict[tuple[int, int], Subspace] = {}
    from .dist import condition_on_sum

    for (u, w, weight, v, _hx, _hy, _px, _py) in transcript.table:
        if u not in seen_u:
            seen_u[u] = condition_on_sum(p, q, u)
        if w not in seen_w:
            seen_w[w] = condition_on_sum(q, p, w)
        v_table[(u, w)] = v
        wu[u] = wu.get(u, 0.0)
        ww[w] = ww.get(w, 0.0)
    for (u, w, weight, *_rest) in transcript.table:
        wu[u] += weight
        ww[w] += weight
    labels_u = tuple(sorted(seen_u))
    labels_w = tuple(sorted(seen_w))
    weights_u = np.array([wu[u] for u in labels_u])
    weights_w = np.array([ww[w] for w in labels_w])
    weights_u /= weights_u.sum()
    weights_w /= weights_w.sum()
    fam_u = FiberFamily(labels_u, weights_u, tuple(seen_u[u] for u in labels_u))
    fam_w = FiberFamily(labels_w, weights_w, tuple(seen_w[w] for w in labels_w))
    return fam_u, fam_w, v_table
