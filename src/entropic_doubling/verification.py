"""Identity and inequality suites over seeded random instances.

These back both the acceptance tests and the CLI `verify` subcommand: each
suite draws seeded random instances, checks an exact identity or inequality
through two computationally distinct routes, and reports violation counts.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .certify import solve_bundle, verify_bundle
from .dist import (
    Dist,
    JointDist,
    random_dist,
    uniform_on_subspace,
    xor_convolve,
    xor_convolve_naive,
)
from .endgame import endgame
from .entropy import (
    conditional_entropy,
    fibring_decompose,
    quotient_entropy,
    shannon_entropy,
)
from .errors import ValidationError
from .families import doubling_stats, hamming_ball
from .gf2 import Subspace, all_subspaces, span, subspace_intersect, subspace_sum
from .oracle import OBJECTIVE_STATEMENT_B, exhaustive_best_subspace
from .pipeline import solve_B, y_size_lower_bound_check
from .records import Record
from .tolerances import IDENTITY_TOL, MASS_EPS, ORACLE_TOL


@dataclass
class SuiteResult(Record):
    name: str
    checks: int = 0
    violations: int = 0
    max_gap: float = 0.0
    elapsed: float = 0.0
    notes: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def record(self, gap: float, tol: float, note: str | None = None) -> None:
        self.checks += 1
        self.max_gap = max(self.max_gap, gap)
        if gap > tol:
            self.violations += 1
            if note:
                self.notes.append(note)

    def to_json(self) -> dict:
        return {**super().to_json(), "passed": self.passed, "notes": self.notes[:20]}


def random_subspace(n: int, rng: np.random.Generator) -> Subspace:
    k = int(rng.integers(0, n + 1))
    vectors = [int(x) for x in rng.integers(0, 1 << n, size=k)]
    return span(vectors, n)


def _fiberwise_conditional_entropy(p: Dist, q: Dist) -> float:
    """E_u H[X | X+Y = u] by explicit per-fiber normalization (oracle route)."""
    size = 1 << p.n
    idx = np.arange(size)
    joint = p.mass[None, :] * q.mass[idx[:, None] ^ idx[None, :]]  # [z, x]
    pz = joint.sum(axis=1)
    keep = pz > MASS_EPS
    rows = joint[keep] / pz[keep, None]
    plogp = np.where(rows > MASS_EPS, rows * np.log2(np.maximum(rows, MASS_EPS)), 0.0)
    return float(pz[keep] @ -plogp.sum(axis=1))


def identity_suite(
    trials: int = 1000, ns: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8), seed: int = 0
) -> SuiteResult:
    """Chain rule, quotient-entropy identity, and fibring identity."""
    out = SuiteResult("identity_suite")
    start = time.monotonic()
    rng = np.random.default_rng(seed)
    for n in ns:
        size = 1 << n
        idx = np.arange(size)
        for _ in range(trials):
            p = random_dist(n, rng)
            q = random_dist(n, rng)
            v = random_subspace(n, rng)
            # Chain rule: H[X|X+Y] via the joint-table formula vs the
            # explicit expectation over normalized fibers.
            joint = JointDist((n, n), p.mass[None, :] * q.mass[idx[:, None] ^ idx[None, :]])
            chain_form = conditional_entropy(joint, 1, 0)
            fiber_form = _fiberwise_conditional_entropy(p, q)
            out.record(abs(chain_form - fiber_form), IDENTITY_TOL, f"chain n={n}")
            # Quotient-entropy identity: H[pi_V(X)] = H[X + U_V] - H[U_V].
            u_v = uniform_on_subspace(v)
            lhs = quotient_entropy(p, v)
            rhs = shannon_entropy(xor_convolve(p, u_v)) - v.dim
            out.record(abs(lhs - rhs), IDENTITY_TOL, f"quotient n={n}")
            # Fibring identity and residual nonnegativity.
            rep = fibring_decompose(p, q, v)
            out.record(abs(rep.identity_gap), IDENTITY_TOL, f"fibring n={n}")
            out.record(-rep.residual_mi, IDENTITY_TOL, f"residual n={n}")
    out.elapsed = time.monotonic() - start
    return out


def convolution_oracle_suite(
    pairs: int = 200, ns: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8, 9, 10), seed: int = 1
) -> SuiteResult:
    """Fast transform vs explicit double-sum oracle, max-abs 1e-12."""
    out = SuiteResult("convolution_oracle")
    start = time.monotonic()
    rng = np.random.default_rng(seed)
    for n in ns:
        for _ in range(pairs):
            p = random_dist(n, rng)
            q = random_dist(n, rng)
            fast = xor_convolve(p, q)
            slow = xor_convolve_naive(p, q)
            gap = float(np.max(np.abs(fast.mass - slow.mass)))
            out.record(gap, ORACLE_TOL, f"conv n={n}")
    out.elapsed = time.monotonic() - start
    return out


def subspace_algebra_suite(n: int = 4, dists: int = 50, seed: int = 2) -> SuiteResult:
    """Dimension formula and subspace submodularity over ALL subspace pairs."""
    out = SuiteResult("subspace_algebra")
    start = time.monotonic()
    rng = np.random.default_rng(seed)
    subs = all_subspaces(n)
    samples = [random_dist(n, rng) for _ in range(dists)]
    proj_h = np.array([[quotient_entropy(d, v) for d in samples] for v in subs])
    index = {v.basis: i for i, v in enumerate(subs)}
    for v1 in subs:
        for v2 in subs:
            vsum = subspace_sum(v1, v2)
            vint = subspace_intersect(v1, v2)
            out.record(
                abs((v1.dim + v2.dim) - (vsum.dim + vint.dim)),
                0,
                f"dim formula {v1.basis} {v2.basis}",
            )
            lhs = proj_h[index[v1.basis]] + proj_h[index[v2.basis]]
            rhs = proj_h[index[vsum.basis]] + proj_h[index[vint.basis]]
            gap = float(np.max(rhs - lhs))
            out.record(gap, IDENTITY_TOL, f"submodularity {v1.basis} {v2.basis}")
    out.elapsed = time.monotonic() - start
    return out


def base_case_suite(
    trials: int = 1000, ns: tuple[int, ...] = (2, 3, 4, 5, 6), seed: int = 3
) -> SuiteResult:
    """H[X+Y] >= max(H[X], H[Y]) for independent variables."""
    out = SuiteResult("base_case")
    start = time.monotonic()
    rng = np.random.default_rng(seed)
    for i in range(trials):
        n = ns[i % len(ns)]
        p = random_dist(n, rng)
        q = random_dist(n, rng)
        h_sum = shannon_entropy(xor_convolve(p, q))
        gap = max(shannon_entropy(p), shannon_entropy(q)) - h_sum
        out.record(gap, IDENTITY_TOL, f"base n={n}")
    out.elapsed = time.monotonic() - start
    return out


def endgame_suite(
    instances: int = 50, ns: tuple[int, ...] = (2, 3), seed: int = 4
) -> SuiteResult:
    """Constructed instances satisfying the endgame hypotheses at measured
    kappa: the 4k MI cancellation, the Z-entropy gaps, and the 480k bound."""
    out = SuiteResult("endgame_bookkeeping")
    start = time.monotonic()
    rng = np.random.default_rng(seed)
    built = 0
    while built < instances:
        n = ns[built % len(ns)]
        if built % 3 == 2:
            p = q = uniform_on_subspace(random_subspace(n, rng))
        else:
            p = random_dist(n, rng, support_size=int(rng.integers(2, (1 << n) + 1)))
            q = random_dist(n, rng, support_size=int(rng.integers(2, (1 << n) + 1)))
        h_total = shannon_entropy(p) + shannon_entropy(q)
        s = h_total - shannon_entropy(xor_convolve(p, q))
        if h_total <= 0 or s / h_total < 1e-3:
            continue
        eta = min(0.5, s / h_total)
        transcript = endgame(p, q, eta)
        mi_gap = (
            transcript.i_z1_z2 + transcript.i_z1_z3 - 4.0 * transcript.kappa
        )
        out.record(mi_gap, IDENTITY_TOL, f"mi 4k n={n}")
        hz = transcript.h_z_given_s
        z_gap = max(abs(hz[0] - hz[1]), abs(hz[0] - hz[2]), abs(hz[1] - hz[2]))
        out.record(z_gap - 4.0 * transcript.kappa, IDENTITY_TOL, f"z gaps n={n}")
        out.record(
            transcript.expectation - transcript.expectation_bound,
            IDENTITY_TOL,
            f"480k n={n}",
        )
        built += 1
    out.elapsed = time.monotonic() - start
    return out


def y_size_suite(instances: int = 100, n: int = 4, seed: int = 5) -> SuiteResult:
    """Lemma: H[Y|pi_W(Y)] >= s[X|pi_V; Y|pi_V] - H[pi_W(X)|pi_V(X)], W <= V."""
    out = SuiteResult("y_size_lower_bound")
    start = time.monotonic()
    rng = np.random.default_rng(seed)
    for _ in range(instances):
        p = random_dist(n, rng)
        q = random_dist(n, rng)
        v = random_subspace(n, rng)
        members = list(v.elements())
        picks = rng.choice(len(members), size=int(rng.integers(0, len(members) + 1)))
        w = span([members[i] for i in picks], n)
        report = y_size_lower_bound_check(p, q, w, v)
        gap = report.s_fiber_v - report.h_w_given_v - report.h_y_given_w
        out.record(gap, IDENTITY_TOL, f"y-size n={n}")
    out.elapsed = time.monotonic() - start
    return out


def pipeline_suite(
    instances: int = 25,
    ns: tuple[int, ...] = (3, 4, 5),
    eta: float = 0.3,
    epsilon: float = 0.1,
    seed: int = 6,
) -> SuiteResult:
    """solve_B certificates re-verify independently; dim vs exhaustive minimum."""
    out = SuiteResult("pipeline_soundness")
    start = time.monotonic()
    rng = np.random.default_rng(seed)
    for i in range(instances):
        n = ns[i % len(ns)]
        if i % 2:
            p = random_dist(n, rng)
            q = random_dist(n, rng)
        else:
            p = random_dist(n, rng, support_size=int(rng.integers(2, (1 << n) + 1)))
            q = random_dist(n, rng, support_size=int(rng.integers(2, (1 << n) + 1)))
        res = solve_B(p, q, eta, epsilon, seed=1000 + i)
        report = verify_bundle(solve_bundle(res, p, q))
        out.record(0.0 if report.ok else 1.0, 0.5, f"reverify n={n} i={i}")
        minimal = exhaustive_best_subspace(
            p, q, OBJECTIVE_STATEMENT_B, params={"eta": eta, "epsilon": epsilon}
        )
        ratio = (
            res.subspace.dim / minimal.subspace.dim
            if minimal.subspace.dim > 0
            else float(res.subspace.dim)
        )
        out.notes.append(
            f"n={n} i={i} dim={res.subspace.dim} minimal={minimal.subspace.dim} "
            f"ratio={ratio:.2f}"
        )
    out.elapsed = time.monotonic() - start
    return out


def theorem11_suite(epsilon: float = 0.2, seed: int = 7) -> SuiteResult:
    """End-to-end Theorem-1.1 run on the Hamming ball r=1 in F_2^4."""
    from .pipeline import analyze_set

    out = SuiteResult("theorem_11")
    start = time.monotonic()
    ball = hamming_ball(4, 1)
    stats = doubling_stats(ball)
    out.record(abs(stats.size - 5), 0, "ball size")
    out.record(abs(stats.sumset_size - 11), 0, "sumset size")
    exact_eta = 2.0 - math.log2(11) / math.log2(5)
    out.record(abs(stats.eta - exact_eta), IDENTITY_TOL, "eta exact")
    res = analyze_set(ball, 4, epsilon, seed=seed)
    ach = res.certificate.achieved
    out.record(ach["identity_gap"], IDENTITY_TOL, "coset identity")
    out.record(ach["bound"] - ach["expected_log_intersection"], IDENTITY_TOL, "bound")
    out.notes.append(
        f"|A|={stats.size} |A+A|={stats.sumset_size} eta={stats.eta:.6f} "
        f"dimV={ach['dim']} E_log={ach['expected_log_intersection']:.6f}"
    )
    out.elapsed = time.monotonic() - start
    return out


def family_trend_suite(n: int = 12, radii: tuple[int, ...] = (1, 2, 3)) -> SuiteResult:
    """Hamming-ball doubling exponents at n=12: eta grows with the radius
    (equivalently the doubling exponent log|A+A|/log|A| falls), consistent
    with the Bernoulli-family estimate eps ~ 2/log2(1/p)."""
    out = SuiteResult("family_trend")
    start = time.monotonic()
    etas = []
    for r in radii:
        ball = hamming_ball(n, r)
        stats = doubling_stats(ball)
        expect_size = sum(math.comb(n, i) for i in range(r + 1))
        expect_sum = sum(math.comb(n, i) for i in range(2 * r + 1))
        out.record(abs(stats.size - expect_size), 0, f"size r={r}")
        out.record(abs(stats.sumset_size - expect_sum), 0, f"sumset r={r}")
        etas.append(stats.eta)
        out.notes.append(
            f"r={r} |A|={stats.size} |A+A|={stats.sumset_size} eta={stats.eta:.6f} "
            f"exponent={2.0 - stats.eta:.6f}"
        )
    for lo, hi in zip(etas, etas[1:]):
        out.record(lo - hi, -IDENTITY_TOL, "eta monotone increasing")
    out.elapsed = time.monotonic() - start
    return out


def run_all(trials: int = 200, seed: int = 0, max_n: int = 6) -> list[SuiteResult]:
    """Scaled-down version of every suite, for the CLI: trials >= 1 sets the
    suites' sizes and 2 <= max_n <= 8 the largest n of the per-n suites."""
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    if trials < 1:
        raise ValidationError(f"trials must be positive, got {trials}")
    if not 2 <= max_n <= 8:
        raise ValidationError(f"n must lie in 2..8, got {max_n}")
    ns = tuple(range(2, max_n + 1))
    return [
        identity_suite(trials=trials, ns=ns, seed=seed),
        convolution_oracle_suite(pairs=min(trials, 200), ns=tuple(range(2, 9)), seed=seed + 1),
        subspace_algebra_suite(dists=min(trials, 50), seed=seed + 2),
        base_case_suite(trials=5 * trials, ns=ns, seed=seed + 3),
        endgame_suite(instances=min(trials, 50), seed=seed + 4),
        y_size_suite(instances=min(trials, 100), seed=seed + 5),
        pipeline_suite(instances=min(max(trials // 40, 3), 25), seed=seed + 6),
        theorem11_suite(seed=seed + 7),
        family_trend_suite(),
    ]
