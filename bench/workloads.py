"""The three workloads: their inputs, drawn from the seed, and their operations.

The benchmark makes every input itself with numpy, so the package receives
only distributions and sets.  Each workload is a fixed list of operations
(one round); a run repeats whole rounds.  An operation's `run` is the timed
user path; its `check` is the untimed comparison with `reference`, and
`min_dim` the untimed exhaustive minimum that `cert_dim_ratio` divides by.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import reference as ref

WORKLOADS = ("solve-b", "analyze-set", "calculus-n12")
T11_EPS = 0.2
SOLVE_B_BASE_SEED = 0
SOLVE_B_PAIRS = [
    (4, "random", 0.3, 0.1),
    (4, "noisy", 0.2, 0.05),
    (5, "random", 0.2, 0.05),
    (5, "noisy", 0.3, 0.1),
]


@dataclass
class Op:
    label: str
    is_cert: bool
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    min_dim: Callable[[], int] | None = None
    expect: type | None = None  # the one exception this operation may raise


@dataclass
class Workload:
    ops: list[Op]
    warm_up: Callable[[], None]
    inputs: list[str] = field(default_factory=list)  # one line per input, for the log


# ---------------------------------------------------------------------------
# Inputs


def random_subspace(rng, n: int, k: int, within: list[int] | None = None) -> list[int]:
    """Basis of a random k-dim subspace of F_2^n, or of span(within)."""
    while True:
        if within is None:
            vectors = [int(x) for x in rng.integers(1, 1 << n, size=k)]
        else:
            picks = rng.integers(0, 2, size=(k, len(within)))
            vectors = [int(np.bitwise_xor.reduce(np.array(within)[row == 1], initial=0)) for row in picks]
        if len(ref.echelon(vectors)) == k:
            return vectors


def span_elements(basis: list[int]) -> np.ndarray:
    out = np.zeros(1, dtype=np.int64)
    for b in basis:
        out = np.concatenate([out, out ^ b])
    return out


def random_mass(rng, size: int) -> np.ndarray:
    mass = rng.exponential(size=size)
    return mass / mass.sum()


def noisy_subspace(rng, n: int, w: list[int], mu: float, noise_on: list[int] | None = None) -> np.ndarray:
    """(1 - mu) U_{W + a} + mu R, with R random on F_2^n or on a coset of span(noise_on)."""
    shift = int(rng.integers(1 << n))
    mass = np.zeros(1 << n)
    mass[span_elements(w) ^ shift] += (1.0 - mu) / (1 << len(w))
    support = np.arange(1 << n) if noise_on is None else span_elements(noise_on) ^ shift
    mass[support] += mu * random_mass(rng, len(support))
    return mass / mass.sum()


def v0_fails_b(p, q, eta, eps) -> bool:
    h = ref.entropy_bits(p) + ref.entropy_bits(q)
    return ref.entropy_bits(ref.xor_convolve(p, q)) < (1.0 - eta - eps) * h - ref.TOL


def affine_map(rng, n: int) -> np.ndarray:
    """x -> L x + c for all of F_2^n, with L random invertible and c random."""
    cols = random_subspace(rng, n, n)
    x = np.arange(1 << n)
    image = np.full(1 << n, int(rng.integers(1 << n)))
    for i, c in enumerate(cols):
        image ^= ((x >> i) & 1) * c
    return image


def affine_pair(rng, p: np.ndarray, q: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(L X + c, L Y + c) for one random affine bijection: same entropies, new tables."""
    image = affine_map(rng, n)
    out_p, out_q = np.empty_like(p), np.empty_like(q)
    out_p[image], out_q[image] = p, q
    return out_p, out_q


def hamming_ball(n: int) -> list[int]:
    """Radius-1 Hamming ball around 0."""
    return [0] + [1 << i for i in range(n)]


def union_of_cosets(n: int, dim_v: int, count: int, seed: int) -> list[int]:
    """span(e_1..e_dim_v) + Lambda for `count` distinct random translates.

    Two translates may share a coset, so |A| can fall below count * 2^dim_v.
    """
    lam = np.random.default_rng(seed).choice(1 << n, size=count, replace=False)
    v = span_elements([1 << i for i in range(dim_v)])
    return sorted({int(t) ^ int(x) for t in lam for x in v})


def random_subset_of_subspace(dim_v: int, count: int, seed: int) -> list[int]:
    """`count` random members of span(e_1..e_dim_v)."""
    members = np.random.default_rng(seed).choice(1 << dim_v, size=count, replace=False)
    return sorted(int(x) for x in members)


# ---------------------------------------------------------------------------
# Workloads


def build(name: str, ed, seed: int) -> Workload:
    from entropic_doubling.certify import pfr_bundle, set_bundle, solve_bundle

    def round_trip(bundle: dict) -> dict:
        return json.loads(json.dumps(bundle))

    def verified(bundle: dict):
        return bundle, ed.verify_bundle(bundle)

    def bundle_failures(out) -> list[str]:
        return [] if out[1].ok else [f"verify_bundle rejected: {out[1].failures}"]

    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    ops: list[Op] = []
    inputs: list[str] = []

    if name == "solve-b":
        # Base pairs come from a fixed generator; the seed moves each pair by a
        # random affine bijection of F_2^n, which keeps every entropy and the
        # exhaustive minimum: new inputs, same difficulty.
        base = np.random.default_rng(SOLVE_B_BASE_SEED)
        firsts: dict = {}  # the first pair at each n, for the warm-up
        # Each kind meets each (eta, eps) once, at one of n = 4, 5.
        for n, kind, eta, eps in SOLVE_B_PAIRS:
            while True:
                if kind == "random":
                    p, q = random_mass(base, 1 << n), random_mass(base, 1 << n)
                else:
                    w = random_subspace(base, n, n - 2)
                    p, q = noisy_subspace(base, n, w, 0.2), noisy_subspace(base, n, w, 0.2)
                if v0_fails_b(p, q, eta, eps):
                    break
            p, q = affine_pair(rng, p, q, n)
            dp, dq = ed.Dist(n, p), ed.Dist(n, q)
            firsts.setdefault(n, (dp, dq))

            def run(dp=dp, dq=dq, eta=eta, eps=eps):
                result = ed.solve_B(dp, dq, eta, eps)
                return verified(round_trip(solve_bundle(result, dp, dq)))

            def check(out, p=p, q=q, eta=eta, eps=eps):
                return bundle_failures(out) + ref.check_statement_b(out[0], p, q, eta, eps)

            def min_dim(p=p, q=q, n=n, eta=eta, eps=eps):
                return ref.min_dim_statement_b(p, q, n, eta, eps)

            label = f"solve_B n={n} {kind} eta={eta} eps={eps}"
            ops.append(Op(label, True, run, check, min_dim))
            inputs.append(label)

        def warm_up():
            for dp, dq in firsts.values():
                ed.exhaustive_best_subspace(dp, dq, "projected_entropy")

    elif name == "analyze-set":
        # The seed moves each set by a random affine map of F_2^n, which keeps
        # |A|, |A+A| and the exhaustive minimum: new inputs, same difficulty.
        # union_of_cosets(6, 2, 4, 1) puts two translates into one coset (|A| = 12).
        bases = [
            ("B(5, 1)", 5, hamming_ball(5)),
            ("B(6, 1)", 6, hamming_ball(6)),
            ("union_of_cosets(6, 2, 4, 1)", 6, union_of_cosets(6, 2, 4, 1)),
            ("random_subset_of_subspace(6, 4, 10, 1)", 6, random_subset_of_subspace(4, 10, 1)),
        ]
        sets = [
            (f"affine image of {label}", n, sorted(int(y) for y in affine_map(rng, n)[a]))
            for label, n, a in bases
        ]
        sets.append(("Hamming ball B(7, 1)", 7, hamming_ball(7)))
        for label, n, elements in sets:

            def run(elements=elements, n=n):
                result = ed.analyze_set(elements, n, T11_EPS)
                return verified(round_trip(set_bundle(result, elements, n)))

            def check(out, elements=elements):
                return bundle_failures(out) + ref.check_t11(out[0], elements, T11_EPS)

            def min_dim(elements=elements, n=n):
                return ref.min_dim_t11(elements, n, T11_EPS)

            # analyze_set has no path above the exhaustive cap n = 6 yet.
            expect = ed.CapacityError if n == 7 else None
            ops.append(Op(f"analyze_set {label}", True, run, check, min_dim, expect))
            inputs.append(f"{label}: n={n}, |A|={len(elements)}, |A+A|={ref.sumset_size(elements)}")
        uniform = {n: ed.uniform_on(elements, n) for _, n, elements in sets if n <= 6}

        def warm_up():
            for d in uniform.values():
                ed.exhaustive_best_subspace(d, d, "projected_entropy")

    elif name == "calculus-n12":
        # (n, kind, dims of the V's for the fibring decompositions)
        specs = [
            (10, "random", (0, 3, 6)),
            (10, "noisy", (2, 5)),
            (11, "noisy", (1, 4)),
            (12, "random", (0, 3, 6)),
            (12, "noisy", (2, 5)),
        ]
        for n, kind, dims in specs:
            if kind == "random":
                p, q, support = random_mass(rng, 1 << n), random_mass(rng, 1 << n), None
            else:
                # Supported on cosets of a 6-dim U, so the PFR minimum is a
                # scan of U's lattice; W < U carries the structure.
                while True:
                    support = random_subspace(rng, n, 6)
                    w = random_subspace(rng, n, 4, within=support)
                    p = noisy_subspace(rng, n, w, 0.02, noise_on=support)
                    q = noisy_subspace(rng, n, w, 0.02, noise_on=support)
                    hp, hq = ref.entropy_bits(p), ref.entropy_bits(q)
                    d = ref.entropy_bits(ref.xor_convolve(p, q)) - 0.5 * (hp + hq)
                    if max(hp, hq) > 12.0 * d + ref.TOL:  # V = 0 fails the PFR bound
                        break
            dp, dq = ed.Dist(n, p), ed.Dist(n, q)

            @functools.cache
            def conv_ref(p=p, q=q):
                return ref.xor_convolve(p, q)

            for k in dims:
                v = ed.span(random_subspace(rng, n, k) if k else [], n)

                def run(dp=dp, dq=dq, v=v):
                    return ed.xor_convolve(dp, dq), ed.fibring_decompose(dp, dq, v)

                def check(out, p=p, q=q, conv_ref=conv_ref):
                    r = conv_ref()
                    s_total = ref.entropy_bits(p) + ref.entropy_bits(q) - ref.entropy_bits(r)
                    return ref.check_convolution(out[0].mass, r) + ref.check_fibring(out[1], s_total)

                ops.append(Op(f"fibring n={n} {kind} dim V={k}", False, run, check))
            inputs.append(f"n={n} {kind} pair, fibring over dim V in {dims}")
            if support is None:
                continue

            def run(dp=dp, dq=dq):
                cert = ed.pfr_subspace(dp, dq)
                return verified(round_trip(pfr_bundle(cert, dp, dq)))

            def check(out, p=p, q=q):
                return bundle_failures(out) + ref.check_pfr(out[0], p, q)

            def min_dim(p=p, q=q, support=support, n=n):
                return ref.min_dim_pfr_on_support(p, q, support, n)

            ops.append(Op(f"pfr_subspace n={n} {kind}", True, run, check, min_dim))
            inputs.append(f"n={n} {kind} pair on a 6-dim U, W of dim 4: greedy PFR")
        small = specs[0][0]
        dp, dq = ed.Dist(small, random_mass(rng, 1 << small)), ed.Dist(small, random_mass(rng, 1 << small))
        v = ed.span(random_subspace(rng, small, 4), small)

        def warm_up():
            ed.xor_convolve(dp, dq)
            ed.fibring_decompose(dp, dq, v)

    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return Workload(ops, warm_up, inputs)
