"""Independent numpy reference for checking the package's outputs.

Nothing here imports `entropic_doubling`.  Entropy, XOR convolution,
quotient pushforwards, sumsets, coset intersections and the subspace
lattice are recomputed from their definitions, with conventions of their
own (leading bits are the *highest* set bits here, the lowest in the
package), so a fault in `dist`, `entropy` or `oracle` cannot vouch for
itself.  Every check returns a list of failure messages, empty when the
output is correct.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

TOL = 1e-9


# ---------------------------------------------------------------------------
# Calculus


def entropy_bits(mass: np.ndarray) -> float:
    """H = -sum p log2 p over the nonzero entries."""
    p = np.asarray(mass, dtype=np.float64).ravel()
    p = p[p > 0.0]
    return float(-(p * np.log2(p)).sum())


def xor_convolve(p: np.ndarray, q: np.ndarray, block: int = 256) -> np.ndarray:
    """Direct index sum r[z] = sum_x p[x] q[x ^ z], a block of x at a time."""
    size = len(p)
    idx = np.arange(size)
    out = np.zeros(size)
    for lo in range(0, size, block):
        x = idx[lo : lo + block]
        out += p[x] @ q[x[:, None] ^ idx[None, :]]
    return out


def echelon(vectors) -> dict[int, int]:
    """Fully reduced basis of the span, keyed by each row's highest set bit."""
    rows: dict[int, int] = {}
    for v in vectors:
        v = int(v)
        while v:
            lead = v.bit_length() - 1
            if lead not in rows:
                rows[lead] = v
                break
            v ^= rows[lead]
    for a in sorted(rows):
        for b in rows:
            if b != a and (rows[b] >> a) & 1:
                rows[b] ^= rows[a]
    return rows


def coset_reps(rows: dict[int, int], n: int) -> np.ndarray:
    """x -> x reduced by the basis, a canonical label of the coset x + V."""
    reps = np.arange(1 << n, dtype=np.int64)
    for lead, row in rows.items():
        reps ^= ((reps >> lead) & 1) * row
    return reps


def pushforward(mass: np.ndarray, rows: dict[int, int], n: int) -> np.ndarray:
    """Distribution of pi_V(X) on coset labels."""
    return np.bincount(coset_reps(rows, n), weights=mass, minlength=1 << n)


def sumset_size(elements) -> int:
    a = np.asarray(sorted(set(elements)), dtype=np.int64)
    return int(np.unique(a[:, None] ^ a[None, :]).size)


def doubling_eta(elements) -> float:
    """eta with |A+A| = |A|^(2-eta)."""
    size = len(set(elements))
    return 2.0 - math.log2(sumset_size(elements)) / math.log2(size)


def expected_log_intersection(elements, rows: dict[int, int], n: int) -> float:
    """E_{a in A} log2 |A cap (V + a)| from the coset sizes."""
    a = np.asarray(sorted(set(elements)), dtype=np.int64)
    sizes = np.bincount(coset_reps(rows, n)[a])
    sizes = sizes[sizes > 0]
    return float((sizes * np.log2(sizes)).sum() / a.size)


# ---------------------------------------------------------------------------
# The subspace lattice, for exhaustive minima


def gaussian_count(n: int) -> int:
    """Number of subspaces of F_2^n, all dimensions."""
    total = 0
    for k in range(n + 1):
        num = den = 1
        for i in range(k):
            num *= (1 << n) - (1 << i)
            den *= (1 << k) - (1 << i)
        total += num // den
    return total


@lru_cache(maxsize=None)
def lattice(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(coset-label table per subspace, dims) for every subspace of F_2^n.

    Enumerates reduced echelon bases: a set of leading bits, and for each
    row free bits at the lower non-leading positions.
    """
    tables, dims = [], []
    for k in range(n + 1):
        for leads in itertools.combinations(range(n), k):
            free = [[j for j in range(a) if j not in leads] for a in leads]
            for fill in itertools.product(*[range(1 << len(f)) for f in free]):
                rows = {}
                for a, f, bits in zip(leads, free, fill):
                    row = 1 << a
                    for i, j in enumerate(f):
                        if (bits >> i) & 1:
                            row |= 1 << j
                    rows[a] = row
                tables.append(coset_reps(rows, n))
                dims.append(k)
    reps = np.stack(tables)
    if len(reps) != gaussian_count(n):
        raise AssertionError(f"lattice of F_2^{n} has {len(reps)} members")
    return reps, np.asarray(dims)


def _lattice_entropies(mass: np.ndarray, reps: np.ndarray) -> np.ndarray:
    """H[pi_V(X)] for every subspace V at once."""
    count, size = reps.shape
    flat = (np.arange(count)[:, None] * size + reps).ravel()
    pushed = np.bincount(flat, weights=np.tile(mass, count), minlength=count * size)
    plogp = np.zeros_like(pushed)
    nz = pushed > 0.0
    plogp[nz] = pushed[nz] * np.log2(pushed[nz])
    return -plogp.reshape(count, size).sum(axis=1)


def min_dim_statement_b(p: np.ndarray, q: np.ndarray, n: int, eta: float, eps: float) -> int:
    """Least dim V with H[pi(X)+pi(Y)] >= (1-eta)(H[pi X]+H[pi Y]) - eps(H[X]+H[Y])."""
    reps, dims = lattice(n)
    hp, hq = _lattice_entropies(p, reps), _lattice_entropies(q, reps)
    hs = _lattice_entropies(xor_convolve(p, q), reps)
    ok = hs >= (1.0 - eta) * (hp + hq) - eps * (entropy_bits(p) + entropy_bits(q)) - TOL
    return int(dims[ok].min())


def min_dim_t11(elements, n: int, eps: float) -> int:
    """Least dim V with E log2|A cap (V+a)| >= (eta - eps) log2|A|."""
    reps, dims = lattice(n)
    a = np.asarray(sorted(set(elements)), dtype=np.int64)
    count, size = reps.shape
    flat = (np.arange(count)[:, None] * size + reps[:, a]).ravel()
    sizes = np.bincount(flat, minlength=count * size).astype(np.float64)
    terms = np.zeros_like(sizes)
    nz = sizes > 0
    terms[nz] = sizes[nz] * np.log2(sizes[nz])
    e_log = terms.reshape(count, size).sum(axis=1) / a.size
    bound = (doubling_eta(elements) - eps) * math.log2(a.size)
    return int(dims[e_log >= bound - TOL].min())


def min_dim_pfr_on_support(p: np.ndarray, q: np.ndarray, support: list[int], n: int) -> int:
    """Least dim V with max H[pi(X)], H[pi(Y)] <= 12 d[X;Y] and the size bound,
    for X, Y supported on cosets of the subspace U spanned by `support`.

    pi_V(X) and pi_{V cap U}(X) carry the same entropy when X lives on a
    coset of U, so the minimum over all of F_2^n is the minimum over the
    subspaces of U, scanned as subspaces of F_2^m in U's coordinates.
    """
    m = len(support)
    coords = np.zeros(1 << m, dtype=np.int64)
    for i, u in enumerate(support):
        coords ^= ((np.arange(1 << m) >> i) & 1) * int(u)

    def pull_back(mass: np.ndarray) -> np.ndarray:
        # Any support point names the coset U + a that holds all the mass.
        local = mass[coords ^ int(np.flatnonzero(mass)[0])]
        if abs(local.sum() - mass.sum()) > TOL:
            raise AssertionError("distribution is not supported on one coset of U")
        return local

    pl, ql = pull_back(p), pull_back(q)
    reps, dims = lattice(m)
    hp, hq = entropy_bits(p), entropy_bits(q)
    d = entropy_bits(xor_convolve(p, q)) - 0.5 * hp - 0.5 * hq
    worst = np.maximum(_lattice_entropies(pl, reps), _lattice_entropies(ql, reps))
    ok = (worst <= 12.0 * d + TOL) & (dims <= 7.0 * (hp + hq) + TOL)
    return int(dims[ok].min())


# ---------------------------------------------------------------------------
# Checks of the package's outputs


def _basis(subspace: dict) -> tuple[int, dict[int, int], list[str]]:
    """(n, echelon rows, failures) of a serialized subspace."""
    n = int(subspace["n"])
    vectors = [int(h, 16) for h in subspace["basis"]]
    rows = echelon(vectors)
    failures = []
    if len(rows) != len(vectors):
        failures.append(f"basis {subspace['basis']} is not linearly independent")
    if any(v >> n for v in vectors):
        failures.append(f"basis {subspace['basis']} leaves F_2^{n}")
    return n, rows, failures


def _close(failures: list[str], name: str, got: float, stored: float) -> None:
    if not abs(got - stored) <= TOL:
        failures.append(f"{name}: reference {got!r} != stored {stored!r}")


def check_statement_b(bundle: dict, p: np.ndarray, q: np.ndarray, eta: float, eps: float) -> list[str]:
    """Statement B's inequality and both stored sides, from the bundle's V."""
    cert = bundle["certificate"]
    n, rows, failures = _basis(cert["subspace"])
    pp, qp = pushforward(p, rows, n), pushforward(q, rows, n)
    lhs = entropy_bits(pushforward(xor_convolve(p, q), rows, n))
    rhs = (1.0 - eta) * (entropy_bits(pp) + entropy_bits(qp)) - eps * (
        entropy_bits(p) + entropy_bits(q)
    )
    _close(failures, "lhs", lhs, float(cert["achieved"]["lhs"]))
    _close(failures, "rhs", rhs, float(cert["achieved"]["rhs"]))
    if not lhs >= rhs - TOL:
        failures.append(f"statement B fails: {lhs!r} < {rhs!r}")
    if cert["parameters"]["eta"] != eta or cert["parameters"]["epsilon"] != eps:
        failures.append("certificate carries other (eta, epsilon)")
    return failures


def check_t11(bundle: dict, elements, eps: float) -> list[str]:
    """E log2|A cap (V+a)| >= (eta - eps) log2|A|, eta from our sumset count."""
    cert = bundle["certificate"]
    n, rows, failures = _basis(cert["subspace"])
    members = sorted(int(h, 16) for h in bundle["inputs"]["set"]["elements"])
    if members != sorted(set(elements)):
        failures.append("bundle embeds another set than the input")
    e_log = expected_log_intersection(elements, rows, n)
    eta = doubling_eta(elements)
    bound = (eta - eps) * math.log2(len(set(elements)))
    _close(failures, "expected_log_intersection", e_log, float(cert["achieved"]["expected_log_intersection"]))
    _close(failures, "eta", eta, float(cert["achieved"]["eta"]))
    if int(cert["achieved"]["sumset_size"]) != sumset_size(elements):
        failures.append("stored sumset size differs from the reference count")
    if not e_log >= bound - TOL:
        failures.append(f"intersection bound fails: {e_log!r} < {bound!r}")
    return failures


def check_pfr(bundle: dict, p: np.ndarray, q: np.ndarray) -> list[str]:
    """max H[pi X], H[pi Y] <= 12 d[X;Y] and dim V <= 7 (H[X] + H[Y])."""
    n, rows, failures = _basis(bundle["certificate"]["subspace"])
    hp, hq = entropy_bits(p), entropy_bits(q)
    d = entropy_bits(xor_convolve(p, q)) - 0.5 * hp - 0.5 * hq
    worst = max(entropy_bits(pushforward(p, rows, n)), entropy_bits(pushforward(q, rows, n)))
    if not worst <= 12.0 * d + TOL:
        failures.append(f"projected entropy {worst!r} above 12 d = {12.0 * d!r}")
    if not len(rows) <= 7.0 * (hp + hq) + TOL:
        failures.append(f"dim {len(rows)} above 7 (H[X] + H[Y])")
    return failures


def check_fibring(report, s_total: float) -> list[str]:
    """The decomposition's identity, a nonnegative residual, and s[X;Y]."""
    failures = []
    if not abs(report.identity_gap) <= TOL:
        failures.append(f"fibring identity gap {report.identity_gap!r}")
    if not report.residual_mi >= -TOL:
        failures.append(f"negative residual mutual information {report.residual_mi!r}")
    _close(failures, "s_total", s_total, report.s_total)
    return failures


def check_convolution(mass: np.ndarray, reference: np.ndarray, tol: float = 1e-12) -> list[str]:
    err = float(np.abs(np.asarray(mass) - reference).max())
    return [] if err <= tol else [f"XOR convolution off by {err!r}"]
