"""Central tolerance constants and capacity caps.

All entropies are in bits (log base 2), so H[U_V] = dim V and subspace-size
bounds read directly as dimensions.  Identity checks use IDENTITY_TOL and
fast-vs-naive oracle comparisons use ORACLE_TOL.  These values are echoed into
every certificate bundle.
"""

from __future__ import annotations

IDENTITY_TOL = 1e-9
ORACLE_TOL = 1e-12
# Masses below this after arithmetic are clamped to zero before entropy
# evaluation (prevents log-of-garbage from floating-point dust).
MASS_EPS = 1e-15

# Hard cap on element bit width; independent of the dense-table cap.
MAX_ELEMENT_N = 20
# Exhaustive subspace enumeration guard (Gaussian-binomial blowup).
MAX_ENUM_N = 6

# Dense-table caps: distributions on F_2^n, and joint tables by total bits.
MAX_DENSE_N = 12
MAX_JOINT_BITS = 24

# Largest (u, w) fiber grid an inductive-step case solves pair by pair; a
# larger grid keeps each side's floor(sqrt(FIBER_CAP)) heaviest fibers.
FIBER_CAP = 256


def tolerances_dict() -> dict[str, float]:
    """The tolerance block recorded in every bundle."""
    return {
        "identity": IDENTITY_TOL,
        "oracle": ORACLE_TOL,
        "mass_eps": MASS_EPS,
    }
