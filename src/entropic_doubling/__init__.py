"""Entropy calculus over F_2^n and numerically verified subspace certificates.

The package removes additive interaction between F_2^n-valued random
variables by quotienting by a subspace, and witnesses large subspace
intersections for moderate-doubling sets.  Everything is exact desk-scale
computation on dense tables: certificates are accepted only after
independent re-verification, never on the strength of worst-case constants.
"""

from .dist import (
    Dist,
    FiberFamily,
    JointDist,
    condition_on_sum,
    map_joint,
    point_mass,
    product,
    pushforward_quotient,
    random_dist,
    sum_fibers,
    quotient_fibers,
    uniform_on,
    uniform_on_subspace,
    wht,
    xor_convolve,
    xor_convolve_naive,
)
from .endgame import (
    EndgameTranscript,
    FiberGrid,
    endgame,
    fiber_grid,
    z_system_joints,
)
from .entropy import (
    FibringReport,
    conditional_doubling_mass,
    conditional_entropy,
    conditional_mutual_information,
    doubling_mass,
    fibring_decompose,
    joint_entropy,
    mutual_information,
    quotient_entropy,
    ruzsa_distance,
    shannon_entropy,
)
from .errors import (
    CapacityError,
    ConditioningError,
    DimensionMismatchError,
    EmptySupportError,
    HypothesisViolationError,
    NormalizationError,
    PipelineError,
    SearchFailureError,
    ValidationError,
)
from .families import (
    DoublingStats,
    doubling_stats,
    hamming_ball,
    random_subset_of_subspace,
    sumset,
    sumset_naive,
    union_of_cosets,
)
from .gf2 import (
    Subspace,
    coset_decompose,
    enumerate_subspaces,
    gaussian_binomial,
    span,
    subspace_intersect,
    subspace_sum,
)
from .oracle import (
    SubspaceCertificate,
    exhaustive_best_subspace,
    pfr_subspace,
)
from .pipeline import (
    LocalToGlobalResult,
    PipelineTrace,
    SolveResult,
    StatementParams,
    TraceStep,
    analyze_set,
    check_statement_A,
    check_statement_B,
    inductive_step,
    local_to_global,
    make_sumsets_not_double,
    many_sums,
    rich_cosets,
    solve_B,
    y_size_lower_bound_check,
)
from .certify import verify_bundle

__version__ = "0.1.0"
