"""Exact checks for log-submodularity and strong log-concavity of subset distributions.

A distribution over subsets of {1..n} is handled through its multi-affine
generating polynomial with exact rational coefficients.  The library
decides the negative lattice condition (log-submodularity) exactly, proves
log-concavity on the positive orthant through a diagonal dominance
certificate when one exists, falsifies it by deterministic seeded sampling
of log-Hessian eigenvalues otherwise, and extends both to every iterated
derivative (strong log-concavity).  A built-in counterexample shows the two
properties are genuinely different, and a parameter sweep maps where each
holds inside a two-parameter family.
"""

from .calculus import (
    derivative_table,
    eval_many,
    log_hessian,
    log_hessian_many,
    m_matrix,
)
from .checkers import (
    Certificate,
    DominanceCertificate,
    ExhaustiveEnumeration,
    Holds,
    NlcWitness,
    NoViolationFound,
    PointWitness,
    SampleConfig,
    SampleStats,
    SlcReport,
    SubsetCertificates,
    TrivialLogConcavity,
    Verdict,
    Violated,
    certify_log_concavity_dominance,
    check_log_concavity_sampled,
    check_nlc,
    check_slc,
    exit_code,
    format_fraction_pair,
    grid_points,
    nlc_violations,
    sample_points,
    trivial_log_concavity,
    verify_point_witness,
)
from .counterexample import (
    EXPECTED_NLC_LHS,
    EXPECTED_NLC_RHS,
    ReproCheck,
    ReproReport,
    counterexample_distribution,
    counterexample_weights,
    proportionality_scalar,
    reference_matrix,
    reference_row_gap,
    run_reproduction,
)
from .distfile import (
    DistributionFormatError,
    dumps_distribution,
    load_distribution,
    loads_distribution,
    parse_subset_key,
    save_distribution,
)
from .family import (
    SweepCell,
    SweepConfig,
    SweepResult,
    emit_region_tables,
    make_family,
    nlc_region_exact,
    sweep,
)
from .linalg import (
    eigen_sym,
    nsd_threshold,
)
from .poly import (
    MAX_VARS,
    SparsePoly,
    SubsetPoly,
    as_fraction,
    format_subset,
    indices_from_mask,
    mask_from_indices,
    sparse_from_subset,
)

__version__ = "0.1.0"
