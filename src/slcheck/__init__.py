"""Exact checks for log-submodularity and strong log-concavity of subset distributions.

A distribution over subsets of {1..n} is handled through its multi-affine
generating polynomial with exact rational coefficients.  The checks decide
the negative lattice condition (log-submodularity) exactly, prove
log-concavity on the positive orthant through a diagonal dominance
certificate or, for at most three variables, a certificate of positive
semidefinite coefficient matrices when one exists, falsify it by
deterministic seeded sampling of log-Hessian eigenvalues otherwise, and
extend both to every iterated derivative (strong log-concavity).  The
log-concavity of the polynomial alone is also proved exactly when it
splits into affine factors on disjoint variables, as a product measure
does.

The command line (`slcheck.cli`) is the supported surface.  The package
exports only what a caller needs to run the three checks on a polynomial
and read their verdicts; every other name lives in its module and may
change with it.
"""

from .checkers import (
    Holds,
    NoViolationFound,
    SampleConfig,
    Violated,
    check_log_concavity,
    check_nlc,
    check_slc,
)
from .poly import SubsetPoly

__version__ = "0.1.0"
