"""Exact checks for log-submodularity and strong log-concavity of subset distributions.

A distribution over subsets of {1..n} is handled through its multi-affine
generating polynomial with exact rational coefficients.  The checks decide
the negative lattice condition (log-submodularity) exactly, prove
log-concavity on the positive orthant through a diagonal dominance
certificate when one exists, falsify it by deterministic seeded sampling
of log-Hessian eigenvalues otherwise, and extend both to every iterated
derivative (strong log-concavity).

The command line (`slcheck.cli`) is the supported surface.  The package
exports only what a caller needs to run the two checks on a polynomial
and read their verdicts; every other name lives in its module and may
change with it.
"""

from .checkers import Holds, NoViolationFound, SampleConfig, Violated, check_nlc, check_slc
from .poly import SubsetPoly

__version__ = "0.1.0"
