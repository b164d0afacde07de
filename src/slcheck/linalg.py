"""Small dense symmetric matrix routines.

Every eigen solve in the library is LAPACK's: the sampler scans stacks
with eigvalsh and takes each flagged point's top eigenvector from eigh.
`eigen_sym` validates one symmetric matrix (dimension at most 16), hands
it to eigvalsh and returns the eigenvalues as a tuple of floats; no code
in the package calls it.  No
decision rests on these floats alone.  Exact definiteness is decided on
integer coefficients, by the dominance certificate (`calculus.m_row_gaps`)
or, at n <= 3, the coefficient-matrix certificate (`calculus.is_psd`),
and a point witness is proved by the exact sign of v^T M(x) v
(`calculus.m_form`).
"""

from __future__ import annotations

import numpy as np

from .poly import MAX_VARS

SYMMETRY_TOL = 1e-12


def _as_sym_array(matrix) -> np.ndarray:
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0 or a.shape[0] > MAX_VARS:
        raise ValueError(f"matrix dimension must be in 1..{MAX_VARS}, got {a.shape[0]}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    if np.max(np.abs(a - a.T), initial=0.0) > SYMMETRY_TOL:
        raise ValueError(f"matrix is not symmetric within {SYMMETRY_TOL}")
    return (a + a.T) / 2.0


def eigen_sym(matrix) -> tuple[float, ...]:
    """Ascending eigenvalues of a validated symmetric matrix, by LAPACK's eigvalsh."""
    return tuple(float(v) for v in np.linalg.eigvalsh(_as_sym_array(matrix)))


def nsd_threshold(matrix, rel_tol: float) -> float | np.ndarray:
    """Largest eigenvalue allowed for a matrix still counted as NSD.

    Relative to the matrix max-norm so that the test is scale free:
    rel_tol * (1 + max |entry|).  A stack of matrices gets one threshold
    per matrix (the max runs over the last two axes).
    """
    a = np.abs(np.asarray(matrix, dtype=float))
    return rel_tol * (1.0 + a.max(axis=(-2, -1), initial=0.0))
