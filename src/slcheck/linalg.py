"""Small dense symmetric matrix routines.

The sampler takes no eigenvalue of a point its screen clears.  `nsd_screen`
factors s I - H, just under each threshold t, for a whole stack of
log-Hessians at once (a batched LDL^T without pivoting); only a point whose
factorization fails goes on to LAPACK's eigvalsh, and a point eigvalsh flags
takes its top eigenvector from eigh.  `eigen_sym` hands one matrix to
eigvalsh as it is and returns the eigenvalues as a tuple of floats; no code
in the package calls it.  No decision rests on these floats alone.  Exact
definiteness is decided on integer coefficients, by the dominance
certificate (`calculus.m_row_gaps`), at n <= 3 the coefficient-matrix
certificate (`calculus.is_psd`), or, for a homogeneous g, the Lorentzian
certificate (`checkers.certify_log_concavity_lorentzian`), whose quadratics
`calculus.is_psd` bounds to one positive eigenvalue; a point witness is
proved by the exact sign of v^T M(x) v (`calculus.m_form`).
"""

from __future__ import annotations

import numpy as np

# The screen's least gap under the threshold, in units of eps (1 + max |H|);
# see nsd_screen for why this many.
SCREEN_GUARD = 2.0**14


def eigen_sym(matrix) -> tuple[float, ...]:
    """Ascending eigenvalues of a symmetric matrix, by LAPACK's eigvalsh on its lower triangle."""
    return tuple(float(v) for v in np.linalg.eigvalsh(np.asarray(matrix, dtype=float)))


def nsd_threshold(matrix, rel_tol: float) -> float | np.ndarray:
    """Largest eigenvalue allowed for a matrix still counted as NSD.

    Relative to the matrix max-norm so that the test is scale free:
    rel_tol * (1 + max |entry|).  A stack of matrices gets one threshold
    per matrix (the max runs over the last two axes).
    """
    a = np.asarray(matrix, dtype=float)
    top = np.maximum(a.max(axis=(-2, -1), initial=0.0), -a.min(axis=(-2, -1), initial=0.0))
    return rel_tol * (1.0 + top)


def nsd_screen(hessians: np.ndarray, rel_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Thresholds, and LDL^T pivots of s I - H, for a stack H of symmetric matrices.

    For m matrices of size n x n, returns the `nsd_threshold` t of each,
    shape (m,), and the pivots d_1 .. d_n of the LDL^T factorization
    without pivoting of s I - H, shape (m, n), where

        s = t - g,   g = max(t / 2, SCREEN_GUARD eps N),   N = 1 + max |H|.

    The factorization takes n - 1 vectorised steps over the whole stack and
    reads only the lower triangle.  A matrix whose pivots are all positive
    is cleared: eigvalsh would not put its top eigenvalue above t.  Any
    other (a pivot <= 0, or NaN as when a step overflows) is a candidate,
    for eigvalsh to decide.

    Why no matrix that eigvalsh flags is cleared, with c = max |H|, to
    first order in eps.  Pivots that all come out positive are the exact
    pivots of s I - H + E with ||E||_2 <= n(n+1) eps (|s| + n c): the
    Cholesky backward error (Higham, Accuracy and Stability of Numerical
    Algorithms, Thm 10.3, and || |L| |D| |L^T| ||_2 <= n ||s I - H + E||_2),
    plus the rounding of the shifted diagonal.  So lambda_max(H) <=
    s + ||E||_2.  eigvalsh returns the exact eigenvalues of H + F with
    ||F||_2 <= p(n) eps n c, so it flags a matrix only if lambda_max(H) >
    t - p(n) eps n c.  As |s| <= g, both can hold only if
    g (1 - n(n+1) eps) < (n^2 (n+1) + n p(n)) eps c, which
    g >= SCREEN_GUARD eps N > SCREEN_GUARD eps c rules out for n <= 16
    whenever p(16) <= 700, far above LAPACK's backward error.  This holds
    at every tolerance, 0 included.

    s is computed as min(t / 2, t - SCREEN_GUARD eps N), which is t - g bit
    for bit (t / 2 >= g only for a normal t, where t - t / 2 is exact), and
    which makes every pivot +inf, not NaN, where t overflows: no eigenvalue
    is over an infinite threshold.
    """
    h = np.asarray(hessians, dtype=float)
    m, n = h.shape[0], h.shape[-1]
    # -H with the stack along the last axis, so that every step runs over
    # contiguous rows of m values.
    a = np.negative(h.transpose(1, 2, 0), order="C")
    scale = nsd_threshold(a.transpose(2, 0, 1), 1.0)  # N, and t = rel_tol N as nsd_threshold
    pivots = a.reshape(n * n, m)[:: n + 1]  # the diagonal, a view
    with np.errstate(all="ignore"):
        thresholds = rel_tol * scale
        guard = SCREEN_GUARD * np.finfo(float).eps * scale
        pivots += np.minimum(thresholds / 2, thresholds - guard)  # s, as t - g
        for k in range(n - 1):
            col = a[k + 1 :, k]
            a[k + 1 :, k + 1 :] -= (col / a[k, k])[:, None] * col
    return thresholds, pivots.T.copy()
