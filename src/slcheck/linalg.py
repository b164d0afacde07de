"""Small dense symmetric matrix routines.

`eigen_sym` is a cyclic Jacobi iteration, adequate and simple for the tiny
matrices this library meets (dimension at most 16).  It is independent of
LAPACK's eigvalsh, which the sampler scans with, and the sampler confirms
each failure with it.  Exact definiteness is never decided here: the only
exact route is the dominance certificate on integer coefficients
(`calculus.m_row_gaps`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .poly import MAX_VARS

SYMMETRY_TOL = 1e-12

# Jacobi converges quadratically; a handful of sweeps suffices at n <= 16.
MAX_SWEEPS = 64


@dataclass(frozen=True)
class EigenResult:
    """Eigenvalues of a real symmetric matrix, sorted ascending."""

    eigenvalues: tuple[float, ...]

    @property
    def min(self) -> float:
        return self.eigenvalues[0]

    @property
    def max(self) -> float:
        return self.eigenvalues[-1]


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


def eigen_sym(matrix) -> EigenResult:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps annihilate each off-diagonal entry in turn until the off-diagonal
    Frobenius mass is negligible against the matrix norm, which leaves the
    diagonal within ~1e-14 relative of the spectrum, comfortably below the
    1e-10 the callers rely on.
    """
    a = _as_sym_array(matrix)
    n = a.shape[0]
    if n == 1:
        return EigenResult((float(a[0, 0]),))

    norm = np.linalg.norm(a)
    stop = 1e-15 * max(1.0, norm)
    for _ in range(MAX_SWEEPS):
        off = math.sqrt(max(0.0, np.sum(a * a) - np.sum(np.diag(a) ** 2)))
        if off <= stop:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-18 * max(1.0, abs(a[p, p]) + abs(a[q, q])):
                    continue
                # Rotation angle chosen to zero a[p, q] (Rutishauser's formulas).
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                app, aqq = a[p, p], a[q, q]
                a[p, p] = c * c * app - 2.0 * s * c * apq + s * s * aqq
                a[q, q] = s * s * app + 2.0 * s * c * apq + c * c * aqq
                a[p, q] = a[q, p] = 0.0
                for k in range(n):
                    if k == p or k == q:
                        continue
                    akp, akq = a[k, p], a[k, q]
                    a[k, p] = a[p, k] = c * akp - s * akq
                    a[k, q] = a[q, k] = s * akp + c * akq
    return EigenResult(tuple(sorted(float(v) for v in np.diag(a))))


def nsd_threshold(matrix, rel_tol: float) -> float:
    """Largest eigenvalue allowed for a matrix still counted as NSD.

    Relative to the matrix max-norm so that the test is scale free:
    rel_tol * (1 + max |entry|).
    """
    a = np.asarray(matrix, dtype=float)
    return rel_tol * (1.0 + float(np.max(np.abs(a), initial=0.0)))
