"""Small dense symmetric matrix routines.

Two independent routes to definiteness live here.  `eigen_sym` is a float
path: a cyclic Jacobi iteration, adequate and simple for the tiny matrices
this library meets (dimension at most 16); the sampler confirms each
failure with it.  `is_pd_exact` is an exact path: Sylvester's criterion on
rational matrices, no rounding anywhere; only the tests use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .poly import MAX_VARS, as_fraction

SYMMETRY_TOL = 1e-12


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


def _as_sym_array(matrix, sym_tol: float) -> np.ndarray:
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0 or a.shape[0] > MAX_VARS:
        raise ValueError(f"matrix dimension must be in 1..{MAX_VARS}, got {a.shape[0]}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    if np.max(np.abs(a - a.T), initial=0.0) > sym_tol:
        raise ValueError(f"matrix is not symmetric within {sym_tol}")
    return (a + a.T) / 2.0


def eigen_sym(matrix, *, sym_tol: float = SYMMETRY_TOL, max_sweeps: int = 64) -> EigenResult:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps annihilate each off-diagonal entry in turn until the off-diagonal
    Frobenius mass is negligible against the matrix norm, which leaves the
    diagonal within ~1e-14 relative of the spectrum, comfortably below the
    1e-10 the callers rely on.
    """
    a = _as_sym_array(matrix, sym_tol)
    n = a.shape[0]
    if n == 1:
        return EigenResult((float(a[0, 0]),))

    norm = np.linalg.norm(a)
    stop = 1e-15 * max(1.0, norm)
    for _ in range(max_sweeps):
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


def _as_rational_rows(matrix) -> list[list[Fraction]]:
    rows = [[as_fraction(v) for v in row] for row in matrix]
    n = len(rows)
    if n == 0 or n > MAX_VARS:
        raise ValueError(f"matrix dimension must be in 1..{MAX_VARS}, got {n}")
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise ValueError(f"matrix is not symmetric at ({i}, {j})")
    return rows


def _det_exact(rows: list[list[Fraction]]) -> Fraction:
    """Determinant by fraction Gaussian elimination with partial pivoting."""
    a = [row[:] for row in rows]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            det = -det
        pivot = a[col][col]
        det *= pivot
        for r in range(col + 1, n):
            if a[r][col] == 0:
                continue
            factor = a[r][col] / pivot
            for c in range(col, n):
                a[r][c] -= factor * a[col][c]
    return det


def leading_principal_minors(matrix) -> list[Fraction]:
    """Exact determinants of the leading k-by-k blocks, k = 1..n."""
    rows = _as_rational_rows(matrix)
    n = len(rows)
    return [_det_exact([row[: k + 1] for row in rows[: k + 1]]) for k in range(n)]


def is_pd_exact(matrix) -> bool:
    """Exact positive definiteness of a symmetric rational matrix.

    Sylvester's criterion: positive definite iff every leading principal
    minor is positive.  No floating point is involved.
    """
    return all(d > 0 for d in leading_principal_minors(matrix))


def is_strictly_diag_dominant(matrix) -> bool:
    """Each diagonal entry strictly exceeds the absolute row sum off the diagonal.

    Together with a positive diagonal this forces positive definiteness of a
    symmetric matrix, which is the inference the dominance certificate rests
    on.  Exact rational comparisons.
    """
    rows = _as_rational_rows(matrix)
    n = len(rows)
    for i in range(n):
        off = sum(abs(rows[i][j]) for j in range(n) if j != i)
        if not rows[i][i] > off:
            return False
    return True


def max_abs_entry(matrix) -> float:
    a = np.asarray(matrix, dtype=float)
    return float(np.max(np.abs(a), initial=0.0))


def nsd_threshold(matrix, rel_tol: float) -> float:
    """Largest eigenvalue allowed for a matrix still counted as NSD.

    Relative to the matrix max-norm so that the test is scale free:
    rel_tol * (1 + max |entry|).
    """
    return rel_tol * (1.0 + max_abs_entry(matrix))
