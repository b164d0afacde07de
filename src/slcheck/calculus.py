"""Differential structure of subset polynomials, computed in coefficient space.

For a multi-affine g the Hessian of log g on the positive orthant is

    H(x) = (g(x) * D2g(x) - grad g(x) grad g(x)^T) / g(x)^2,

where D2g has zero diagonal because no variable appears squared.  Log
concavity of g at x is the statement that H(x) is negative semidefinite,
equivalently that the polynomial matrix

    M = grad g grad g^T - g * D2g        (entries are polynomials)

is positive semidefinite at x, since M evaluated at x equals -g(x)^2 H(x).

Both the float and the exact side work on the coefficient vector directly.

  * Float: the derivative table (`_superset_sums`) holds every iterated
    derivative d^B g(x) = sum_{S >= B} p(S) x^(S \\ B) at a block of
    points, built by n superset-sum (Yates) stages.  g, its gradient and
    its Hessian are rows 0, {i} and {i, j} of that one table.  It is the
    only float evaluator: `eval_many` and `log_hessian_many` only read it,
    the latter on coefficients rescaled by a power of two (see
    `_log_coeffs`), and `log_hessian` is `log_hessian_many` at one point.
  * Exact: `_cleared_m_rows` forms M once, times L^2, from products of the
    integer coefficients of `SubsetPoly.cleared` (`poly.add_products`,
    under `SparsePoly`'s monomial key).  `m_row_gaps` reads it and yields
    the diagonal dominance gap of each row, on which the dominance
    certificate decides; `m_matrix` and the certificate's gaps are the same
    integers divided by L^2 (`uncleared`).  `m_form` runs the same superset
    sums on the integer coefficients at a float point, read as exact dyadic
    rationals, and returns the exact sign of v^T M(x) v, which proves a
    sampled violation.

No check runs `m_matrix`: it serves the counterexample replay and the
tests, as rows of `SparsePoly` entries that are evaluated only exactly
(`SparsePoly.eval_exact`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

import numpy as np

from .poly import SparsePoly, SubsetPoly, add_products

# A derivative table has 2**n rows, one per derivative subset, and a column
# per point; points are taken in blocks that keep it near this many float64
# cells (256 KiB), so memory stays flat in the number of points.  A block
# holds at least MIN_BLOCK_POINTS points (so the table outgrows the budget
# past n = 11, up to 8 MiB at n = 16): with fewer, each Yates stage costs
# more in loop overhead than in arithmetic.
TABLE_CELLS = 1 << 15
MIN_BLOCK_POINTS = 16


# ----- the derivative table --------------------------------------------------


def _point_array(p: SubsetPoly, points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != p.n:
        raise ValueError(f"expected an (N, {p.n}) point array, got shape {pts.shape}")
    return pts


def _superset_sums(coeffs: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """The derivative table of the float coefficient vector at the rows of pts.

    Stage k adds x_k times each row holding variable k to the row without
    it.  Afterwards row B has summed p(S) x^(S \\ B) over every S >= B:
    variables outside B were multiplied in at their stage, and the rows of
    B never changed at the stages of its own variables.  So row 0 is g, row
    {i} the partial derivative in x_(i+1), row {i, j} a mixed second one.
    """
    m, n = pts.shape
    table = np.repeat(coeffs[:, None], m, axis=1)
    for k in range(n):
        halves = table.reshape(-1, 2, 1 << k, m)
        halves[:, 0] += pts[:, k] * halves[:, 1]
    return table


def _float_coeffs(p: SubsetPoly, k: int = 0) -> np.ndarray:
    """Coefficients times 2**k, each the correctly rounded w[s] 2^k / L: float(c) at k = 0."""
    w, den = p.cleared
    num, den = (1 << k, den) if k >= 0 else (1, den << -k)
    return np.array([c * num / den for c in w], dtype=float)


def _log_coeffs(p: SubsetPoly) -> np.ndarray:
    """Float coefficients for the log-Hessian readers, whose result ignores scale.

    One exact power of two brings the largest into (1/2, 2), so that weights
    near 1e-400 do not round to zero, nor squares of weights near 1e-200.
    """
    w, den = p.cleared
    return _float_coeffs(p, den.bit_length() - max(w).bit_length())


def block_points(n: int) -> int:
    """Points per derivative-table block at n variables."""
    return max(MIN_BLOCK_POINTS, TABLE_CELLS >> n)


def _blocks(n: int, count: int) -> list[slice]:
    """Consecutive row ranges of a point array, block_points(n) rows each.

    Callers pass each block's table straight to its consumer, so that no
    more than one table is alive at a time.
    """
    step = block_points(n)
    return [slice(start, start + step) for start in range(0, count, step)]


def _log_hessians(table: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write (g D2g - grad g grad g^T) / g^2 at the m points of a table into out.

    out has shape (m, n, n).  Raises ValueError unless g > 0 at every point,
    and unless g^2 is finite there: past that it would divide a finite
    numerator into zeros.
    """
    if np.any(table[0] <= 0.0):
        raise ValueError("polynomial is not positive at every sample point")
    n = out.shape[1]
    bits = 1 << np.arange(n)  # rows {i} of the gradient; {i, j} of the Hessian
    pairs = bits[:, None] | bits[None, :]
    g = table[0][:, None, None]
    g2 = g * g
    if not np.isfinite(g2).all():
        raise ValueError("points overflow the floats: g^2 is not finite")
    grad = table[bits].T
    out[:] = table[pairs].transpose(2, 0, 1)
    # The pair mask of (i, i) is the row of d_i g; D2g has zero diagonal.
    out[:, np.arange(n), np.arange(n)] = 0.0
    out *= g
    out -= grad[:, :, None] * grad[:, None, :]
    out /= g2
    return out


# ----- exact M matrix on integer coefficients ----------------------------------


def _cleared_m_rows(p: SubsetPoly) -> Iterator[list[dict[int, int]]]:
    """Row by row, the entries L^2 M_ij for j >= i, as integer dicts.

    L clears the denominators of p (`SubsetPoly.cleared`), so M
    scales by L^2, and each dict is keyed by `SparsePoly`'s monomial key.
    Row i is formed only when it is asked for.
    """
    n = p.n
    terms = [(s, c) for s, c in enumerate(p.cleared[0]) if c]

    def derivative(mask: int) -> list[tuple[int, int]]:
        return [(s ^ mask, c) for s, c in terms if s & mask == mask]

    grads = [derivative(1 << i) for i in range(n)]
    for i in range(n):
        row = []
        for j in range(i, n):
            entry: dict[int, int] = {}
            add_products(n, entry, grads[i], grads[j], 1)
            if j != i:
                add_products(n, entry, terms, derivative(1 << i | 1 << j), -1)
            row.append(entry)
        yield row


def uncleared(p: SubsetPoly, cleared: Mapping[int, int]) -> SparsePoly:
    """An entry of `_cleared_m_rows` or a gap of `m_row_gaps`, divided by L^2."""
    scale = p.cleared[1] ** 2
    return SparsePoly(p.n, {key: Fraction(c, scale) for key, c in cleared.items() if c})


def m_matrix(p: SubsetPoly) -> tuple[tuple[SparsePoly, ...], ...]:
    """The polynomial matrix grad g grad g^T - g * D2g, exactly, as rows.

    Entry (i, j) is m[i][j], one object at both (i, j) and (j, i).
    Positive semidefiniteness of this matrix at a positive point is
    equivalent to negative semidefiniteness of the log-Hessian there.
    Diagonal entries reduce to squared first derivatives.  The entries are
    those of `_cleared_m_rows`, which the dominance decision reads, divided
    by L^2.
    """
    rows: list[list[SparsePoly]] = [[None] * p.n for _ in range(p.n)]  # type: ignore[list-item]
    for i, upper in enumerate(_cleared_m_rows(p)):
        for j, entry in enumerate(upper, i):
            rows[i][j] = rows[j][i] = uncleared(p, entry)
    return tuple(tuple(row) for row in rows)


def m_row_gaps(p: SubsetPoly) -> Iterator[dict[int, int]]:
    """Row by row, the diagonal dominance gap of M in integer coefficients.

    Yields for each i the coefficients of L^2 (M_ii - sum_{j != i} |M_ij|),
    with |.| taken coefficient-wise after like terms are combined, under
    `SparsePoly`'s monomial key.  Each M_ij is formed when row min(i, j)
    needs it and dropped after row max(i, j), so a caller that stops at the
    first failing row pays for that row only.
    """
    pending: dict[tuple[int, int], dict[int, int]] = {}
    for i, (gap, *upper) in enumerate(_cleared_m_rows(p)):
        for j, entry in enumerate(upper, i + 1):
            pending[(i, j)] = entry
        for entry in [pending.pop((j, i)) for j in range(i)] + upper:
            for key, v in entry.items():
                gap[key] = gap.get(key, 0) - abs(v)
        yield gap


def m_form(p: SubsetPoly, point: Sequence[float], v: Sequence[float]) -> int:
    """The exact sign of v^T M(x) v at a positive float point x where g_p > 0.

    A float is a dyadic rational, x_k = a_k / b_k exactly.  Starting from
    w = p.cleared[0], stage k sets t[s] = b_k t[s] + a_k t[s | bit k]
    for every s without bit k, so that T_B = L d^B g(x) prod_{k not in B} b_k.
    With u_i = v_i b_i (scaled to integers, which keeps the sign),

        (L prod_k b_k)^2 v^T M v = (sum_i u_i T_i)^2 - 2 T_0 sum_{i<j} u_i u_j T_ij.

    Raises ValueError unless x is finite and positive and T_0 > 0.
    """
    if len(point) != p.n or len(v) != p.n or not all(0.0 < c < math.inf for c in point):
        raise ValueError(f"expected a positive finite point and a vector of length {p.n}")
    xs = [float(c).as_integer_ratio() for c in point]
    t = list(p.cleared[0])
    for k, (a, b) in enumerate(xs):
        bit = 1 << k
        t = [t[s] if s & bit else b * t[s] + a * t[s | bit] for s in range(len(t))]
    if not t[0] > 0:
        raise ValueError("polynomial is not positive at the point")
    vs = [float(c).as_integer_ratio() for c in v]
    den = max(d for _, d in vs)  # every denominator is a power of two
    u = [c * (den // d) * b for (c, d), (_, b) in zip(vs, xs)]
    lin = sum(u[i] * t[1 << i] for i in range(p.n))
    cross = sum(u[i] * u[j] * t[1 << i | 1 << j] for j in range(p.n) for i in range(j))
    value = lin * lin - 2 * t[0] * cross
    return (value > 0) - (value < 0)


# ----- batch float evaluation ----------------------------------------------
#
# The sampling checkers test thousands of points per polynomial; evaluating
# point by point in Python would dominate the runtime, so these helpers take
# an (N, n) array of points at once.


def eval_many(p: SubsetPoly, points: np.ndarray) -> np.ndarray:
    """Evaluate g_p at every row of an (N, n) float array."""
    pts = _point_array(p, points)
    coeffs = _float_coeffs(p)
    out = np.empty(pts.shape[0], dtype=float)
    for rows in _blocks(p.n, pts.shape[0]):
        out[rows] = _superset_sums(coeffs, pts[rows])[0]
    return out


def log_hessian_many(p: SubsetPoly, points: np.ndarray) -> np.ndarray:
    """Hessians of log g_p at every row of an (N, n) array of positive points.

    Raises ValueError where a point takes a log-Hessian out of the floats.
    """
    pts = _point_array(p, points)
    if np.any(pts <= 0.0) or not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite and strictly positive")
    coeffs = _log_coeffs(p)
    out = np.empty((pts.shape[0], p.n, p.n), dtype=float)
    with np.errstate(all="ignore"):
        for rows in _blocks(p.n, pts.shape[0]):
            if not np.isfinite(_log_hessians(_superset_sums(coeffs, pts[rows]), out[rows])).all():
                raise ValueError("points overflow the floats: a log-Hessian is not finite")
    return out


def log_hessian(p: SubsetPoly, point: Sequence[float]) -> np.ndarray:
    """Hessian of log g_p at one strictly positive point where g_p > 0."""
    return log_hessian_many(p, [point])[0]
