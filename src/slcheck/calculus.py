"""Differential structure of subset polynomials, computed in coefficient space.

For a multi-affine g the Hessian of log g on the positive orthant is

    H(x) = (g(x) * D2g(x) - grad g(x) grad g(x)^T) / g(x)^2,

where D2g has zero diagonal because no variable appears squared.  Log
concavity of g at x is the statement that H(x) is negative semidefinite,
equivalently that the polynomial matrix

    M = grad g grad g^T - g * D2g        (entries are polynomials)

is positive semidefinite at x, since M evaluated at x equals -g(x)^2 H(x).

Both the float and the exact side work on the coefficient vector directly.

  * Float: the derivative table (`_superset_sums`) holds each iterated
    derivative d^B g(x) = sum_{S >= B} p(S) x^(S \\ B) that can be nonzero
    at a block of points, built by n superset-sum (Yates) stages: its rows
    are the down-closure of the support (`_Plan`, from `down_closure`,
    which the lattice route and the Lorentzian certificate read too), all
    2^n subsets when the full set has a weight.  g, its gradient and its
    Hessian are rows 0, {i} and {i, j} of that one table, a zero row where
    the derivative vanishes.  It is the only float evaluator.
    `log_hessian_many` reads it block by block, on coefficients rescaled
    by a power of two (see `_log_coeffs`), and `log_hessian` is
    `log_hessian_many` at one point; `eval_many`, which no check calls,
    reads row 0 of one table.
  * Exact: `cleared_m_rows` forms M once, times L^2, from products of the
    integer coefficients of `SubsetPoly.cleared` (`poly.add_products`,
    under its monomial key).  `m_row_gaps` reads it and yields the
    diagonal dominance gap of each row, on which the dominance certificate
    decides, and the counterexample replay compares both with its
    references on these integers.
    `m_coefficient_matrices` groups the same integers by monomial into one
    symmetric integer matrix M_a per key, M(x) = sum_a x^a M_a / L^2, and
    `is_psd` decides each exactly for the coefficient-matrix certificate.
    M's rows come full and symmetric, M_ij and M_ji one dict formed once,
    and each row only when its reader asks for it: each reader forms the M
    it reads, and the dominance reader stops at its first failing row.
    `m_form` runs the same superset sums on the integer
    coefficients at a float point, read as exact dyadic rationals, and
    returns the exact sign of v^T M(x) v, which proves a sampled violation.

No code in the package calls `m_matrix`, the same integers divided by L^2
as rows of `SparsePoly` entries: the tests read it.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .poly import SparsePoly, SubsetPoly, add_products

# A derivative table has a row per derivative subset that can be nonzero (see
# `_Plan`; all 2**n of them when the full set has a weight) and a column per
# point; points are taken in blocks that keep it near TABLE_CELLS float64
# cells (256 KiB), so memory stays flat in the number of points.  A block
# holds at least MIN_BLOCK_POINTS points (so a table of more than 2**11 rows
# outgrows the budget, up to 8 MiB at 2**16 rows): with fewer, each Yates
# stage costs more in loop overhead than in arithmetic.
TABLE_CELLS = 1 << 15
MIN_BLOCK_POINTS = 16
# The supports whose table plans `_plan` keeps.  A plan holds two row
# indices per stage update, up to 8.5 MiB at n = 16 (about one block's
# table); the cells of a sweep share a few.
PLAN_CACHE = 16


# ----- the derivative table --------------------------------------------------


@dataclass(frozen=True)
class _Plan:
    """The rows of a support's derivative table and the stages that fill them.

    d^B g is identically zero unless B lies inside some nonzero mask, so
    the table keeps only that down-closure of the support.  When the full
    set has a weight that is every subset: kept is None, row B is mask B,
    and the stages run over strided halves of the table.  Otherwise the
    kept masks fill the rows in increasing order (mask 0 first, when any is
    kept), one zero row follows for every other subset, and stage k is
    (k, dst, src): src the rows of the kept masks that hold bit k, dst the
    rows of the same masks without it, which the closure keeps too.  A
    variable that no kept mask holds has no stage.  grad and pairs give
    the rows of {i} and {i, j} (the row of {i} on the diagonal); block is
    the points per block.
    """

    kept: np.ndarray | None
    stages: tuple[tuple[int, np.ndarray, np.ndarray], ...]
    grad: np.ndarray
    pairs: np.ndarray
    rows: int

    @property
    def block(self) -> int:
        return max(MIN_BLOCK_POINTS, TABLE_CELLS // self.rows)


def down_closure(n: int, masks: Iterable[int]) -> np.ndarray:
    """inside[t] over the 2**n subsets t: whether t lies inside some mask."""
    inside = np.zeros(1 << n, dtype=bool)
    inside[list(masks)] = True
    for k in range(n):  # t is inside some mask when t | bit k is
        halves = inside.reshape(-1, 2, 1 << k)
        halves[:, 0] |= halves[:, 1]
    return inside


@lru_cache(maxsize=PLAN_CACHE)
def _plan(n: int, masks: tuple[int, ...]) -> _Plan:
    """The table plan of the nonzero masks (in increasing order) of an n-variable polynomial."""
    bits = 1 << np.arange(n)
    pairs = bits[:, None] | bits[None, :]
    if masks and masks[-1] == (1 << n) - 1:
        return _Plan(None, (), bits, pairs, 1 << n)
    kept = np.flatnonzero(down_closure(n, masks))
    row = np.full(1 << n, len(kept))
    row[kept] = np.arange(len(kept))
    stages = []
    for k in range(n):
        src = kept[kept >> k & 1 == 1]
        if len(src):
            stages.append((k, row[src ^ 1 << k], row[src]))
    return _Plan(kept, tuple(stages), row[bits], row[pairs], len(kept) + 1)


def _table_plan(p: SubsetPoly) -> _Plan:
    return _plan(p.n, p.nonzero_masks)


def _point_array(p: SubsetPoly, points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != p.n:
        raise ValueError(f"expected an (N, {p.n}) point array, got shape {pts.shape}")
    return pts


def _superset_sums(coeffs: np.ndarray, pts: np.ndarray, plan: _Plan) -> np.ndarray:
    """The derivative table of the float coefficient vector at the rows of pts.

    Stage k adds x_k times each row holding variable k to the row without
    it.  Afterwards row B has summed p(S) x^(S \\ B) over every S >= B:
    variables outside B were multiplied in at their stage, and the rows of
    B never changed at the stages of its own variables.  So row 0 is g, row
    {i} the partial derivative in x_(i+1), row {i, j} a mixed second one.

    A plan that keeps fewer than 2**n rows skips only updates from rows
    outside the down-closure, which hold +0.0: at finite points each would
    add x_k * 0.0 = +0.0 to a nonnegative row, so every kept row comes out
    bit for bit as in the full table.
    """
    m, n = pts.shape
    if plan.kept is None:
        table = np.repeat(coeffs[:, None], m, axis=1)
        for k in range(n):
            halves = table.reshape(-1, 2, 1 << k, m)
            halves[:, 0] += pts[:, k] * halves[:, 1]
        return table
    table = np.zeros((plan.rows, m))
    table[:-1] = coeffs[plan.kept, None]
    for k, dst, src in plan.stages:
        update = table.take(src, axis=0)
        update *= pts[:, k]
        update += table.take(dst, axis=0)
        table[dst] = update
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


def _log_hessians(table: np.ndarray, plan: _Plan, out: np.ndarray) -> np.ndarray:
    """Write (g D2g - grad g grad g^T) / g^2 at the m points of a table into out.

    out has shape (m, n, n).  Raises ValueError unless g > 0 at every point,
    and unless g^2 is finite there: past that it would divide a finite
    numerator into zeros.
    """
    if np.any(table[0] <= 0.0):
        raise ValueError("polynomial is not positive at every sample point")
    n = out.shape[1]
    g = table[0][:, None, None]
    g2 = g * g
    if not np.isfinite(g2).all():
        raise ValueError("points overflow the floats: g^2 is not finite")
    grad = table[plan.grad].T
    out[:] = table[plan.pairs].transpose(2, 0, 1)
    # The pair row of (i, i) is the row of d_i g; D2g has zero diagonal.
    out[:, np.arange(n), np.arange(n)] = 0.0
    out *= g
    out -= grad[:, :, None] * grad[:, None, :]
    out /= g2
    return out


# ----- exact M matrix on integer coefficients ----------------------------------


def _cleared_terms(p: SubsetPoly) -> list[tuple[int, int]]:
    """The (mask, L * coefficient) pairs of p's nonzero coefficients."""
    w = p.cleared[0]
    return [(s, w[s]) for s in p.nonzero_masks]


def _derivative_terms(terms: list[tuple[int, int]], mask: int) -> list[tuple[int, int]]:
    """The terms of the derivative over the variables in mask."""
    return [(s ^ mask, c) for s, c in terms if s & mask == mask]


# M's rows, as `cleared_m_rows` yields them.
Rows = Iterable[list[dict[int, int]]]


def cleared_m_rows(p: SubsetPoly) -> Iterator[list[dict[int, int]]]:
    """Row by row, the entries L^2 M_ij, as integer dicts.

    L clears the denominators of p (`SubsetPoly.cleared`), so M scales by
    L^2, and each dict is keyed by `poly.add_products`'s monomial key.
    Row i is formed only when it is asked for, and is full: its entry j < i
    is the dict that row j built, so M_ij and M_ji are one object, formed
    once.
    """
    n = p.n
    terms = _cleared_terms(p)
    grads = [_derivative_terms(terms, 1 << i) for i in range(n)]
    rows: list[list[dict[int, int]]] = []
    for i in range(n):
        row = [rows[j][i] for j in range(i)]
        for j in range(i, n):
            entry: dict[int, int] = {}
            add_products(n, entry, grads[i], grads[j], 1)
            if j != i:
                add_products(n, entry, terms, _derivative_terms(terms, 1 << i | 1 << j), -1)
            row.append(entry)
        rows.append(row)
        yield row


def m_matrix(p: SubsetPoly) -> tuple[tuple[SparsePoly, ...], ...]:
    """The polynomial matrix grad g grad g^T - g * D2g, exactly, as rows.

    Entry (i, j) is m[i][j], equal to m[j][i].  Positive semidefiniteness
    of this matrix at a positive point is equivalent to negative
    semidefiniteness of the log-Hessian there.  Diagonal entries reduce to
    squared first derivatives.  The entries are those of `cleared_m_rows`,
    which the dominance decision reads, divided by L^2.
    """
    return tuple(
        tuple(
            SparsePoly(p.n, {key: Fraction(c, p.cleared[1] ** 2) for key, c in entry.items() if c})
            for entry in row
        )
        for row in cleared_m_rows(p)
    )


def m_row_gaps(p: SubsetPoly) -> Iterator[dict[int, int]]:
    """Row by row, the diagonal dominance gap of M in integer coefficients.

    Yields for each i the coefficients of L^2 (M_ii - sum_{j != i} |M_ij|),
    with |.| taken coefficient-wise after like terms are combined, under
    `poly.add_products`'s monomial key.  Reads the rows of
    `cleared_m_rows(p)` one at a time, so a caller that stops at the first
    failing row pays for that row only.
    """
    for i, row in enumerate(cleared_m_rows(p)):
        gap = dict(row[i])
        for j, entry in enumerate(row):
            if j != i:
                for key, v in entry.items():
                    gap[key] = gap.get(key, 0) - abs(v)
        yield gap


def m_coefficient_matrices(p: SubsetPoly) -> dict[int, list[list[int]]]:
    """L^2 M grouped by monomial: M(x) = sum over keys a of x^a M_a / L^2.

    M_a is the symmetric n x n integer matrix of the coefficients of x^a in
    the entries of `cleared_m_rows`, keyed by `add_products`'s monomial key.
    A key appears when some entry has a nonzero coefficient there.
    """
    mats: dict[int, list[list[int]]] = defaultdict(lambda: [[0] * p.n for _ in range(p.n)])
    for i, row in enumerate(cleared_m_rows(p)):
        for j, entry in enumerate(row):
            for key, c in entry.items():
                if c:
                    mats[key][i][j] = c
    return mats


def is_psd(a: Sequence[Sequence[int]]) -> bool:
    """Whether a symmetric integer matrix is positive semidefinite, exactly.

    A weakly diagonally dominant matrix with nonnegative diagonal is PSD
    (Gershgorin), as most coefficient matrices of M are.  Any other goes
    through a fraction-free symmetric elimination (Bareiss) with diagonal
    pivoting: each step pivots on the largest remaining diagonal entry d
    and replaces each remaining entry by (d a_ij - a_ik a_kj) / d', d' the
    previous pivot.  The division is exact, each entry then being a minor
    of the input (Sylvester's identity), and the remaining block is a
    positive multiple of a Schur complement, PSD exactly when the input is.
    A negative diagonal entry refutes; when the largest is 0, the block is
    PSD only if it is all zero.
    """
    if all(2 * row[i] >= sum(map(abs, row)) for i, row in enumerate(a)):
        return True
    a = [list(row) for row in a]
    rest = list(range(len(a)))
    prev = 1
    while rest:
        diag = [a[i][i] for i in rest]
        if min(diag) < 0:
            return False
        d = max(diag)
        if d == 0:
            return all(a[i][j] == 0 for i in rest for j in rest)
        k = rest.pop(diag.index(d))
        for i in rest:
            for j in rest:
                a[i][j] = (d * a[i][j] - a[i][k] * a[k][j]) // prev
        prev = d
    return True


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
    """Evaluate g_p at every row of an (N, n) float array, row 0 of one table."""
    return _superset_sums(_float_coeffs(p), _point_array(p, points), _table_plan(p))[0]


def log_hessian_many(p: SubsetPoly, points: np.ndarray) -> np.ndarray:
    """Hessians of log g_p at every row of an (N, n) array of positive points.

    Raises ValueError where a point takes a log-Hessian out of the floats.
    """
    pts = _point_array(p, points)
    if np.any(pts <= 0.0) or not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite and strictly positive")
    coeffs = _log_coeffs(p)
    plan = _table_plan(p)
    out = np.empty((pts.shape[0], p.n, p.n), dtype=float)
    with np.errstate(all="ignore"):
        # Each block's table goes straight to _log_hessians: one table is alive at a time.
        for start in range(0, len(pts), plan.block):
            rows = slice(start, start + plan.block)
            if not np.isfinite(
                _log_hessians(_superset_sums(coeffs, pts[rows], plan), plan, out[rows])
            ).all():
                raise ValueError("points overflow the floats: a log-Hessian is not finite")
    return out


def log_hessian(p: SubsetPoly, point: Sequence[float]) -> np.ndarray:
    """Hessian of log g_p at one strictly positive point where g_p > 0."""
    return log_hessian_many(p, [point])[0]
