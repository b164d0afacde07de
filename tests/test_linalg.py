"""The eigen solve and the NSD threshold, against exact rational identities;
the sampler's LDL^T screen against eigvalsh."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from slcheck.linalg import SCREEN_GUARD, eigen_sym, nsd_screen, nsd_threshold


def random_symmetric_rational(rng: np.random.Generator, n: int) -> list[list[Fraction]]:
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8)))
            rows[i][j] = rows[j][i] = v
    return rows


def leibniz_det(rows: list[list[Fraction]]) -> Fraction:
    """Exact determinant as the signed sum over permutations (small n only)."""
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        total += (-1) ** inversions * math.prod(rows[i][perm[i]] for i in range(n))
    return total


class TestEigenSym:
    def test_identity(self):
        assert eigen_sym(np.eye(3)) == (1.0, 1.0, 1.0)

    def test_one_by_one(self):
        assert eigen_sym([[-2.5]]) == (-2.5,)

    def test_rank_two_projector_block(self):
        # Scaled outer product on the (y, z) coordinates; spectrum {0, 0, 2}.
        w = [[0.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]]
        np.testing.assert_allclose(eigen_sym(w), [0.0, 0.0, 2.0], atol=1e-14)

    def test_reference_matrix_at_ones(self):
        # 27 on the diagonal, 5 off: eigenvalues 22 (twice) and 37.
        r = [[27, 5, 5], [5, 27, 5], [5, 5, 27]]
        np.testing.assert_allclose(eigen_sym(r), [22.0, 22.0, 37.0], rtol=1e-13)

    def test_trace_and_determinant_identities(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            rows = random_symmetric_rational(rng, n)
            ev = eigen_sym([[float(v) for v in row] for row in rows])
            det_exact = float(leibniz_det(rows))
            trace_exact = float(sum(rows[i][i] for i in range(n)))
            scale = 1.0 + max(abs(v) for v in ev)
            assert abs(sum(ev) - trace_exact) <= 1e-10 * scale
            prod = 1.0
            for v in ev:
                prod *= v
            assert abs(prod - det_exact) <= 1e-8 * (1.0 + abs(det_exact) + scale**n)

    def test_rejects_non_square(self):
        # eigen_sym validates nothing itself: numpy's eigvalsh refuses the shape.
        with pytest.raises(np.linalg.LinAlgError):
            eigen_sym([[1.0, 2.0, 3.0], [2.0, 1.0, 0.0]])

    def test_result_is_sorted(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            a = rng.standard_normal((4, 4))
            ev = eigen_sym((a + a.T) / 2.0)
            assert all(ev[k] <= ev[k + 1] for k in range(3))


class TestThreshold:
    def test_nsd_threshold_scale(self):
        assert nsd_threshold([[0.0]], 1e-9) == 1e-9
        assert nsd_threshold([[3.0, -4.0], [-4.0, 1.0]], 1e-9) == 1e-9 * 5.0

    def test_max_abs_entry(self):
        assert nsd_threshold([[1.0, -7.5], [-7.5, 2.0]], 1.0) == 8.5

    def test_stack_gets_one_threshold_per_matrix(self):
        stack = [[[0.0, 0.0], [0.0, 0.0]], [[3.0, -4.0], [-4.0, 1.0]], [[1.0, -7.5], [-7.5, 2.0]]]
        np.testing.assert_array_equal(nsd_threshold(stack, 1.0), [1.0, 5.0, 8.5])


def spectral_stack(rng: np.random.Generator, n: int, count: int, tol: float, scale: float):
    """count symmetric n x n matrices of each of four kinds, entries about scale:
    NSD; indefinite; NSD with exact zero rows and columns (dead variables);
    and NSD but for a top eigenvalue planted at t (1 - 1e-6) or t (1 + 1e-6),
    t their own `nsd_threshold` (a fixed point, reached in a few passes).
    """
    q = np.linalg.qr(rng.standard_normal((4 * count, n, n)))[0]
    values = -rng.uniform(0.1, 1.0, (4 * count, n)) * scale
    values[count : 2 * count] = rng.standard_normal((count, n)) * scale

    def build() -> np.ndarray:
        return (q * values[:, None, :]) @ q.transpose(0, 2, 1)

    planted = slice(3 * count, 4 * count)
    factor = 1.0 + 1e-6 * rng.choice((-1.0, 1.0), count)
    for _ in range(4):
        values[planted, -1] = nsd_threshold(build()[planted], tol) * factor
    stack = build()
    dead = rng.random((count, n)) < 0.3
    block = stack[2 * count : 3 * count]
    block[dead] = 0.0
    block.transpose(0, 2, 1)[dead] = 0.0
    return stack


class TestScreen:
    def test_candidates_hold_every_point_eigvalsh_flags(self):
        rng = np.random.default_rng(171)
        flagged_total = cleared_total = 0
        cases = itertools.product(range(1, 17), (0.0, 1e-9, 1e-3), (1e-150, 1.0, 1e150))
        for n, tol, scale in cases:
            stack = spectral_stack(rng, n, 16, tol, scale)
            thresholds, pivots = nsd_screen(stack, tol)
            np.testing.assert_array_equal(thresholds, nsd_threshold(stack, tol))
            tops = np.linalg.eigvalsh(stack)[:, -1]
            flagged = tops > thresholds
            candidates = ~(pivots.min(axis=1) > 0.0)
            assert not np.any(flagged & ~candidates), (n, tol, scale)
            # The screen is not "flag everything": a top eigenvalue well under
            # the shift s is cleared, and its smallest pivot bounds s - top.
            big = nsd_threshold(stack, 1.0)
            guard = np.maximum(thresholds / 2, SCREEN_GUARD * np.finfo(float).eps * big)
            shift = thresholds - guard
            # The first pivot is the shifted diagonal: s is t - g bit for bit.
            np.testing.assert_array_equal(pivots[:, 0], -stack[:, 0, 0] + shift)
            clear = tops < shift - 1e-6 * big
            assert not np.any(candidates & clear), (n, tol, scale)
            assert np.all(pivots[clear].min(axis=1) >= (shift - tops)[clear] - 1e-9 * big[clear])
            flagged_total += flagged.sum()
            cleared_total += clear.sum()
        assert flagged_total > 2500 and cleared_total > 2500, (flagged_total, cleared_total)

    def test_overflowing_threshold_clears_with_infinite_pivots(self):
        stack = np.array([[[-4.0, 1.0], [1.0, -3.0]], [[0.5, 0.0], [0.0, -0.5]]])
        thresholds, pivots = nsd_screen(stack, 1e308)
        assert np.isinf(thresholds[0]) and np.all(pivots[0] == np.inf)
        assert np.isfinite(thresholds[1]) and np.all(pivots[1] > 0.0)

    def test_planted_tops_fall_either_side_of_the_threshold(self):
        # At tolerance 1e-3 a relative 1e-6 is far above rounding, so eigvalsh
        # flags exactly the tops planted above t, and the screen takes them all.
        rng = np.random.default_rng(172)
        for n in range(1, 17):
            count = 16
            stack = spectral_stack(rng, n, count, 1e-3, 1.0)[3 * count :]
            thresholds, pivots = nsd_screen(stack, 1e-3)
            tops = np.linalg.eigvalsh(stack)[:, -1]
            above = np.abs(tops / thresholds - 1.0 - 1e-6) < 1e-8
            below = np.abs(tops / thresholds - 1.0 + 1e-6) < 1e-8
            assert np.all(above | below) and above.any() and below.any(), n
            assert np.all(~(pivots.min(axis=1) > 0.0)[above]), n
