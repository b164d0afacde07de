"""The validated eigen solve and the NSD threshold, against exact rational identities."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from slcheck import eigen_sym, nsd_threshold


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

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            eigen_sym([[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            eigen_sym([[1.0, 2.0, 3.0], [2.0, 1.0, 0.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            eigen_sym([[float("nan")]])

    def test_rejects_oversized(self):
        with pytest.raises(ValueError):
            eigen_sym(np.eye(17))

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
