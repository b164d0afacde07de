"""Table gradient, log-Hessian, symbolic M matrix, and batch evaluation."""

from __future__ import annotations

import warnings
from fractions import Fraction

import numpy as np
import pytest

from slcheck import SubsetPoly
from slcheck.calculus import (
    _float_coeffs,
    _superset_sums,
    _table_plan,
    down_closure,
    eval_many,
    log_hessian,
    log_hessian_many,
    m_matrix,
)
from conftest import (
    eval_exact,
    exact_log_hessian,
    exact_point,
    fd_log_hessian,
    matrix_close,
    random_positive_point,
    random_subset_poly,
    sparse_eval_exact,
    sparse_poly,
)


def gradient(p: SubsetPoly, point: tuple[float, ...]) -> np.ndarray:
    """The gradient of g: the rows {i} of the derivative table."""
    plan = _table_plan(p)
    return _superset_sums(_float_coeffs(p), np.array([point]), plan)[plan.grad, 0]


class TestGradient:
    def test_counterexample_at_ones(self, counterexample):
        np.testing.assert_allclose(
            gradient(counterexample, (1.0, 1.0, 1.0)), [9 / 22] * 3, rtol=1e-14
        )

    def test_constant_has_zero_gradient(self):
        p = SubsetPoly.from_weights(3, {0: 5})
        np.testing.assert_array_equal(gradient(p, (1.0, 2.0, 3.0)), np.zeros(3))

    def test_single_pair_monomial(self):
        p = SubsetPoly.from_weights(2, {0b11: 1})  # g = xy
        np.testing.assert_allclose(gradient(p, (2.0, 3.0)), [3.0, 2.0], rtol=1e-15)


class TestLogHessian:
    def test_counterexample_at_ones(self, counterexample):
        h = log_hessian(counterexample, (1.0, 1.0, 1.0))
        want = np.full((3, 3), -15.0 / 484.0)
        np.fill_diagonal(want, -81.0 / 484.0)
        np.testing.assert_allclose(h, want, atol=1e-12)

    def test_positive_constant_is_flat(self):
        h = log_hessian(SubsetPoly.from_weights(2, {0: 1}), (0.5, 2.0))
        np.testing.assert_array_equal(h, np.zeros((2, 2)))

    def test_first_derivative_rank_one_pattern(self, counterexample):
        # d/dx of the counterexample is affine in (y, z); its log-Hessian is
        # -1/(1+y+z)^2 on the (y, z) block and zero on the x row/column.
        d1 = counterexample.derivative(1)
        h = log_hessian(d1, (7.0, 1.0, 1.0))
        want = np.zeros((3, 3))
        want[1:, 1:] = -1.0 / 9.0
        np.testing.assert_allclose(h, want, atol=1e-14)

    def test_requires_positive_point(self, counterexample):
        with pytest.raises(ValueError):
            log_hessian(counterexample, (1.0, -1.0, 1.0))

    def test_requires_positive_value(self):
        with pytest.raises(ValueError):
            log_hessian(SubsetPoly.from_weights(1, {}), (1.0,))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            n = int(rng.integers(2, 4))
            p = random_subset_poly(rng, n)
            for _ in range(4):
                x = random_positive_point(rng, n, lo=0.1, hi=10.0)
                assert matrix_close(fd_log_hessian(p, x, h=1e-4), log_hessian(p, x), rel=1e-5)

    def test_scale_invariance(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            p = random_subset_poly(rng, n)
            lam = Fraction(int(rng.integers(1, 50)), int(rng.integers(1, 9)))
            x = random_positive_point(rng, n)
            if eval_exact(p, exact_point(x)) <= 0:
                continue
            a = log_hessian(p, x)
            b = log_hessian(p.scale(lam), x)
            assert float(np.max(np.abs(a - b))) <= 1e-12 * (1.0 + float(np.max(np.abs(a))))


class TestMMatrix:
    def test_diagonal_is_squared_gradient(self, raw_counterexample):
        m = m_matrix(raw_counterexample)
        # d/dx of the unnormalized weights is 3(1 + y + z); squared:
        expected = sparse_poly(
            3,
            {
                (0, 0, 0): 9,
                (0, 1, 0): 18,
                (0, 0, 1): 18,
                (0, 2, 0): 9,
                (0, 0, 2): 9,
                (0, 1, 1): 18,
            },
        )
        assert m[0][0] == expected

    def test_off_diagonal_frozen_value(self, raw_counterexample):
        m = m_matrix(raw_counterexample)
        # (d_x g)(d_y g) - g d_xy g = 3(3z^2 + 3z - 1) for the raw weights
        expected = sparse_poly(3, {(0, 0, 2): 9, (0, 0, 1): 9, (0, 0, 0): -3})
        assert m[0][1] == expected
        assert m[1][0] == expected

    def test_product_monomial(self):
        p = SubsetPoly.from_weights(2, {0b11: 1})  # g = xy
        m = m_matrix(p)
        assert m[0][0] == sparse_poly(2, {(0, 2): 1})  # y^2
        assert m[1][1] == sparse_poly(2, {(2, 0): 1})  # x^2
        assert m[0][1].terms == {}

    def test_quadratic_scaling_exact(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            p = random_subset_poly(rng, n)
            lam = Fraction(int(rng.integers(1, 40)), int(rng.integers(1, 7)))
            assert m_matrix(p.scale(lam)) == tuple(
                tuple(e * (lam * lam) for e in row) for row in m_matrix(p)
            )

    def test_consistency_with_log_hessian(self):
        # M(x) / g(x)^2 = -H(x), with the left side in rationals at the exact
        # value of the float point.
        rng = np.random.default_rng(24)
        checked = 0
        while checked < 100:
            n = int(rng.integers(1, 4))
            p = random_subset_poly(rng, n)
            m = m_matrix(p)
            x = random_positive_point(rng, n)
            xq = exact_point(x)
            g = eval_exact(p, xq)
            if g <= 0:
                continue
            lhs = np.array([[float(sparse_eval_exact(e, xq) / (g * g)) for e in row] for row in m])
            rhs = -log_hessian(p, x)
            assert matrix_close(lhs, rhs, rel=1e-9)
            checked += 1

    def test_entries_match_exact_derivatives(self):
        # M_ij(x) = d_i g(x) d_j g(x) - g(x) d_ij g(x), every factor taken by
        # conftest.eval_exact at a rational point, compared exactly.
        rng = np.random.default_rng(26)
        checked = 0
        for k in range(120):
            n = 1 + k % 5
            p = random_subset_poly(rng, n, zero_prob=(0.0, 0.3, 0.6)[k % 3])
            m = m_matrix(p)
            for _ in range(2):
                x = [Fraction(int(rng.integers(0, 30)), int(rng.integers(1, 12))) for _ in range(n)]
                values = [[sparse_eval_exact(e, x) for e in row] for row in m]
                g = eval_exact(p, x)
                d = [eval_exact(p.derivative(i + 1), x) for i in range(n)]
                for i in range(n):
                    for j in range(n):
                        dij = eval_exact(p.derivative_subset(1 << i | 1 << j), x) if i != j else 0
                        assert values[i][j] == d[i] * d[j] - g * dij, (p, x, i, j)
                        checked += 1
        assert checked > 2000

    def test_eval_exact_at_ones(self, counterexample):
        m = m_matrix(counterexample)
        assert sparse_eval_exact(m[0][0], (1, 1, 1)) == Fraction(81, 484)
        assert sparse_eval_exact(m[0][1], (1, 1, 1)) == Fraction(15, 484)


class TestDownClosure:
    def test_matches_a_superset_test(self):
        # t is in the down-closure exactly when some mask holds every element of t.
        rng = np.random.default_rng(28)
        for _ in range(300):
            n = int(rng.integers(0, 7))
            masks = np.flatnonzero(rng.random(1 << n) < rng.uniform(0.0, 0.5)).tolist()
            sets = [{i for i in range(n) if m >> i & 1} for m in masks]
            want = [any({i for i in range(n) if t >> i & 1} <= s for s in sets)
                    for t in range(1 << n)]
            got = down_closure(n, masks)
            assert got.dtype == bool and got.tolist() == want, (n, masks)


class TestBatchEvaluation:
    def test_eval_many_matches_scalar(self):
        rng = np.random.default_rng(25)
        p = random_subset_poly(rng, 3)
        pts = np.array([random_positive_point(rng, 3) for _ in range(40)])
        batch = eval_many(p, pts)
        for k in range(40):
            assert batch[k] == pytest.approx(float(eval_exact(p, exact_point(pts[k]))), rel=1e-13)

    def test_log_hessian_many_matches_scalar(self):
        # log_hessian shares the batch path, so the per-point reference is the
        # exact rational log-Hessian; n = 8 with 300 points spans several blocks.
        rng = np.random.default_rng(26)
        checked = 0
        while checked < 9:
            n, count = (3, 20) if checked < 8 else (8, 300)
            p = random_subset_poly(rng, n)
            pts = np.array([random_positive_point(rng, n) for _ in range(count)])
            if np.any(eval_many(p, pts) <= 0):
                continue
            batch = log_hessian_many(p, pts)
            for k in range(0, count, count // 20):
                assert matrix_close(batch[k], exact_log_hessian(p, tuple(pts[k])), rel=1e-10)
            checked += 1

    def test_rejects_nonpositive_points(self, counterexample):
        with pytest.raises(ValueError):
            log_hessian_many(counterexample, np.array([[1.0, 0.0, 1.0]]))

    def test_points_beyond_the_floats_are_refused_quietly(self, counterexample):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow the floats"):
                log_hessian_many(counterexample, np.full((4, 3), 1e160))
            # g = 1 + x1 x2 = 2 here, but the log-Hessian holds x2^2 / g^2.
            xy = SubsetPoly.from_weights(2, {0: 1, 0b11: 1})
            with pytest.raises(ValueError, match="a log-Hessian is not finite"):
                log_hessian_many(xy, np.array([[1e-200, 1e200]]))

    def test_refuses_points_where_g_squared_overflows(self, raw_counterexample):
        # At 1e120 g is about 1e240: finite, with a finite numerator, but g^2
        # is not, and dividing by it would return the zero matrix.
        with pytest.raises(ValueError, match="overflow the floats"):
            log_hessian(raw_counterexample, (1e120,) * 3)
        x = (1e70,) * 3  # g^2 near 1e281 is still a float: the usual answer
        assert matrix_close(log_hessian(raw_counterexample, x),
                            exact_log_hessian(raw_counterexample, x), rel=1e-10)

    def test_out_of_range_coefficients_rescale_exactly(self):
        # Weights near 1e-400 fall below the floats, near 1e-200 their squares
        # do, and near 1e400 they overflow: the log-Hessian readers read the
        # polynomial times an exact power of two, so they agree bit for bit
        # with that rescale done in rationals.  g itself stays unscaled.
        rng = np.random.default_rng(27)
        p = random_subset_poly(rng, 4)
        pts = np.array([random_positive_point(rng, 4) for _ in range(50)])
        x = tuple(pts[0])
        for scale, back in (
            (Fraction(1, 10**400), 2**1330),
            (Fraction(1, 10**200), 2**665),
            (Fraction(10**400), Fraction(1, 2**1329)),
        ):
            far = p.scale(scale)
            rescaled = far.scale(back)
            assert np.array_equal(log_hessian_many(far, pts), log_hessian_many(rescaled, pts))
            assert np.array_equal(log_hessian(far, x), log_hessian(rescaled, x))
            assert matrix_close(log_hessian(far, x), exact_log_hessian(p, x), rel=1e-10)
        assert not np.any(eval_many(p.scale(Fraction(1, 10**400)), pts))
