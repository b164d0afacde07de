"""The built-in counterexample and its reproduction report."""

from __future__ import annotations

from fractions import Fraction

from slcheck.calculus import cleared_m_rows
from slcheck.counterexample import (
    EXPECTED_NLC_LHS,
    EXPECTED_NLC_RHS,
    proportionality_scalar,
    reference_matrix,
    reference_row_gap,
    run_reproduction,
)
from slcheck.poly import SparsePoly
from conftest import sparse_eval_exact, sparse_poly


class TestFrozenValues:
    def test_weights(self, raw_counterexample):
        assert raw_counterexample.coeffs[0] == 4
        assert all(raw_counterexample.coeffs[1 << k] == 3 for k in range(3))
        assert all(raw_counterexample.coeffs[m] == 3 for m in (0b011, 0b101, 0b110))
        assert raw_counterexample.coeffs[0b111] == 0
        assert raw_counterexample.coeff_sum() == 22

    def test_distribution(self, counterexample):
        assert counterexample.coeff_sum() == 1
        assert counterexample.coeffs[0] == Fraction(2, 11)
        assert counterexample.coeffs[0b001] == Fraction(3, 22)

    def test_expected_products(self):
        assert EXPECTED_NLC_LHS == Fraction(3, 22) * Fraction(3, 22)
        assert EXPECTED_NLC_RHS == Fraction(3, 22) * Fraction(2, 11)
        assert EXPECTED_NLC_LHS < EXPECTED_NLC_RHS


def nonzero(entry: dict) -> dict:
    return {key: c for key, c in entry.items() if c}


class TestReferenceMatrix:
    def test_entries(self):
        r = reference_matrix()
        # Row-0 diagonal: 3(1 + y + z)^2, no x anywhere in row 0's diagonal.
        want = sparse_poly(
            3,
            {
                (0, 0, 0): 3,
                (0, 2, 0): 3,
                (0, 0, 2): 3,
                (0, 1, 0): 6,
                (0, 0, 1): 6,
                (0, 1, 1): 6,
            },
        )
        assert nonzero(r[0][0]) == want.terms
        # The (0, 1) entry lives in the missing variable z.
        assert nonzero(r[0][1]) == sparse_poly(3, {(0, 0, 0): -1, (0, 0, 1): 3, (0, 0, 2): 3}).terms
        assert r[0][1] == r[1][0]
        assert all(type(c) is int for row in r for entry in row for c in entry.values())

    def test_value_at_ones(self):
        r = reference_matrix()
        vals = [[sparse_eval_exact(SparsePoly(3, e), (1, 1, 1)) for e in row] for row in r]
        assert vals == [
            [27, 5, 5],
            [5, 27, 5],
            [5, 5, 27],
        ]

    def test_row_gap(self):
        text, gap = reference_row_gap()
        assert text == "1 + 3*y + 3*z + 6*y*z"
        assert nonzero(gap) == sparse_poly(
            3, {(0, 0, 0): 1, (0, 1, 0): 3, (0, 0, 1): 3, (0, 1, 1): 6}
        ).terms


def scaled(m, q):
    return [[{key: c * q for key, c in e.items()} for e in row] for row in m]


class TestProportionality:
    def test_normalized_scalar(self, counterexample):
        # The integers L^2 M, L = 22, are 3 times the reference: M is 3/484 times it.
        assert counterexample.cleared[1] == 22
        assert proportionality_scalar(cleared_m_rows(counterexample), reference_matrix()) == 3

    def test_unnormalized_scalar(self, raw_counterexample):
        # The raw weights are integers, L = 1: M itself is 3 times the reference.
        assert raw_counterexample.cleared[1] == 1
        assert proportionality_scalar(cleared_m_rows(raw_counterexample), reference_matrix()) == 3

    def test_self_proportionality(self):
        r = reference_matrix()
        assert proportionality_scalar(r, r) == 1
        assert proportionality_scalar(scaled(r, Fraction(5, 7)), r) == Fraction(5, 7)

    def test_ignores_zero_coefficients(self):
        # Row dicts keep zero sums; a zero coefficient on either side is no term.
        r = reference_matrix()
        padded = [[{**e, 1 << 6: 0} for e in row] for row in r]
        assert proportionality_scalar(padded, r) == 1
        assert proportionality_scalar(r, padded) == 1

    def test_rejects_non_proportional(self, counterexample, raw_counterexample):
        r = reference_matrix()
        assert proportionality_scalar(cleared_m_rows(counterexample.derivative(1)), r) is None
        # A negative multiple is not accepted: the scalar must be positive.
        assert proportionality_scalar(scaled(r, Fraction(-1)), r) is None
        # Nor is a matrix equal to the reference in all entries but one.
        off = scaled(r, 1)
        off[2][2][0] += 1
        assert proportionality_scalar(off, r) is None
        assert proportionality_scalar([[{}]], [[{}]]) is None


class TestReproduction:
    def test_all_checks_pass(self):
        report = run_reproduction()
        assert report.passed
        assert [c.name for c in report.checks] == [
            "lattice-condition-violated",
            "dominance-certificate",
            "first-derivative-eigenvalues",
            "reference-proportionality",
            "row-gap-form",
        ]
        assert all(line.startswith("ok  ") for line in report.lines())

    def test_detail_lines_carry_the_numbers(self):
        report = run_reproduction()
        by_name = {c.name: c.detail for c in report.checks}
        assert "9/484 < 12/484" in by_name["lattice-condition-violated"]
        assert "9/484 * E" in by_name["first-derivative-eigenvalues"]
        assert "3/484" in by_name["reference-proportionality"]
        assert "1 + 3*y + 3*z + 6*y*z" in by_name["row-gap-form"]
