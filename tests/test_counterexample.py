"""The built-in counterexample and its reproduction report."""

from __future__ import annotations

from fractions import Fraction

from slcheck import (
    EXPECTED_NLC_LHS,
    EXPECTED_NLC_RHS,
    SparsePoly,
    m_matrix,
    proportionality_scalar,
    reference_matrix,
    reference_row_gap,
    run_reproduction,
)


class TestFrozenValues:
    def test_weights(self, raw_counterexample):
        assert raw_counterexample.coeff(0) == 4
        assert all(raw_counterexample.coeff(1 << k) == 3 for k in range(3))
        assert all(raw_counterexample.coeff(m) == 3 for m in (0b011, 0b101, 0b110))
        assert raw_counterexample.coeff(0b111) == 0
        assert raw_counterexample.coeff_sum() == 22

    def test_distribution(self, counterexample):
        assert counterexample.is_distribution()
        assert counterexample.coeff(0) == Fraction(2, 11)
        assert counterexample.coeff(0b001) == Fraction(3, 22)

    def test_expected_products(self):
        assert EXPECTED_NLC_LHS == Fraction(3, 22) * Fraction(3, 22)
        assert EXPECTED_NLC_RHS == Fraction(3, 22) * Fraction(2, 11)
        assert EXPECTED_NLC_LHS < EXPECTED_NLC_RHS


class TestReferenceMatrix:
    def test_entries(self):
        r = reference_matrix()
        # Row-0 diagonal: 3(y + z + 1)^2, no x anywhere in row 0's diagonal.
        want = SparsePoly.make(
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
        assert r[0][0] == want
        # The (0, 1) entry lives in the missing variable z.
        assert r[0][1] == SparsePoly.make(3, {(0, 0, 0): -1, (0, 0, 1): 3, (0, 0, 2): 3})
        assert r[0][1] == r[1][0]

    def test_value_at_ones(self):
        vals = [[e.eval_exact((1, 1, 1)) for e in row] for row in reference_matrix()]
        assert vals == [
            [27, 5, 5],
            [5, 27, 5],
            [5, 5, 27],
        ]

    def test_row_gap(self):
        assert reference_row_gap() == SparsePoly.make(
            3, {(0, 0, 0): 1, (0, 1, 0): 3, (0, 0, 1): 3, (0, 1, 1): 6}
        )
        assert reference_row_gap().format() == "1 + 3*y + 3*z + 6*y*z"


def scaled(m, q):
    return tuple(tuple(e * q for e in row) for row in m)


class TestProportionality:
    def test_normalized_scalar(self, counterexample):
        q = proportionality_scalar(m_matrix(counterexample), reference_matrix())
        assert q == Fraction(3, 484)

    def test_unnormalized_scalar(self, raw_counterexample):
        # Scaling the weights by 22 scales M by 22 squared.
        q = proportionality_scalar(m_matrix(raw_counterexample), reference_matrix())
        assert q == 3

    def test_self_proportionality(self):
        r = reference_matrix()
        assert proportionality_scalar(r, r) == 1
        assert proportionality_scalar(scaled(r, Fraction(5, 7)), r) == Fraction(5, 7)

    def test_rejects_non_proportional(self, counterexample, raw_counterexample):
        r = reference_matrix()
        assert proportionality_scalar(m_matrix(counterexample.derivative(1)), r) is None
        # A negative multiple is not accepted: the scalar must be positive.
        assert proportionality_scalar(scaled(r, Fraction(-1)), r) is None


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
        assert "3/484" in by_name["reference-proportionality"]
        assert "1 + 3*y + 3*z + 6*y*z" in by_name["row-gap-form"]

    def test_seed_independence(self):
        # Different streams, same verdicts: the sampled pieces only confirm.
        assert run_reproduction(seed=1).passed
        assert run_reproduction(seed=2).passed
