"""Exact polynomial core: construction, evaluation, derivatives, rescaling."""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from slcheck import SubsetPoly
from slcheck.calculus import eval_many, log_hessian
from slcheck.checkers import trivial_log_concavity
from slcheck.family import make_family
from slcheck.poly import SparsePoly, add_products, as_fraction, format_fraction, sparse_from_subset
from conftest import (
    eval_exact,
    exact_point,
    exponents,
    fd_partial,
    permute,
    product_measure,
    random_permutation,
    random_positive_point,
    random_subset_poly,
    sparse_eval_exact,
    sparse_poly,
)


class TestConstruction:
    def test_from_weights_defaults_to_zero(self):
        p = SubsetPoly.from_weights(2, {0b01: "1/2"})
        assert p.coeffs[0b01] == Fraction(1, 2)
        assert p.coeffs[0b00] == 0
        assert p.coeffs[0b10] == 0

    def test_rejects_out_of_range_mask(self):
        with pytest.raises(ValueError):
            SubsetPoly.from_weights(2, {4: 1})

    def test_variable_cap(self):
        with pytest.raises(ValueError):
            SubsetPoly.from_weights(17, {})
        with pytest.raises(ValueError):
            SubsetPoly.from_weights(0, {})
        # Refused before anything is allocated for 2**n subsets.
        with pytest.raises(ValueError):
            SubsetPoly.from_weights(200, {})

    def test_floats_rejected_as_weights(self):
        with pytest.raises(TypeError):
            SubsetPoly.from_weights(1, {0: 0.5})

    def test_as_fraction_strings(self):
        assert as_fraction("3/22") == Fraction(3, 22)
        assert as_fraction("0.05") == Fraction(1, 20)
        assert as_fraction(7) == Fraction(7)
        with pytest.raises(ValueError, match="zero denominator"):
            as_fraction("1/0")
        # Fraction alone reads these as 3, 1000, 3/2, 3 and 10.
        for text in ("\u0663", "1_000", "\uff13/2", "\xa03", "1e1_0"):
            with pytest.raises(ValueError, match="ASCII without underscores"):
                as_fraction(text)
        assert as_fraction("-2") == -2  # a sign is for the caller to refuse

    def test_as_fraction_refuses_exponents_past_the_digit_limit(self):
        # Fraction would expand 10**|exponent| first: seconds at 1e7, minutes at 1e8.
        limit = sys.get_int_max_str_digits()
        assert as_fraction(f" 1e{limit} ") == 10**limit
        assert as_fraction(f"25E-{limit}") == Fraction(25, 10**limit)
        for text in (f"1e{limit + 1}", f"1E-{limit + 1}", "1e-100000000", "2.5e+1_0000_0000"):
            with pytest.raises(ValueError, match=f"exponent .* exceeds {limit} in magnitude"):
                as_fraction(text)
        # Malformed, or an exponent too long for int(): Fraction's own refusal.
        for text in ("1e", "e5", "1e" + "9" * (limit + 1)):
            with pytest.raises(ValueError):
                as_fraction(text)

    def test_product_measure_is_distribution(self):
        # The builder in conftest, behind every product-measure fixture.
        p = product_measure(["1/2", "1/3", "1/4"])
        assert p.coeff_sum() == 1
        # p({1}) = (1/2)(2/3)(3/4)
        assert p.coeffs[0b001] == Fraction(1, 2) * Fraction(2, 3) * Fraction(3, 4)


class TestCounterexampleValues:
    """Frozen values for the built-in counterexample distribution."""

    def test_coefficients(self, counterexample):
        p = counterexample
        assert p.coeffs[0] == Fraction(4, 22)
        for mask in (0b001, 0b010, 0b100, 0b011, 0b101, 0b110):
            assert p.coeffs[mask] == Fraction(3, 22)
        assert p.coeffs[0b111] == 0
        assert p.coeff_sum() == 1

    def test_eval_at_ones(self, counterexample):
        assert eval_many(counterexample, [[1.0, 1.0, 1.0]])[0] == pytest.approx(1.0, abs=1e-12)

    def test_eval_at_origin_gives_constant_term(self, counterexample):
        assert eval_many(counterexample, [[0.0, 0.0, 0.0]])[0] == pytest.approx(4 / 22, abs=1e-15)

    def test_eval_exact(self, counterexample):
        assert eval_exact(counterexample, (1, 1, 1)) == 1
        assert eval_exact(counterexample, (0, 0, 0)) == Fraction(2, 11)

    def test_first_derivative(self, counterexample):
        d1 = counterexample.derivative(1)
        assert d1.coeffs[0] == Fraction(3, 22)
        assert d1.coeffs[0b010] == Fraction(3, 22)
        assert d1.coeffs[0b100] == Fraction(3, 22)
        assert d1.coeffs[0b001] == 0
        assert d1.coeffs[0b110] == 0
        assert trivial_log_concavity(d1).kind == "affine"

    def test_second_derivative_is_constant(self, counterexample):
        d12 = counterexample.derivative(1).derivative(2)
        assert d12.nonzero_masks == (0,)
        assert d12.coeffs[0] == Fraction(3, 22)

    def test_repeated_derivative_vanishes(self, counterexample):
        assert counterexample.derivative(1).derivative(1).nonzero_masks == ()

    def test_derivative_subset_pairs_and_triple(self, counterexample):
        p = counterexample
        assert p.derivative_subset(0) == p
        d12 = p.derivative_subset(0b011)
        assert d12.nonzero_masks == (0,) and d12.coeffs[0] == Fraction(3, 22)
        assert p.derivative_subset(0b111).nonzero_masks == ()

    def test_normalization_of_raw_weights(self, raw_counterexample, counterexample):
        assert raw_counterexample.coeff_sum() == 22
        assert raw_counterexample.normalize() == counterexample


class TestDerivatives:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        checks = 0
        while checks < 1000:
            n = int(rng.integers(1, 5))
            p = random_subset_poly(rng, n)
            var = int(rng.integers(1, n + 1))
            d = p.derivative(var)
            x = random_positive_point(rng, n)
            want = fd_partial(lambda y: float(eval_exact(p, exact_point(y))), x, var - 1, 1e-5)
            got = float(eval_exact(d, exact_point(x)))
            assert abs(got - want) <= 1e-6 * (1.0 + abs(want))
            checks += 1

    def test_derivatives_commute_exactly(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            n = int(rng.integers(2, 5))
            p = random_subset_poly(rng, n)
            i = int(rng.integers(1, n + 1))
            j = int(rng.integers(1, n + 1))
            assert p.derivative(i).derivative(j) == p.derivative(j).derivative(i)

    def test_derivative_subset_coefficient_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            n = int(rng.integers(1, 5))
            p = random_subset_poly(rng, n)
            a = int(rng.integers(0, 1 << n))
            q = p.derivative_subset(a)
            for s in range(1 << n):
                if s & a:
                    assert q.coeffs[s] == 0
                else:
                    assert q.coeffs[s] == p.coeffs[s | a]

    def test_derivative_subset_equals_iterated_derivative(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            p = random_subset_poly(rng, n)
            a = int(rng.integers(0, 1 << n))
            q = p
            for var in range(1, n + 1):
                if a >> (var - 1) & 1:
                    q = q.derivative(var)
            assert q == p.derivative_subset(a)

    def test_derivatives_carry_their_own_integers(self):
        # Every constructor gives the one canonical form: Python ints w over
        # L > 0 with gcd(L, *w) = 1, which are the Fraction coefficients over
        # their lcm, and the value from_weights builds from the Fractions it
        # derives (a slice of p's for a derivative, also of a derivative).
        def check(d, fractions):
            w, den = d.cleared
            assert {type(den), *map(type, w)} == {int} and math.gcd(den, *w) == 1, d
            lcm = math.lcm(*(c.denominator for c in d.coeffs))
            assert d.cleared == (
                tuple(c.numerator * (lcm // c.denominator) for c in d.coeffs), lcm
            ), d
            assert d.nonzero_masks == tuple(m for m, c in enumerate(d.coeffs) if c != 0)
            assert d == SubsetPoly.from_weights(d.n, dict(enumerate(fractions)))

        rng = np.random.default_rng(16)
        primes = (2, 3, 5, 7, 11, 13, 17, 19, 23)
        tiny = Fraction(1, 10**400)
        kinds = {"zero": 0, "reduced": 0}
        for k in range(96):
            n = 1 + k % 8
            weights = {}
            for mask in range(1 << n):
                if rng.random() < (0.0, 0.3, 0.8)[k % 3]:
                    continue
                # Coprime denominators: L drops a prime with each weight a derivative drops.
                den = primes[mask % len(primes)] if k % 4 == 2 else int(rng.integers(1, 9))
                weights[mask] = Fraction(int(rng.integers(1, 10)), den)
            p = SubsetPoly.from_weights(n, weights)
            check(p, [weights.get(m, 0) for m in range(1 << n)])
            if k % 4 == 1:
                fractions = [c * tiny for c in p.coeffs]
                p = p.scale(tiny)
                check(p, fractions)
            elif k % 4 == 3 and weights:
                fractions = [c / sum(p.coeffs) for c in p.coeffs]
                p = p.normalize()
                check(p, fractions)
            masks = range(1 << n) if n <= 5 else rng.integers(0, 1 << n, 24)
            for a in map(int, masks):
                q = p.derivative_subset(a)
                b = int(rng.integers(0, 1 << n)) & ~a
                for d, m in ((q, a), (q.derivative_subset(b), a | b)):
                    check(d, [0 if s & m else p.coeffs[s | m] for s in range(1 << n)])
                    kinds["zero"] += not d.nonzero_masks
                    kinds["reduced"] += d.cleared[1] < p.cleared[1]
            for a in (-1, 1 << n):
                with pytest.raises(ValueError, match="out of range"):
                    p.derivative_subset(a)
        assert min(kinds.values()) >= 200, kinds

        for n in (1, 4, 8):
            zero = SubsetPoly.from_weights(n, {})
            for d in (zero, zero.scale(tiny), zero.scale(7), zero.derivative_subset(1)):
                check(d, [0] * (1 << n))
                assert d.cleared == ((0,) * (1 << n), 1)
        for b, c in [(0, 0), (Fraction(3, 20), 4), ("7/3", "5/6"), (2, 1), (tiny, 0)]:
            b, c = as_fraction(b), as_fraction(c)
            total = 4 + 3 * b + 3 * c
            check(make_family(b, c), [x / total for x in (4, b, b, c, b, c, c, 0)])

        refused = [
            (((1, 0.5), 2), TypeError),  # a float entry
            (((1, Fraction(1)), 2), TypeError),
            (((1, 1), 2.0), TypeError),
            (((1, -1), 2), ValueError),  # a negative entry
            (((1, 1), 0), ValueError),  # L <= 0
            (((1, 1), -2), ValueError),
            (((1, 1, 1), 2), ValueError),  # the wrong length
        ]
        for cleared, error in refused:
            with pytest.raises(error):
                SubsetPoly(1, cleared)

    def test_index_out_of_range(self):
        p = SubsetPoly.from_weights(2, {})
        with pytest.raises(IndexError):
            p.derivative(0)
        with pytest.raises(IndexError):
            p.derivative(3)


class TestRescaling:
    def test_scale_is_exact_on_rational_points(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 4))
            p = random_subset_poly(rng, n)
            lam = Fraction(int(rng.integers(1, 30)), int(rng.integers(1, 9)))
            x = [Fraction(int(rng.integers(0, 12)), int(rng.integers(1, 5))) for _ in range(n)]
            assert eval_exact(p.scale(lam), x) == lam * eval_exact(p, x)

    def test_scale_rejects_nonpositive(self):
        p = SubsetPoly.from_weights(1, {0: 1})
        with pytest.raises(ValueError):
            p.scale(0)
        with pytest.raises(ValueError):
            p.scale("-2/3")

    def test_normalize_rejects_zero_sum(self):
        with pytest.raises(ValueError):
            SubsetPoly.from_weights(2, {}).normalize()

    def test_normalize_produces_distribution(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            p = random_subset_poly(rng, 3)
            assert p.normalize().coeff_sum() == 1


class TestStructurePredicates:
    def test_affine_and_monomial(self):
        p = SubsetPoly.from_weights(3, {0: 1, 0b001: 2, 0b100: 3})
        assert trivial_log_concavity(p).kind == "affine"
        q = SubsetPoly.from_weights(3, {0b101: "7/2"})
        assert trivial_log_concavity(q).kind == "monomial"
        assert trivial_log_concavity(SubsetPoly.from_weights(3, {0: 1})).kind == "constant"
        assert trivial_log_concavity(SubsetPoly.from_weights(3, {})).kind == "zero"
        assert trivial_log_concavity(SubsetPoly.from_weights(3, {0: 1, 0b011: 1})) is None

    def test_permute_relabels_evaluation(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            p = random_subset_poly(rng, n)
            images = random_permutation(rng, n)
            q = permute(p, images)  # the builder in conftest, behind the equivariance tests
            x = exact_point(random_positive_point(rng, n))
            # q(x) = p evaluated with coordinate i read from slot images[i]
            relabeled = [x[images[i] - 1] for i in range(n)]
            assert eval_exact(q, x) == eval_exact(p, relabeled)


class TestSparsePoly:
    def test_mul_identity_and_zero(self):
        rng = np.random.default_rng(14)
        p = sparse_from_subset(random_subset_poly(rng, 3))
        assert p * 1 == p
        assert p * 0 == SparsePoly(3, {})
        assert p * "1/2" == SparsePoly(3, {key: c / 2 for key, c in p.terms.items()})
        with pytest.raises(TypeError):
            p * p

    def test_sparse_from_subset_agrees_on_points(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            p = random_subset_poly(rng, n)
            s = sparse_from_subset(p)
            for _ in range(10):
                x = exact_point(random_positive_point(rng, n))
                assert eval_exact(p, x) == sparse_eval_exact(s, x)

    def test_exponent_builder_matches_the_product_key(self):
        # The tests' builder keys x^S x^T where add_products does.
        for s in range(8):
            for t in range(8):
                out = {}
                add_products(3, out, [(s, 1)], [(t, 1)], 1)
                exps = tuple((s >> k & 1) + (t >> k & 1) for k in range(3))
                assert out == sparse_poly(3, {exps: 1}).terms
                (key,) = out
                assert exponents(3, key) == exps

    def test_canonical_zero_dropping(self):
        q = sparse_poly(2, {(1, 0): 1})
        assert (q * 0).terms == {}
        assert sparse_poly(2, {(1, 0): 0, (0, 1): 2}) == sparse_poly(2, {(0, 1): 2})


class TestHelpers:
    def test_eval_dimension_mismatch(self):
        with pytest.raises(ValueError):
            eval_many(SubsetPoly.from_weights(2, {}), [[1.0]])
        with pytest.raises(ValueError, match="point array"):
            log_hessian(SubsetPoly.from_weights(2, {0: 1}), (1.0,))

    def test_eval_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite and strictly positive"):
            log_hessian(SubsetPoly.from_weights(2, {0: 1}), (float("nan"), 1.0))
        with pytest.raises(ValueError, match="finite and strictly positive"):
            log_hessian(SubsetPoly.from_weights(2, {0: 1}), (float("inf"), 1.0))

    def test_format_fraction_writes_what_fits_and_counts_the_rest(self):
        for q in (Fraction(0), Fraction(7), Fraction(3, 22), Fraction(10**30 + 1, 3)):
            assert format_fraction(q) == str(q)
            assert format_fraction(q, 6 * q.denominator) == (
                f"{q.numerator * 6}/{q.denominator * 6}"
            )
        assert format_fraction(Fraction(2), 1) == "2/1"
        limit = sys.get_int_max_str_digits()
        widest = 10**limit - 1
        assert format_fraction(Fraction(1, widest)) == "1/" + "9" * limit
        for digits in (limit + 1, limit + 2, 3 * limit, 20000):
            for k in (10 ** (digits - 1), 10**digits - 1, 7 * 10 ** (digits - 1) + 3):
                assert format_fraction(Fraction(k)) == f"<{digits} digits>"
                assert format_fraction(Fraction(1, k), k) == f"1/<{digits} digits>"
        assert format_fraction(Fraction(10**limit, 3)) == f"<{limit + 1} digits>/3"
