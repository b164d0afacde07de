"""Exact arithmetic for multi-affine subset polynomials.

A nonnegative weight function p on subsets of {1, ..., n} is stored through
its generating polynomial

    g_p(x_1, ..., x_n) = sum over S of p(S) * prod_{i in S} x_i,

a polynomial that is affine in each variable separately.  Coefficients live
in one form only, a dense tuple of 2**n Python integers over one common
denominator (`SubsetPoly.cleared`), indexed by subset bitmask, where bit k
of the mask stands for variable k+1.  Every constructor builds that form
through the one dataclass constructor, which reduces it; the `Fraction`
values (`SubsetPoly.coeffs`) are derived on demand.  All algebra here is
exact; values of g and its derivatives come only from `calculus`.

`add_products` forms the entries and row gaps of M = grad g grad g^T - g D2g,
sums of products of two multi-affine polynomials, on the integers of
`calculus`, under one monomial key of degree at most 2 in each variable.
No other code in the package builds a key.  `SparsePoly` (the same key
over `Fraction` coefficients, for `calculus.m_matrix`) and
`sparse_from_subset` are read by no check; they stay while the benchmark
traces them.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Mapping, Union

MAX_VARS = 16

RationalLike = Union[Fraction, int, str]


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an int, a Fraction, or a string like '3/22' or '0.05' to Fraction.

    Floats are rejected on purpose: a float literal has already lost the
    decimal value it was written as, and this library promises exactness.
    A string whose exponent exceeds sys.get_int_max_str_digits() in
    magnitude is refused before Fraction expands 10**exponent, as a digit
    string that long is refused by int().  Any other string must be ASCII
    with no digit-group underscores, which Fraction alone would read
    ('1_000', or a non-ASCII digit by its value).
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if "e" in text or "E" in text:
            limit = sys.get_int_max_str_digits()
            try:
                exponent = int(text.lower().rpartition("e")[2])
            except ValueError:  # malformed, or too long to read: Fraction refuses it too
                exponent = 0
            if limit and abs(exponent) > limit:
                raise ValueError(
                    f"exponent {exponent} exceeds {limit} in magnitude, "
                    "the integer digit limit (sys.get_int_max_str_digits())"
                )
        if not value.isascii() or "_" in value:
            raise ValueError(f"{value!r} is not written in ASCII without underscores")
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(
        f"expected an exact rational (int, Fraction, or string), got {type(value).__name__}; "
        "write floats as strings, e.g. '0.05'"
    )


def indices_from_mask(mask: int) -> tuple[int, ...]:
    """Sorted 1-based variable indices present in a bitmask."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def format_subset(mask: int) -> str:
    return "{" + ",".join(str(i) for i in indices_from_mask(mask)) + "}"


def format_fraction(q: Fraction, den: int | None = None) -> str:
    """q as str(q) writes it or, given den (a multiple of q's denominator), as 'a/den'.

    Python writes an integer in decimal only up to
    sys.get_int_max_str_digits() digits; a longer numerator or denominator
    is written as its digit count instead, as '<6001 digits>', which needs
    no decimal expansion.
    """
    if den is None:
        parts = (q.numerator,) if q.denominator == 1 else (q.numerator, q.denominator)
    else:
        parts = (q.numerator * (den // q.denominator), den)
    return "/".join(map(_decimal, parts))


def _decimal(k: int) -> str:
    """A nonnegative integer in decimal, or its digit count where that is too long."""
    try:
        return str(k)
    except ValueError:
        digits = (k.bit_length() - 1) * 1233 >> 12  # fewer than k has: 1233/4096 < log10(2)
        while k >= 10**digits:
            digits += 1
        return f"<{digits} digits>"


def _check_vars(n: int) -> None:
    if not 1 <= n <= MAX_VARS:
        raise ValueError(f"number of variables must be in 1..{MAX_VARS}, got {n}")


@dataclass(frozen=True)
class SubsetPoly:
    """Multi-affine polynomial with nonnegative exact rational coefficients.

    cleared = (w, L): w[mask] / L is the coefficient of prod_{bit k set in
    mask} x_{k+1}, w Python ints and L > 0.  Construction refuses anything
    else, or a negative w, and divides out gcd(L, *w): L is then the lcm of
    the denominators, equal polynomials are equal values, and products of k
    coefficients, scaled by L**k, compare alike on w.  Instances are
    immutable; every operation returns a new polynomial.
    """

    n: int
    cleared: tuple[tuple[int, ...], int]

    def __post_init__(self) -> None:
        _check_vars(self.n)
        w, den = self.cleared
        w = tuple(w)
        if len(w) != 1 << self.n:
            raise ValueError(f"need {1 << self.n} coefficients for n={self.n}, got {len(w)}")
        if {type(den), *map(type, w)} != {int}:
            raise TypeError("cleared must hold Python ints; use SubsetPoly.from_weights")
        if den <= 0:
            raise ValueError(f"denominator must be positive, got {den}")
        if min(w) < 0:
            raise ValueError("weights must be nonnegative")
        g = math.gcd(den, *w)
        if g > 1:
            w, den = tuple(c // g for c in w), den // g
        object.__setattr__(self, "cleared", (w, den))

    # ----- constructors -------------------------------------------------

    @staticmethod
    def from_weights(n: int, weights: Mapping[int, RationalLike]) -> SubsetPoly:
        """Build from a mask -> rational mapping; missing subsets get 0."""
        _check_vars(n)
        fracs = {}
        for mask, value in weights.items():
            if not 0 <= mask < (1 << n):
                raise ValueError(f"subset mask {mask} out of range for n={n}")
            fracs[mask] = as_fraction(value)
        den = math.lcm(*(f.denominator for f in fracs.values()))
        w = [0] * (1 << n)
        for mask, f in fracs.items():
            w[mask] = f.numerator * (den // f.denominator)
        return SubsetPoly(n, (tuple(w), den))

    # ----- structure ----------------------------------------------------

    @cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, w[mask] / L."""
        w, den = self.cleared
        return tuple(Fraction(c, den) for c in w)

    @cached_property
    def nonzero_masks(self) -> tuple[int, ...]:
        return tuple(itertools.compress(range(1 << self.n), self.cleared[0]))

    def coeff_sum(self) -> Fraction:
        w, den = self.cleared
        return Fraction(sum(w), den)

    # ----- calculus on coefficients --------------------------------------

    def derivative(self, var: int) -> SubsetPoly:
        """Partial derivative with respect to variable `var` (1-based).

        Multi-affinity makes this a coefficient shift: the new weight of S
        is the old weight of S together with var, and subsets containing
        var drop to zero.
        """
        if not 1 <= var <= self.n:
            raise IndexError(f"variable index {var} out of range 1..{self.n}")
        return self.derivative_subset(1 << (var - 1))

    def derivative_subset(self, mask: int) -> SubsetPoly:
        """Iterated derivative over a set of distinct variables given as a bitmask.

        A slice of this polynomial's integers over the same L: w'[s] =
        w[s | mask] for s without mask, and 0 for s with it.
        """
        if not 0 <= mask < (1 << self.n):
            raise ValueError(f"derivative mask {mask} out of range for n={self.n}")
        w, den = self.cleared
        ints = [0] * len(w)
        for s in self.nonzero_masks:
            if s & mask == mask:
                ints[s ^ mask] = w[s]
        return SubsetPoly(self.n, (tuple(ints), den))

    # ----- rescaling ------------------------------------------------------

    def scale(self, factor: RationalLike) -> SubsetPoly:
        f = as_fraction(factor)
        if f <= 0:
            raise ValueError(f"scale factor must be positive, got {f}")
        w, den = self.cleared
        return SubsetPoly(self.n, (tuple(c * f.numerator for c in w), den * f.denominator))

    def normalize(self) -> SubsetPoly:
        """Rescale so the coefficients sum to one."""
        s = self.coeff_sum()
        if s <= 0:
            raise ValueError(f"cannot normalize: coefficient sum is {s}")
        return self.scale(1 / s)


def add_products(n: int, out: dict, f, h, sign: int) -> None:
    """Add sign * f * h into out under the monomial key, zero sums included.

    f and h are the (mask, coefficient) pairs of multi-affine polynomials in
    n variables, with integer coefficients.  The monomial key of x^S x^T,
    for subsets S and T, is (S | T) << n | (S & T): the variables of degree
    at least 1 above those of degree 2.
    """
    get = out.get
    for s, c in f:
        c *= sign
        for t, d in h:
            key = (s | t) << n | (s & t)
            out[key] = get(key, 0) + c * d


@dataclass(frozen=True)
class SparsePoly:
    """Sparse polynomial in n variables, of degree at most 2 in each, with
    exact rational coefficients.

    terms maps the monomial key of `add_products` to a nonzero Fraction.
    The mapping is canonical: zero coefficients are never stored, so
    equality of dataclass fields is equality of polynomials.  Treat
    instances as immutable.
    """

    n: int
    terms: Mapping[int, Fraction]

    def __mul__(self, other: RationalLike) -> SparsePoly:
        """Product with an exact rational."""
        c = as_fraction(other)
        return SparsePoly(self.n, {e: v * c for e, v in self.terms.items()} if c else {})


def sparse_from_subset(p: SubsetPoly) -> SparsePoly:
    """View a multi-affine subset polynomial as a SparsePoly (same values everywhere)."""
    return SparsePoly(p.n, {mask << p.n: c for mask, c in enumerate(p.coeffs) if c})
