"""Exact arithmetic for multi-affine subset polynomials.

A nonnegative weight function p on subsets of {1, ..., n} is stored through
its generating polynomial

    g_p(x_1, ..., x_n) = sum over S of p(S) * prod_{i in S} x_i,

a polynomial that is affine in each variable separately.  Coefficients live
in a dense tuple of 2**n `fractions.Fraction` values indexed by subset
bitmask, where bit k of the mask stands for variable k+1, and once over one
common denominator as integers (`SubsetPoly.cleared`).  All algebra and
evaluation here is exact; float values of g and its derivatives come only
from the derivative table of `calculus`.  `eval_exact` (at rational points,
on both classes below) is read by no code in the package: it is the tests'
exact reference.

`SparsePoly` is a plain exact value (built, scaled by a rational, compared,
evaluated, printed) of degree at most 2 in each variable under one integer
key: x^S x^T, for subsets S and T, is keyed (S | T) << n | (S & T).  The
entries and row gaps of M = grad g grad g^T - g D2g fit, being sums of
products of two multi-affine polynomials, which `add_products` forms on
the integers of `calculus`.  Only this module builds or decodes keys.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Mapping, Sequence, Union

MAX_VARS = 16

RationalLike = Union[Fraction, int, str]

_ZERO = Fraction(0)


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an int, a Fraction, or a string like '3/22' or '0.05' to Fraction.

    Floats are rejected on purpose: a float literal has already lost the
    decimal value it was written as, and this library promises exactness.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
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


@dataclass(frozen=True)
class SubsetPoly:
    """Multi-affine polynomial with nonnegative exact rational coefficients.

    coeffs[mask] is the coefficient of prod_{bit k set in mask} x_{k+1}.
    Construction refuses a negative one.  Instances are immutable; every
    operation returns a new polynomial.
    """

    n: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_VARS:
            raise ValueError(f"number of variables must be in 1..{MAX_VARS}, got {self.n}")
        if len(self.coeffs) != 1 << self.n:
            raise ValueError(
                f"need {1 << self.n} coefficients for n={self.n}, got {len(self.coeffs)}"
            )
        if not all(isinstance(c, Fraction) for c in self.coeffs):
            raise TypeError("coefficients must be Fraction; use SubsetPoly.from_weights")
        if any(c.numerator < 0 for c in self.coeffs):
            raise ValueError("weights must be nonnegative")

    # ----- constructors -------------------------------------------------

    @staticmethod
    def from_weights(n: int, weights: Mapping[int, RationalLike]) -> SubsetPoly:
        """Build from a mask -> rational mapping; missing subsets get 0."""
        coeffs = [_ZERO] * (1 << n)
        for mask, value in weights.items():
            if not 0 <= mask < (1 << n):
                raise ValueError(f"subset mask {mask} out of range for n={n}")
            coeffs[mask] = as_fraction(value)
        return SubsetPoly(n, tuple(coeffs))

    # ----- structure ----------------------------------------------------

    def nonzero_masks(self) -> tuple[int, ...]:
        return tuple(m for m, c in enumerate(self.coeffs) if c != 0)

    def coeff_sum(self) -> Fraction:
        return sum(self.coeffs, _ZERO)

    # ----- evaluation ---------------------------------------------------

    def eval_exact(self, point: Sequence[RationalLike]) -> Fraction:
        """Evaluate at a rational point entirely in exact arithmetic."""
        if len(point) != self.n:
            raise ValueError(f"point has {len(point)} coordinates, polynomial has {self.n} variables")
        coords = [as_fraction(v) for v in point]
        total = _ZERO
        for mask, c in enumerate(self.coeffs):
            if c == 0:
                continue
            term = c
            m = mask
            k = 0
            while m:
                if m & 1:
                    term *= coords[k]
                m >>= 1
                k += 1
            total += term
        return total

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
        """Iterated derivative over a set of distinct variables given as a bitmask."""
        if not 0 <= mask < (1 << self.n):
            raise ValueError(f"derivative mask {mask} out of range for n={self.n}")
        coeffs = [_ZERO] * (1 << self.n)
        for s in range(1 << self.n):
            if not s & mask:
                coeffs[s] = self.coeffs[s | mask]
        return SubsetPoly(self.n, tuple(coeffs))

    # ----- rescaling ------------------------------------------------------

    def scale(self, factor: RationalLike) -> SubsetPoly:
        f = as_fraction(factor)
        if f <= 0:
            raise ValueError(f"scale factor must be positive, got {f}")
        return SubsetPoly(self.n, tuple(c * f for c in self.coeffs))

    @cached_property
    def cleared(self) -> tuple[tuple[int, ...], int]:
        """(w, L): L is the lcm of the denominators, w[s] = L * coeffs[s]; formed once.

        L > 0, so a product of k coefficients scales by L**k: comparisons
        between products of equal length, and their signs, are unchanged.
        """
        den = math.lcm(*(c.denominator for c in self.coeffs))
        return tuple(c.numerator * (den // c.denominator) for c in self.coeffs), den

    def normalize(self) -> SubsetPoly:
        """Rescale so the coefficients sum to one."""
        s = self.coeff_sum()
        if s <= 0:
            raise ValueError(f"cannot normalize: coefficient sum is {s}")
        return self.scale(1 / s)

    def __str__(self) -> str:
        return sparse_from_subset(self).__str__()


def add_products(n: int, out: dict, f, h, sign: int) -> None:
    """Add sign * f * h into out under the monomial key, zero sums included.

    f and h are the (mask, coefficient) pairs of multi-affine polynomials in
    n variables, with integer coefficients.
    """
    get = out.get
    for s, c in f:
        c *= sign
        for t, d in h:
            key = (s | t) << n | (s & t)
            out[key] = get(key, 0) + c * d


def _exponents(n: int, key: int) -> tuple[int, ...]:
    return tuple((key >> (n + k) & 1) + (key >> k & 1) for k in range(n))


@dataclass(frozen=True)
class SparsePoly:
    """Sparse polynomial in n variables, of degree at most 2 in each, with
    exact rational coefficients.

    terms maps the key of x^S x^T, (S | T) << n | (S & T), to a nonzero
    Fraction.  The mapping is canonical: zero coefficients are never
    stored, so equality of dataclass fields is equality of polynomials.
    Treat instances as immutable.
    """

    n: int
    terms: Mapping[int, Fraction]

    @staticmethod
    def make(n: int, terms: Mapping[tuple[int, ...], RationalLike]) -> SparsePoly:
        """Build from integer exponent tuples of length n, each exponent in 0..2."""
        if not 1 <= n <= MAX_VARS:
            raise ValueError(f"number of variables must be in 1..{MAX_VARS}, got {n}")
        canon: dict[int, Fraction] = {}
        for exps, value in terms.items():
            try:
                exps = tuple(operator.index(e) for e in exps)
            except TypeError:
                raise ValueError(f"exponents must be integers, got {exps!r}") from None
            if len(exps) != n:
                raise ValueError(f"exponent tuple {exps} has length {len(exps)}, expected {n}")
            if any(not 0 <= e <= 2 for e in exps):
                raise ValueError(f"exponent outside 0..2 in {exps}")
            key = sum(1 << (n + k) | (e - 1) << k for k, e in enumerate(exps) if e)
            c = as_fraction(value)
            if c:  # distinct exponent tuples have distinct keys: nothing to add up
                canon[key] = c
        return SparsePoly(n, canon)

    def __mul__(self, other: RationalLike) -> SparsePoly:
        """Product with an exact rational."""
        c = as_fraction(other)
        return SparsePoly(self.n, {e: v * c for e, v in self.terms.items()} if c else {})

    # ----- evaluation -------------------------------------------------------

    def eval_exact(self, point: Sequence[RationalLike]) -> Fraction:
        if len(point) != self.n:
            raise ValueError(f"point has {len(point)} coordinates, polynomial has {self.n} variables")
        coords = [as_fraction(v) for v in point]
        total = _ZERO
        for key, c in self.terms.items():
            term = c
            for v, e in zip(coords, _exponents(self.n, key)):
                if e:
                    term *= v ** e
            total += term
        return total

    def __str__(self) -> str:
        return self.format()

    def format(self) -> str:
        """Deterministic rendering in x, y, z (x1..xn for n > 3), low degree terms first."""
        if not self.terms:
            return "0"
        names = "xyz" if self.n <= 3 else [f"x{i}" for i in range(1, self.n + 1)]
        pieces = []
        terms = ((_exponents(self.n, key), c) for key, c in self.terms.items())
        for exps, c in sorted(terms, key=lambda t: (sum(t[0]), tuple(-v for v in t[0]))):
            factors = []
            for name, e in zip(names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            body = "*".join(factors)
            mag = abs(c)
            if not body:
                text = str(mag)
            elif mag == 1:
                text = body
            else:
                text = f"{mag}*{body}"
            if not pieces:
                pieces.append(text if c > 0 else f"-{text}")
            else:
                pieces.append(f"+ {text}" if c > 0 else f"- {text}")
        return " ".join(pieces)


def sparse_from_subset(p: SubsetPoly) -> SparsePoly:
    """View a multi-affine subset polynomial as a SparsePoly (same values everywhere)."""
    return SparsePoly(p.n, {mask << p.n: c for mask, c in enumerate(p.coeffs) if c})
