"""Shared fixtures and independent oracles for the test suite.

The finite-difference and brute-force helpers here deliberately avoid the
library's own code paths, so that the values they produce count as
independent checks.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from slcheck import SubsetPoly
from slcheck.distfile import DistributionFormatError
from slcheck.poly import MAX_VARS, RationalLike, SparsePoly, as_fraction, format_subset


def random_fraction(rng: np.random.Generator, max_num: int = 9, max_den: int = 7) -> Fraction:
    return Fraction(int(rng.integers(0, max_num + 1)), int(rng.integers(1, max_den + 1)))


def random_subset_poly(
    rng: np.random.Generator,
    n: int,
    zero_prob: float = 0.3,
    max_num: int = 9,
) -> SubsetPoly:
    """Random nonnegative multi-affine polynomial, never identically zero."""
    while True:
        weights = {}
        for mask in range(1 << n):
            if rng.random() >= zero_prob:
                weights[mask] = random_fraction(rng, max_num=max_num)
        p = SubsetPoly.from_weights(n, weights)
        if p.nonzero_masks:
            return p


def random_positive_point(
    rng: np.random.Generator, n: int, lo: float = 0.1, hi: float = 10.0
) -> tuple[float, ...]:
    return tuple(float(v) for v in np.exp(rng.uniform(np.log(lo), np.log(hi), size=n)))


def random_permutation(rng: np.random.Generator, n: int) -> tuple[int, ...]:
    return tuple(int(v) + 1 for v in rng.permutation(n))


def product_measure(probs: list[RationalLike]) -> SubsetPoly:
    """Independent inclusion probabilities q_i:

    p(S) = prod_{i in S} q_i prod_{i not in S} (1 - q_i).
    """
    qs = [as_fraction(q) for q in probs]
    coeffs = []
    for mask in range(1 << len(qs)):
        c = Fraction(1)
        for k, q in enumerate(qs):
            c *= q if mask >> k & 1 else 1 - q
        coeffs.append(c)
    return SubsetPoly.from_weights(len(qs), dict(enumerate(coeffs)))


def permute(p: SubsetPoly, images: tuple[int, ...]) -> SubsetPoly:
    """Relabel variables: variable i becomes images[i-1], a permutation of 1..n."""
    coeffs = [Fraction(0)] * (1 << p.n)
    for mask, c in enumerate(p.coeffs):
        coeffs[sum(1 << (images[k] - 1) for k in range(p.n) if mask >> k & 1)] = c
    return SubsetPoly.from_weights(p.n, dict(enumerate(coeffs)))


def exact_point(point) -> list[Fraction]:
    """The exact rational value of each float coordinate."""
    return [Fraction(v) for v in point]


# ----- exact values ------------------------------------------------------------
#
# The tests' exact references at rational points, kept apart from the
# package.  A SparsePoly is keyed by the monomial key of `poly.add_products`,
# (S | T) << n | (S & T) for x^S x^T, which `exponents` decodes and
# `sparse_poly` builds from exponent tuples.


def eval_exact(p: SubsetPoly, point) -> Fraction:
    """g_p at a rational point."""
    assert len(point) == p.n, (point, p.n)
    coords = [as_fraction(v) for v in point]
    total = Fraction(0)
    for mask in p.nonzero_masks:
        term = p.coeffs[mask]
        for k in range(p.n):
            if mask >> k & 1:
                term *= coords[k]
        total += term
    return total


def exponents(n: int, key: int) -> tuple[int, ...]:
    """The exponent of each variable in the monomial of a key."""
    return tuple((key >> (n + k) & 1) + (key >> k & 1) for k in range(n))


def sparse_poly(n: int, terms) -> SparsePoly:
    """The SparsePoly of an exponent tuple -> rational mapping, zeros dropped.

    Each tuple has length n and entries in 0..2; distinct tuples have
    distinct keys, so nothing is added up.
    """
    out = {}
    for exps, value in terms.items():
        assert len(exps) == n and all(e in (0, 1, 2) for e in exps), exps
        c = as_fraction(value)
        if c:
            out[sum(1 << (n + k) | (e - 1) << k for k, e in enumerate(exps) if e)] = c
    return SparsePoly(n, out)


def sparse_eval_exact(q: SparsePoly, point) -> Fraction:
    """A SparsePoly at a rational point."""
    assert len(point) == q.n, (point, q.n)
    coords = [as_fraction(v) for v in point]
    total = Fraction(0)
    for key, c in q.terms.items():
        term = Fraction(c)
        for v, e in zip(coords, exponents(q.n, key)):
            term *= v**e
        total += term
    return total


def sparse_from_cleared(p: SubsetPoly, cleared) -> SparsePoly:
    """An integer dict of `cleared_m_rows` or `m_row_gaps` for p, divided by L^2."""
    scale = p.cleared[1] ** 2
    return SparsePoly(p.n, {key: Fraction(c, scale) for key, c in cleared.items() if c})


# ----- finite differences ----------------------------------------------------


def fd_partial(f, point: tuple[float, ...], axis: int, h: float) -> float:
    """Central first difference along one axis."""
    up = list(point)
    dn = list(point)
    up[axis] += h
    dn[axis] -= h
    return (f(tuple(up)) - f(tuple(dn))) / (2.0 * h)


def fd_hessian(f, point: tuple[float, ...], h: float) -> np.ndarray:
    """Central second differences, symmetric by construction."""
    n = len(point)
    out = np.empty((n, n), dtype=float)
    f0 = f(point)
    for i in range(n):
        up = list(point)
        dn = list(point)
        up[i] += h
        dn[i] -= h
        out[i, i] = (f(tuple(up)) - 2.0 * f0 + f(tuple(dn))) / (h * h)
        for j in range(i + 1, n):
            pp = list(point)
            pm = list(point)
            mp = list(point)
            mm = list(point)
            pp[i] += h
            pp[j] += h
            pm[i] += h
            pm[j] -= h
            mp[i] -= h
            mp[j] += h
            mm[i] -= h
            mm[j] -= h
            v = (f(tuple(pp)) - f(tuple(pm)) - f(tuple(mp)) + f(tuple(mm))) / (4.0 * h * h)
            out[i, j] = out[j, i] = v
    return out


def fd_log_hessian(p: SubsetPoly, point: tuple[float, ...], h: float = 1e-4) -> np.ndarray:
    return fd_hessian(lambda x: math.log(eval_exact(p, exact_point(x))), point, h)


def exact_log_hessian(p: SubsetPoly, point: tuple[float, ...]) -> np.ndarray:
    """(g D2g - grad g grad g^T) / g^2 in rationals at the exact value of a float point."""
    x = exact_point(point)
    n = p.n
    g = eval_exact(p, x)
    grad = [eval_exact(p.derivative_subset(1 << i), x) for i in range(n)]
    out = np.empty((n, n), dtype=float)
    for i in range(n):
        for j in range(n):
            d2 = eval_exact(p.derivative_subset(1 << i | 1 << j), x) if i != j else 0
            out[i, j] = float((g * d2 - grad[i] * grad[j]) / (g * g))
    return out


def matrix_close(a: np.ndarray, b: np.ndarray, rel: float) -> bool:
    """Max-norm comparison with a scale-free denominator."""
    return float(np.max(np.abs(a - b))) <= rel * (1.0 + float(np.max(np.abs(b))))


# ----- the full derivative table ----------------------------------------------


def reference_table(coeffs: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """All 2^n rows d^B g at the rows of pts, by n Yates stages over the whole table.

    Stage k adds x_k times each row holding variable k to the row without
    it, on every row, whether or not it can be nonzero.
    """
    m, n = pts.shape
    table = np.repeat(coeffs[:, None], m, axis=1)
    for k in range(n):
        halves = table.reshape(-1, 2, 1 << k, m)
        halves[:, 0] += pts[:, k] * halves[:, 1]
    return table


def reference_log_hessians(coeffs: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """(g D2g - grad g grad g^T) / g^2 from rows 0, {i} and {i, j} of reference_table.

    The same float operations in the same order as the package's reader,
    so the two agree bit for bit wherever g^2 is finite and positive.
    """
    n = pts.shape[1]
    table = reference_table(coeffs, pts)
    bits = 1 << np.arange(n)
    g = table[0][:, None, None]
    grad = table[bits].T
    out = table[bits[:, None] | bits[None, :]].transpose(2, 0, 1).copy()
    out[:, np.arange(n), np.arange(n)] = 0.0
    out *= g
    out -= grad[:, :, None] * grad[:, None, :]
    out /= g * g
    return out


# ----- the reference reader of distribution documents --------------------------
#
# The reader distfile had before it parsed weights straight into integers: a
# regex key parser, as_fraction per weight, then SubsetPoly.from_weights.  It
# still strips Unicode whitespace around a key and reads "mask:-0" as the
# empty set, which distfile now refuses.

_REFERENCE_KEY_CHARS = re.compile(r"(mask:)?[-0-9,\s]*", re.ASCII)


def reference_parse_subset_key(key: str, n: int) -> int:
    key = key.strip()
    if not _REFERENCE_KEY_CHARS.fullmatch(key):
        raise DistributionFormatError(f"bad subset key {key!r}")
    if key.startswith("mask:"):
        body = key[len("mask:") :].strip()
        try:
            mask = int(body)
        except ValueError:
            raise DistributionFormatError(f"bad bitmask key {key!r}") from None
        if not 0 <= mask < (1 << n):
            raise DistributionFormatError(f"bitmask {mask} out of range for n={n}")
        return mask
    if key == "":
        return 0
    mask = 0
    last = 0
    for piece in key.split(","):
        try:
            idx = int(piece.strip())
        except ValueError:
            raise DistributionFormatError(f"bad subset key {key!r}") from None
        if not 1 <= idx <= n:
            raise DistributionFormatError(f"index {idx} out of range 1..{n} in key {key!r}")
        if idx <= last:
            raise DistributionFormatError(
                f"subset key {key!r} must list strictly increasing indices"
            )
        mask |= 1 << (idx - 1)
        last = idx
    return mask


def _reference_unique_keys(pairs: list[tuple[str, object]]) -> dict:
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise DistributionFormatError(f"key {key!r} given twice in one JSON object")
        doc[key] = value
    return doc


def reference_loads_distribution(text: str) -> SubsetPoly:
    try:
        doc = json.loads(text, object_pairs_hook=_reference_unique_keys)
    except DistributionFormatError:
        raise
    except (ValueError, RecursionError) as exc:
        raise DistributionFormatError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise DistributionFormatError("top level must be a JSON object")
    for field in doc:
        if field not in ("n", "coefficients"):
            raise DistributionFormatError(f"unknown field {field!r}, not 'n' or 'coefficients'")
    if "n" not in doc:
        raise DistributionFormatError("missing integer field 'n'")
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise DistributionFormatError(f"'n' must be an integer, got {n!r}")
    if not 1 <= n <= MAX_VARS:
        raise DistributionFormatError(f"'n' must be in 1..{MAX_VARS}, got {n}")
    if "coefficients" not in doc:
        raise DistributionFormatError("missing object field 'coefficients'")
    raw = doc["coefficients"]
    if not isinstance(raw, dict):
        raise DistributionFormatError("'coefficients' must be an object")
    weights: dict[int, Fraction] = {}
    for key, value in raw.items():
        mask = reference_parse_subset_key(key, n)
        if mask in weights:
            raise DistributionFormatError(f"subset {format_subset(mask)} given twice")
        if not isinstance(value, str):
            raise DistributionFormatError(
                f"value for key {key!r} must be a rational string, got {value!r}"
            )
        try:
            weight = as_fraction(value)
        except ValueError as exc:
            raise DistributionFormatError(f"bad rational {value!r}: {exc}") from None
        if weight < 0:
            raise DistributionFormatError(f"negative weight {value!r} for key {key!r}")
        weights[mask] = weight
    return SubsetPoly.from_weights(n, weights)


# ----- brute force lattice condition -----------------------------------------


def brute_nlc_violations(p: SubsetPoly) -> list[tuple[int, int, Fraction, Fraction]]:
    """All violating ordered pairs, via index sets rather than bit tricks."""
    n = p.n
    subsets = list(range(1 << n))
    out = []
    for s in subsets:
        for t in subsets:
            s_set = {i for i in range(n) if s >> i & 1}
            t_set = {i for i in range(n) if t >> i & 1}
            union = sum(1 << i for i in s_set | t_set)
            inter = sum(1 << i for i in s_set & t_set)
            lhs = p.coeffs[s] * p.coeffs[t]
            rhs = p.coeffs[union] * p.coeffs[inter]
            if lhs < rhs:
                out.append((s, t, lhs, rhs))
    return out


@pytest.fixture
def counterexample():
    from slcheck.counterexample import counterexample_distribution

    return counterexample_distribution()


@pytest.fixture
def raw_counterexample():
    from slcheck.counterexample import counterexample_weights

    return counterexample_weights()


@pytest.fixture
def built_points(monkeypatch):
    """Every `checkers.SamplePoints` the checks build during the test, in order."""
    from slcheck import checkers

    built = []
    make = checkers.SamplePoints

    def build(n, cfg):
        built.append(make(n, cfg))
        return built[-1]

    monkeypatch.setattr(checkers, "SamplePoints", build)
    return built

# ----- acceptance summary -----------------------------------------------------
#
# One PASS/FAIL line per acceptance criterion, printed at the end of every
# pytest run that executed the gate in test_acceptance.py.

ACCEPTANCE_LABELS = {
    "test_c1_lattice_violation_witness": (
        "criterion 1: counterexample violates the lattice condition at "
        "S={1}, T={2} with 9/484 < 12/484, exactly, under 1 s"
    ),
    "test_c2_dominance_certificate_and_reference_matrix": (
        "criterion 2: dominance certificate exists; M = 3/484 * reference "
        "matrix; row-1 gap = 3/484 * (1 + 3y + 3z + 6yz), under 1 s"
    ),
    "test_c3_first_derivative_eigenvalues": (
        "criterion 3: first-derivative log-Hessian eigenvalues {0, 0, 2} "
        "after scaling by -(y+z+1)^2, within 1e-9, 20 sampled points"
    ),
    "test_c4_slc_no_violation_ten_thousand_points": (
        "criterion 4: zero violations over all 8 derivative subsets, 10^4 "
        "points in [0.01, 100]^3, tolerance 1e-9, under 30 s"
    ),
    "test_c5_family_region_closed_form": (
        "criterion 5: family lattice region equals b^2 >= 4c on all 6561 "
        "grid cells, exact enumeration, zero mismatches"
    ),
    "test_c6_default_sweep_containment_and_cross_cell": (
        "criterion 6: default sweep keeps every lattice-true cell free of "
        "sampled violations; cell (3, 3) is clean yet fails the lattice "
        "condition; exact certificates on exactly the 3005 cells with "
        "8c <= 3b^2, under 600 s"
    ),
    "test_c7_finite_difference_validation": (
        "criterion 7: analytic log-Hessian matches central finite "
        "differences within 1e-5 relative, 100 points per polynomial, 54 "
        "polynomials"
    ),
    "test_c8_property_suite": (
        "criterion 8: scale invariance, derivative coefficient identity, "
        "witness permutation equivariance, certificate implies clean "
        "sampling (>= 500 seeded cases each)"
    ),
}

_acceptance_outcomes: dict[str, str] = {}


def pytest_runtest_logreport(report):
    name = report.nodeid.split("::")[-1]
    if name not in ACCEPTANCE_LABELS:
        return
    if report.when == "call":
        _acceptance_outcomes[name] = report.outcome
    elif report.failed:
        _acceptance_outcomes[name] = "failed"
    elif report.when == "setup" and report.skipped:
        _acceptance_outcomes[name] = "skipped"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not any(name in _acceptance_outcomes for name in ACCEPTANCE_LABELS):
        return
    terminalreporter.section("acceptance criteria")
    for name, label in ACCEPTANCE_LABELS.items():
        outcome = _acceptance_outcomes.get(name)
        if outcome is None:
            continue
        flag = "PASS" if outcome == "passed" else ("SKIP" if outcome == "skipped" else "FAIL")
        terminalreporter.write_line(f"{flag} {label}")
