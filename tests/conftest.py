"""Shared fixtures and independent oracles for the test suite.

The finite-difference and brute-force helpers here deliberately avoid the
library's own code paths, so that the values they produce count as
independent checks.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from slcheck import SubsetPoly
from slcheck.poly import RationalLike, as_fraction


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
        if p.nonzero_masks():
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
    return SubsetPoly(len(qs), tuple(coeffs))


def permute(p: SubsetPoly, images: tuple[int, ...]) -> SubsetPoly:
    """Relabel variables: variable i becomes images[i-1], a permutation of 1..n."""
    coeffs = [Fraction(0)] * (1 << p.n)
    for mask, c in enumerate(p.coeffs):
        coeffs[sum(1 << (images[k] - 1) for k in range(p.n) if mask >> k & 1)] = c
    return SubsetPoly(p.n, tuple(coeffs))


def exact_point(point) -> list[Fraction]:
    """The exact rational value of each float coordinate."""
    return [Fraction(v) for v in point]


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
    return fd_hessian(lambda x: math.log(p.eval_exact(exact_point(x))), point, h)


def exact_log_hessian(p: SubsetPoly, point: tuple[float, ...]) -> np.ndarray:
    """(g D2g - grad g grad g^T) / g^2 in rationals at the exact value of a float point."""
    x = exact_point(point)
    n = p.n
    g = p.eval_exact(x)
    grad = [p.derivative_subset(1 << i).eval_exact(x) for i in range(n)]
    out = np.empty((n, n), dtype=float)
    for i in range(n):
        for j in range(n):
            d2 = p.derivative_subset(1 << i | 1 << j).eval_exact(x) if i != j else 0
            out[i, j] = float((g * d2 - grad[i] * grad[j]) / (g * g))
    return out


def matrix_close(a: np.ndarray, b: np.ndarray, rel: float) -> bool:
    """Max-norm comparison with a scale-free denominator."""
    return float(np.max(np.abs(a - b))) <= rel * (1.0 + float(np.max(np.abs(b))))


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
        "condition, under 600 s"
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
