"""Acceptance gate: one test per shipping criterion, at the stated tolerances.

Each test prints nothing on its own; the conftest terminal-summary hook emits
one PASS/FAIL line per criterion at the end of every pytest run.  Timing
bounds are asserted inside the tests themselves.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

from slcheck import (
    Holds,
    NoViolationFound,
    SampleConfig,
    Violated,
    check_nlc,
    check_slc,
)
from slcheck.calculus import log_hessian, m_matrix
from slcheck.checkers import (
    DominanceCertificate,
    _nlc_violating_pairs,
    certify_log_concavity_dominance,
    certify_log_concavity_coefficients,
    check_log_concavity_sampled,
    trivial_log_concavity,
)
from slcheck.counterexample import (
    counterexample_distribution,
    proportionality_scalar,
    reference_matrix,
    reference_row_gap,
    run_reproduction,
)
from slcheck.family import SweepConfig, make_family, sweep
from slcheck.linalg import eigen_sym
from conftest import (
    fd_log_hessian,
    matrix_close,
    permute,
    product_measure,
    random_permutation,
    random_positive_point,
    random_subset_poly,
)


def test_c1_lattice_violation_witness():
    started = time.perf_counter()
    p = counterexample_distribution()
    verdict = check_nlc(p)
    assert isinstance(verdict, Violated)
    w = verdict.witness
    assert (w.s_mask, w.t_mask) == (0b001, 0b010)
    assert w.lhs == Fraction(9, 484)
    assert w.rhs == Fraction(12, 484)
    assert w.lhs == Fraction(3, 22) * Fraction(3, 22)
    assert w.rhs == Fraction(3, 22) * Fraction(4, 22)

    report = run_reproduction()
    assert report.checks[0].name == "lattice-condition-violated"
    assert report.checks[0].passed
    assert "9/484 < 12/484" in report.checks[0].detail
    assert time.perf_counter() - started < 1.0


def test_c2_dominance_certificate_and_reference_matrix():
    started = time.perf_counter()
    p = counterexample_distribution()
    cert = certify_log_concavity_dominance(p)
    assert isinstance(cert, DominanceCertificate)

    scalar = proportionality_scalar(m_matrix(p), reference_matrix())
    assert scalar == Fraction(3, 484)
    assert cert.row_gaps[0] == reference_row_gap() * scalar

    report = run_reproduction()
    assert report.checks[1].passed and report.checks[3].passed and report.checks[4].passed
    assert "3/484" in report.checks[3].detail  # the multiple is reported
    assert time.perf_counter() - started < 1.0


def test_c3_first_derivative_eigenvalues():
    p = counterexample_distribution()
    d1 = p.derivative(1)
    rng = np.random.default_rng(0)
    for _ in range(20):
        y, z = (float(v) for v in np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=2)))
        h = log_hessian(d1, (1.0, y, z))
        scaled = -((y + z + 1.0) ** 2) * h
        eigs = np.array(eigen_sym(scaled))
        assert float(np.max(np.abs(eigs - np.array([0.0, 0.0, 2.0])))) <= 1e-9


def test_c4_slc_no_violation_ten_thousand_points():
    started = time.perf_counter()
    p = counterexample_distribution()
    cfg = SampleConfig(points=10_000, box=(0.01, 100.0), seed=4, tolerance=1e-9)

    report = check_slc(p, cfg)
    assert not isinstance(report.aggregate, Violated)
    assert set(report.subsets) == set(range(8))

    # Also force the sampler over every derivative directly, certificates or
    # not: the nontrivial ones must scan the full 10^4 draws and stay clean.
    for a in range(8):
        q = p.derivative_subset(a)
        verdict = check_log_concavity_sampled(q, cfg, subset_mask=a)
        assert not isinstance(verdict, Violated)
        trivial = trivial_log_concavity(q)
        if trivial is None or trivial.kind == "affine":
            assert isinstance(verdict, NoViolationFound)
            assert verdict.stats.points_tested == 125 + 10_000
            assert verdict.stats.tolerance == 1e-9
    assert time.perf_counter() - started < 30.0


def test_c5_family_region_closed_form():
    grid = [Fraction(k, 20) for k in range(81)]
    cfg = SweepConfig()
    assert tuple(grid) == cfg.grid_b() == cfg.grid_c()
    mismatches = 0
    for b in grid:
        for c in grid:
            enumerated = isinstance(check_nlc(make_family(b, c)), Holds)
            if enumerated != (b * b >= 4 * c):
                mismatches += 1
    assert mismatches == 0


def test_c6_default_sweep_containment_and_cross_cell():
    started = time.perf_counter()
    result = sweep(SweepConfig())
    assert len(result.cells) == 81 * 81
    assert result.containment_failures() == []
    (cross,) = [cell for cell in result.cells if (cell.b, cell.c) == (3, 3)]
    assert cross.slc_no_violation and not cross.nlc
    # Exact certificates (dominance, then coefficient matrices) cover the cells
    # with 8c <= 3b^2 and no other: past it M(0) has the eigenvalue 3b^2 - 8c.
    certified = [cell for cell in result.cells if cell.certified]
    assert all(cell.certified == (8 * cell.c <= 3 * cell.b**2) for cell in result.cells)
    assert len(certified) == 3005
    assert time.perf_counter() - started < 600.0


def test_c7_finite_difference_validation():
    p = counterexample_distribution()
    polys = [p] + [p.derivative(i) for i in (1, 2, 3)]
    rng = np.random.default_rng(7)
    polys += [random_subset_poly(rng, 3) for _ in range(50)]
    for poly in polys:
        for _ in range(100):
            x = random_positive_point(rng, 3, lo=0.1, hi=10.0)
            assert matrix_close(fd_log_hessian(poly, x, h=1e-4), log_hessian(poly, x), rel=1e-5)


def test_c8_property_suite():
    _scale_invariance_of_verdicts(cases=500)
    _derivative_coefficient_identity(cases=500)
    _permutation_equivariance_of_witnesses(cases=500)
    _certificate_implies_no_sampled_violation(cases=500)


def _scale_invariance_of_verdicts(cases: int) -> None:
    rng = np.random.default_rng(81)
    for idx in range(cases):
        n = int(rng.integers(1, 4))
        p = random_subset_poly(rng, n)
        lam = Fraction(int(rng.integers(1, 100)), int(rng.integers(1, 14)))
        q = p.scale(lam)

        a, b = check_nlc(p), check_nlc(q)
        assert type(a) is type(b)
        if isinstance(a, Violated):
            assert (a.witness.s_mask, a.witness.t_mask) == (b.witness.s_mask, b.witness.t_mask)
            assert b.witness.lhs == a.witness.lhs * lam * lam

        ta, tb = trivial_log_concavity(p), trivial_log_concavity(q)
        assert (ta is None) == (tb is None)
        if ta is not None:
            assert ta.kind == tb.kind
        for certify in (certify_log_concavity_dominance, certify_log_concavity_coefficients):
            assert (certify(p) is None) == (certify(q) is None)

        cfg = SampleConfig(points=16, seed=idx)
        va = check_log_concavity_sampled(p, cfg)
        vb = check_log_concavity_sampled(q, cfg)
        assert type(va) is type(vb)
        if isinstance(va, Violated):
            assert va.witness.point == vb.witness.point


def _derivative_coefficient_identity(cases: int) -> None:
    rng = np.random.default_rng(82)
    for _ in range(cases):
        n = int(rng.integers(1, 5))
        p = random_subset_poly(rng, n)
        a = int(rng.integers(0, 1 << n))
        q = p.derivative_subset(a)
        for t in range(1 << n):
            if t & a:
                assert q.coeffs[t] == 0
            else:
                assert q.coeffs[t] == p.coeffs[t | a]


def _permutation_equivariance_of_witnesses(cases: int) -> None:
    rng = np.random.default_rng(83)
    for _ in range(cases):
        n = int(rng.integers(2, 5))
        p = random_subset_poly(rng, n)
        images = random_permutation(rng, n)

        def apply(mask: int) -> int:
            out = 0
            for i in range(n):
                if mask >> i & 1:
                    out |= 1 << (images[i] - 1)
            return out

        # The scan yields each pair as S < T, which a permutation need not keep.
        mapped = {tuple(sorted((apply(s), apply(t)))) for s, t in _nlc_violating_pairs(p)}
        assert mapped == set(_nlc_violating_pairs(permute(p, images)))


def _certificate_implies_no_sampled_violation(cases: int) -> None:
    rng = np.random.default_rng(84)
    non_vacuous = 0
    for idx in range(cases):
        if idx % 2 == 0:
            n = int(rng.integers(1, 4))
            p = random_subset_poly(rng, n)
        else:
            # Product measures always carry a certificate, keeping the
            # implication exercised rather than vacuously true.
            n = int(rng.integers(1, 4))
            marginals = [Fraction(int(rng.integers(1, 10)), 10) for _ in range(n)]
            p = product_measure(marginals)
        cert = certify_log_concavity_dominance(p)
        if cert is None:
            continue
        non_vacuous += 1
        verdict = check_log_concavity_sampled(p, SampleConfig(points=12, seed=idx))
        assert not isinstance(verdict, Violated)
    assert non_vacuous >= 250
