"""The built-in counterexample distribution and its reproduction checks.

The distribution weights the empty set 4, each singleton 3, each pair 3,
and the triple 0 over a ground set of three elements (this is the family
member at b = c = 3).  It is strongly log-concave yet fails the negative
lattice condition, so the two properties genuinely differ, and everything
about it can be verified exactly:

  * the lattice condition fails on two singletons;
  * the dominance certificate proves log-concavity of g itself;
  * every first derivative is affine, every second derivative constant;
  * the M matrix equals a single positive rational multiple of a
    reference matrix, written as the polynomials 3(u + v + 1)^2 and
    3w^2 + 3w - 1, and the certificate's row-1 gap (the one the dominance
    decision read) is that same multiple of 6yz + 3y + 3z + 1.

`run_reproduction` replays all of that and reports each expectation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .calculus import log_hessian, m_matrix
from .checkers import (
    DominanceCertificate,
    Holds,
    SampleConfig,
    Violated,
    check_nlc,
    check_slc,
    format_fraction_pair,
)
from .linalg import eigen_sym
from .poly import SparsePoly, SubsetPoly, format_subset

EXPECTED_NLC_LHS = Fraction(9, 484)
EXPECTED_NLC_RHS = Fraction(12, 484)
EIGEN_SAMPLES = 20  # seeded points (1, y, z) for the first-derivative eigenvalues


def counterexample_weights() -> SubsetPoly:
    """Unnormalized weights: 4 on the empty set, 3 on singletons and pairs."""
    weights = {0: 4, 0b001: 3, 0b010: 3, 0b100: 3, 0b011: 3, 0b101: 3, 0b110: 3}
    return SubsetPoly.from_weights(3, weights)


def counterexample_distribution() -> SubsetPoly:
    """The normalized counterexample distribution."""
    return counterexample_weights().normalize()


def reference_matrix() -> tuple[tuple[SparsePoly, ...], ...]:
    """Hard-coded reference form of the M matrix, up to a positive scalar, as rows.

    Diagonal entries are 3(u + v + 1)^2 = 3u^2 + 6uv + 3v^2 + 6u + 6v + 3
    in the two other variables; off-diagonal entries are 3w^2 + 3w - 1 in
    the variable missing from the row/column pair.  The reproduction checks
    that m_matrix of the normalized distribution is exactly a positive
    rational multiple of this.
    """
    def entry(i: int, j: int) -> SparsePoly:
        if i == j:  # monomials as tuples of 0-based variables, one per factor
            u, v = (k for k in range(3) if k != i)
            terms = {(u, u): 3, (u, v): 6, (v, v): 3, (u,): 6, (v,): 6, (): 3}
        else:
            w = 3 - i - j
            terms = {(w, w): 3, (w,): 3, (): -1}
        return SparsePoly.make(3, {tuple(m.count(k) for k in range(3)): c for m, c in terms.items()})

    return tuple(tuple(entry(i, j) for j in range(3)) for i in range(3))


def reference_row_gap() -> SparsePoly:
    """Row-1 dominance gap of the reference matrix: 6yz + 3y + 3z + 1."""
    return SparsePoly.make(
        3, {(0, 0, 0): 1, (0, 1, 0): 3, (0, 0, 1): 3, (0, 1, 1): 6}
    )


def proportionality_scalar(
    m: tuple[tuple[SparsePoly, ...], ...], r: tuple[tuple[SparsePoly, ...], ...]
) -> Fraction | None:
    """The single positive rational q with m == q * r, if one exists."""
    first = next(((e, key, c) for m_row, r_row in zip(m, r) for e, f in zip(m_row, r_row)
                  for key, c in f.terms.items()), None)
    if first is None:
        return None
    e, key, c = first
    q = e.terms.get(key, 0) / c
    return q if q > 0 and m == tuple(tuple(f * q for f in row) for row in r) else None


# ----- reproduction -------------------------------------------------------------


@dataclass(frozen=True)
class ReproCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ReproReport:
    checks: tuple[ReproCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            out.append(f"{'ok  ' if c.passed else 'FAIL'} {c.name}: {c.detail}")
        return out


def run_reproduction(seed: int = 0) -> ReproReport:
    """Re-derive every known fact about the counterexample and report each one."""
    p = counterexample_distribution()
    checks = []

    # 1. The lattice condition fails on a pair of singletons, exactly.
    verdict = check_nlc(p)
    if isinstance(verdict, Violated):
        w = verdict.witness
        good = (
            w.s_mask == 0b001
            and w.t_mask == 0b010
            and w.lhs == EXPECTED_NLC_LHS
            and w.rhs == EXPECTED_NLC_RHS
        )
        detail = (
            f"S = {format_subset(w.s_mask)}, T = {format_subset(w.t_mask)}, "
            f"p(S)*p(T) = {format_fraction_pair(w.lhs, w.rhs)} = p(S|T)*p(S&T)"
        )
    else:
        good = False
        detail = f"expected a violation, got {type(verdict).__name__}"
    checks.append(ReproCheck("lattice-condition-violated", good, detail))

    # 2. Log-concavity of g itself carries an exact dominance certificate.
    report = check_slc(p, SampleConfig(seed=seed))
    base = report.subsets.get(0)
    cert = base.certificate if isinstance(base, Holds) else None
    good = isinstance(cert, DominanceCertificate) and not isinstance(
        report.aggregate, Violated
    )
    detail = (
        "dominance certificate found for the undifferentiated polynomial; "
        f"aggregate over {len(report.subsets)} derivative subsets: "
        f"{type(report.aggregate).__name__}"
    )
    if not good:
        detail = f"no dominance certificate; base verdict {type(base).__name__}"
    checks.append(ReproCheck("dominance-certificate", good, detail))

    # 3. First-derivative log-Hessians: eigenvalues {0, 0, 2} after the
    # known scaling, at seeded sample points (1, y, z).
    rng = np.random.default_rng(seed)
    d1 = p.derivative(1)
    worst = 0.0
    for _ in range(EIGEN_SAMPLES):
        y, z = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=2))
        h = log_hessian(d1, (1.0, float(y), float(z)))
        scaled = -((y + z + 1.0) ** 2) * h
        eigs = eigen_sym(scaled)
        worst = max(worst, float(np.max(np.abs(np.array(eigs) - np.array([0.0, 0.0, 2.0])))))
    good = worst <= 1e-9
    checks.append(
        ReproCheck(
            "first-derivative-eigenvalues",
            good,
            f"eigenvalues {{0, 0, 2}} after scaling by -(y+z+1)^2, "
            f"max deviation {worst:.3e} over {EIGEN_SAMPLES} samples",
        )
    )

    # 4. The M matrix is a single positive rational multiple of the reference.
    m = m_matrix(p)
    scalar = proportionality_scalar(m, reference_matrix())
    good = scalar is not None
    detail = (
        f"M = {scalar} * reference matrix, entry for entry"
        if good
        else "M is not proportional to the reference matrix"
    )
    checks.append(ReproCheck("reference-proportionality", good, detail))

    # 5. The row-1 dominance gap is that same multiple of 6yz + 3y + 3z + 1.
    if isinstance(cert, DominanceCertificate) and scalar is not None:
        expected = reference_row_gap() * scalar
        good = cert.row_gaps[0] == expected
        detail = f"row-1 gap = {scalar} * ({reference_row_gap().format()})"
        if not good:
            detail = (
                f"row-1 gap {cert.row_gaps[0].format()} differs from "
                f"{scalar} * ({reference_row_gap().format()})"
            )
    else:
        good = False
        detail = "prerequisites missing (no certificate or no scalar)"
    checks.append(ReproCheck("row-gap-form", good, detail))

    return ReproReport(tuple(checks))
