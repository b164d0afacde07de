"""The built-in counterexample distribution and its reproduction checks.

The distribution weights the empty set 4, each singleton 3, each pair 3,
and the triple 0 over a ground set of three elements (this is the family
member at b = c = 3).  It is strongly log-concave yet fails the negative
lattice condition, so the two properties genuinely differ, and everything
about it is verified exactly, with no float and no seed:

  * the lattice condition fails on two singletons;
  * every derivative subset carries an exact certificate, the dominance
    certificate among them proving log-concavity of g itself;
  * the first derivative d1 g = (3/22)(1 + y + z) is affine, so its M
    matrix is grad grad^T = (3/22)^2 E with E = [[0,0,0],[0,1,1],[0,1,1]],
    and -(1 + y + z)^2 times its log-Hessian is E, of eigenvalues {0, 0, 2};
  * the M matrix equals a single positive rational multiple of a
    reference matrix, written as the polynomials 3(u + v + 1)^2 and
    3w^2 + 3w - 1, and its row-1 dominance gap (`calculus.m_row_gaps`, the
    first the certificate's decision read) is that same multiple of
    6yz + 3y + 3z + 1.

`run_reproduction` replays all of that and reports each expectation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .calculus import m_matrix, m_row_gaps, uncleared
from .checkers import Holds, LogConcavityCertificate, Violated, check_nlc, check_slc
from .poly import SparsePoly, SubsetPoly

EXPECTED_NLC_LHS = Fraction(9, 484)
EXPECTED_NLC_RHS = Fraction(12, 484)


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


def run_reproduction() -> ReproReport:
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
        detail = w.describe()
    else:
        good = False
        detail = f"expected a violation, got {type(verdict).__name__}"
    checks.append(ReproCheck("lattice-condition-violated", good, detail))

    # 2. Log-concavity of g itself carries an exact dominance certificate;
    # every other derivative subset is trivial, so no point is sampled.
    report = check_slc(p)
    base = report.subsets.get(0)
    cert = base.certificate if isinstance(base, Holds) else None
    good = cert == LogConcavityCertificate("dominance") and isinstance(report.aggregate, Holds)
    detail = (
        "dominance certificate found for the undifferentiated polynomial; "
        f"aggregate over {len(report.subsets)} derivative subsets: "
        f"{type(report.aggregate).__name__}"
    )
    if not good:
        detail = f"no dominance certificate; base verdict {type(base).__name__}"
    checks.append(ReproCheck("dominance-certificate", good, detail))

    # 3. d1 g = (3/22)(1 + y + z) is affine, so M(d1 g) = grad grad^T =
    # (3/22)^2 E and -(1 + y + z)^2 H(d1 g) = E exactly, with eigenvalues
    # {0, 0, 2} on e1, (0, 1, -1) and (0, 1, 1).
    d1 = p.derivative(1)
    c = Fraction(3, 22)
    one, zero = SparsePoly.make(3, {(0, 0, 0): 1}), SparsePoly(3, {})
    e = tuple(tuple(one if i and j else zero for j in range(3)) for i in range(3))
    q = proportionality_scalar(m_matrix(d1), e)
    good = d1 == SubsetPoly.from_weights(3, {0: c, 0b010: c, 0b100: c}) and q == c * c
    detail = (
        f"d1 g = 3/22 * (1 + y + z), M(d1 g) = {q} * E with E = [[0,0,0],[0,1,1],[0,1,1]], "
        "so -(1+y+z)^2 H(d1 g) = E: eigenvalues {0, 0, 2}, exactly"
        if good
        else f"expected d1 g = 3/22 * (1 + y + z) and M(d1 g) = 9/484 * E, got scalar {q}"
    )
    checks.append(ReproCheck("first-derivative-eigenvalues", good, detail))

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
    if cert == LogConcavityCertificate("dominance") and scalar is not None:
        gap = uncleared(p, next(m_row_gaps(p)))
        good = gap == reference_row_gap() * scalar
        detail = f"row-1 gap = {scalar} * ({reference_row_gap().format()})"
        if not good:
            detail = (
                f"row-1 gap {gap.format()} differs from "
                f"{scalar} * ({reference_row_gap().format()})"
            )
    else:
        good = False
        detail = "prerequisites missing (no certificate or no scalar)"
    checks.append(ReproCheck("row-gap-form", good, detail))

    return ReproReport(tuple(checks))
