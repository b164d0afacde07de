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
    reference matrix, written as the polynomials 3(1 + u + v)^2 and
    3w^2 + 3w - 1, and its row-1 dominance gap (`calculus.m_row_gaps`, the
    first the certificate's decision read) is that same multiple of
    1 + 3y + 3z + 6yz.

Every M here is compared on the integers the certificates read: L^2 M from
`calculus.cleared_m_rows`, against references kept as integer coefficient
dicts under the monomial key of `poly.add_products`, which builds them.
Each multiple found is divided by L^2 once, for the report.

`run_reproduction` replays all of that and reports each expectation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .calculus import Rows, cleared_m_rows, m_row_gaps
from .checkers import Holds, LogConcavityCertificate, Violated, check_nlc, check_slc
from .poly import SubsetPoly, add_products

EXPECTED_NLC_LHS = Fraction(9, 484)
EXPECTED_NLC_RHS = Fraction(12, 484)


def counterexample_weights() -> SubsetPoly:
    """Unnormalized weights: 4 on the empty set, 3 on singletons and pairs."""
    weights = {0: 4, 0b001: 3, 0b010: 3, 0b100: 3, 0b011: 3, 0b101: 3, 0b110: 3}
    return SubsetPoly.from_weights(3, weights)


def counterexample_distribution() -> SubsetPoly:
    """The normalized counterexample distribution."""
    return counterexample_weights().normalize()


def _poly(*products: tuple[int, dict[int, int], dict[int, int]]) -> dict[int, int]:
    """The sum of sign * f * h over (sign, f, h), as integers under the monomial key.

    f and h map subset masks to integer coefficients (multi-affine
    polynomials in three variables); `poly.add_products` forms each product.
    """
    out: dict[int, int] = {}
    for sign, f, h in products:
        add_products(3, out, f.items(), h.items(), sign)
    return out


def reference_matrix() -> list[list[dict[int, int]]]:
    """Hard-coded reference form of the M matrix, up to a positive scalar, as rows.

    Diagonal entries are 3(1 + u + v)^2 in the two other variables;
    off-diagonal entries are 3w^2 + 3w - 1 in the variable missing from the
    row/column pair.  The reproduction checks that the integers L^2 M of
    `cleared_m_rows` for the normalized distribution are exactly a positive
    rational multiple of this (3 times it, so M is 3/484 times it).
    """
    def entry(i: int, j: int) -> dict[int, int]:
        if i == j:
            u, v = (1 << k for k in range(3) if k != i)
            f = {0: 1, u: 1, v: 1}
            return _poly((3, f, f))
        w = 1 << (3 - i - j)
        return _poly((3, {w: 1}, {w: 1, 0: 1}), (-1, {0: 1}, {0: 1}))

    return [[entry(i, j) for j in range(3)] for i in range(3)]


def reference_row_gap() -> tuple[str, dict[int, int]]:
    """Row-1 dominance gap of the reference matrix, as text and as integers."""
    return "1 + 3*y + 3*z + 6*y*z", _poly((1, {0: 1}, {0: 1, 0b010: 3, 0b100: 3, 0b110: 6}))


def proportionality_scalar(m: Rows, r: Rows) -> Fraction | None:
    """The single positive rational q with m == q * r, entry for entry, if one exists.

    m and r are rows of integer dicts under the monomial key; zero
    coefficients are ignored, as `cleared_m_rows` keeps zero sums.
    """
    pairs = [
        ({k: c for k, c in a.items() if c}, {k: c for k, c in b.items() if c})
        for m_row, r_row in zip(m, r, strict=True)
        for a, b in zip(m_row, r_row, strict=True)
    ]
    first = next(((a.get(k, 0), c) for a, b in pairs for k, c in b.items()), None)
    if first is None:
        return None
    q = Fraction(*first)
    return q if q > 0 and all(a == {k: c * q for k, c in b.items()} for a, b in pairs) else None


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
    e = [[_poly((1, {0: 1}, {0: 1})) if i and j else {} for j in range(3)] for i in range(3)]
    q = proportionality_scalar(cleared_m_rows(d1), e)
    q = None if q is None else q / d1.cleared[1] ** 2
    good = d1 == SubsetPoly.from_weights(3, {0: c, 0b010: c, 0b100: c}) and q == c * c
    detail = (
        f"d1 g = 3/22 * (1 + y + z), M(d1 g) = {q} * E with E = [[0,0,0],[0,1,1],[0,1,1]], "
        "so -(1+y+z)^2 H(d1 g) = E: eigenvalues {0, 0, 2}, exactly"
        if good
        else f"expected d1 g = 3/22 * (1 + y + z) and M(d1 g) = 9/484 * E, got scalar {q}"
    )
    checks.append(ReproCheck("first-derivative-eigenvalues", good, detail))

    # 4. The M matrix is a single positive rational multiple of the reference.
    scale = p.cleared[1] ** 2
    cleared = proportionality_scalar(cleared_m_rows(p), reference_matrix())
    scalar = None if cleared is None else cleared / scale
    good = scalar is not None
    detail = (
        f"M = {scalar} * reference matrix, entry for entry"
        if good
        else "M is not proportional to the reference matrix"
    )
    checks.append(ReproCheck("reference-proportionality", good, detail))

    # 5. The row-1 dominance gap is that same multiple of 6yz + 3y + 3z + 1.
    if cert == LogConcavityCertificate("dominance") and scalar is not None:
        text, ref_gap = reference_row_gap()
        good = proportionality_scalar([[next(m_row_gaps(p))]], [[ref_gap]]) == cleared
        detail = (
            f"row-1 gap = {scalar} * ({text})" if good
            else f"row-1 gap is not {scalar} * ({text})"
        )
    else:
        good = False
        detail = "prerequisites missing (no certificate or no scalar)"
    checks.append(ReproCheck("row-gap-form", good, detail))

    return ReproReport(tuple(checks))
