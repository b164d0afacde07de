"""Verdicts, witnesses, certificates, and the checking procedures.

Three verdict shapes cover every check:

  * Holds(certificate)        proved, with the exact reason attached;
  * Violated(witness)         disproved, with a re-checkable witness;
  * NoViolationFound(stats)   sampling ran out of points, nothing proved.

Sampling can only ever falsify.  A Holds verdict always traces back to an
exact argument: exhaustive enumeration for the lattice condition, a
coefficient-wise diagonal dominance certificate, or membership in a class
that is log-concave for structural reasons (zero, constant, a single
monomial, or an affine polynomial), which `trivial_log_concavity` alone
decides, from the nonzero coefficients.  `check_slc` takes every class;
`check_log_concavity_sampled` takes all but the affine one.

The lattice scan and the dominance certificate (`calculus.m_row_gaps`)
decide on the integer coefficients of `SubsetPoly.cleared`.  A
`DominanceCertificate` builds its gap polynomials from the same integer M,
only when a caller reads them: they are the gaps the decision read.
Sampling reads every log-Hessian from the derivative table of `calculus`
and only flags points, confirming each from the scan's own Hessian and
threshold.  `SampleConfig` validates itself when built.
Both witnesses are proofs: a lattice witness holds its products in
rationals, a point witness a point and vector with v^T M(x) v < 0 in
integers (`calculus.m_form`), and neither is returned unless that holds.
`sample_points` keeps its last result, so `check_slc` draws the points
once for all derivative subsets.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterator, Mapping, Union

import numpy as np

from .calculus import log_hessian_many, m_form, m_row_gaps, uncleared
from .linalg import nsd_threshold
from .poly import SparsePoly, SubsetPoly, format_subset

# ----- certificates ---------------------------------------------------------


@dataclass(frozen=True)
class ExhaustiveEnumeration:
    """All pairs of subsets were checked exactly."""

    pairs_checked: int


@dataclass(frozen=True)
class TrivialLogConcavity:
    """Membership in a structurally log-concave class.

    kind is one of 'zero', 'constant', 'monomial', 'affine'.  A constant or
    single monomial has an affine logarithm; an affine polynomial has
    log-Hessian -grad grad^T / g^2, which is negative semidefinite wherever
    g is positive; the zero polynomial holds by convention.
    """

    kind: str


@dataclass(frozen=True)
class DominanceCertificate:
    """Coefficient-wise strict diagonal dominance of the M matrix of poly.

    row_gaps[i] is M_ii minus the coefficient-wise absolute values of the
    off-diagonal row entries.  Every gap has nonnegative coefficients and at
    least one positive coefficient, so on the open positive orthant M is
    strictly diagonally dominant with positive diagonal, hence positive
    definite, hence log g is concave there.  row_gaps are built exactly on
    first read: they are the integer gaps of `calculus.m_row_gaps` that the
    decision read, divided by L^2.
    """

    poly: SubsetPoly

    @cached_property
    def row_gaps(self) -> tuple[SparsePoly, ...]:
        return tuple(uncleared(self.poly, gap) for gap in m_row_gaps(self.poly))


@dataclass(frozen=True)
class SubsetCertificates:
    """Aggregate certificate: one exact certificate per derivative subset."""

    entries: tuple[tuple[int, Union[TrivialLogConcavity, DominanceCertificate]], ...]


Certificate = Union[
    ExhaustiveEnumeration, TrivialLogConcavity, DominanceCertificate, SubsetCertificates
]

# ----- witnesses -------------------------------------------------------------


@dataclass(frozen=True)
class NlcWitness:
    """A pair of subsets violating p(S) p(T) >= p(S | T) p(S & T)."""

    s_mask: int
    t_mask: int
    lhs: Fraction
    rhs: Fraction

    def describe(self) -> str:
        return (
            f"S = {format_subset(self.s_mask)}, T = {format_subset(self.t_mask)}: "
            f"p(S)*p(T) = {format_fraction_pair(self.lhs, self.rhs)} = p(S|T)*p(S&T)"
        )


@dataclass(frozen=True)
class PointWitness:
    """A positive point where a derivative's log-Hessian fails to be NSD.

    vector is the top eigenvector of the float log-Hessian there; with the
    point it proves the failure exactly, v^T M(x) v < 0 (`calculus.m_form`).
    """

    subset_mask: int
    point: tuple[float, ...]
    max_eigenvalue: float
    threshold: float
    vector: tuple[float, ...]

    def describe(self) -> str:
        pt = "(" + ", ".join(repr(v) for v in self.point) + ")"
        return (
            f"derivative subset A = {format_subset(self.subset_mask)} at {pt}: "
            f"max log-Hessian eigenvalue {self.max_eigenvalue:.6e} "
            f"exceeds threshold {self.threshold:.6e}"
        )


def format_fraction_pair(lhs: Fraction, rhs: Fraction) -> str:
    """Render two rationals over their least common denominator, as 'a/d < b/d'."""
    den = math.lcm(lhs.denominator, rhs.denominator)
    rel = "<" if lhs < rhs else (">" if lhs > rhs else "=")
    return (
        f"{lhs.numerator * (den // lhs.denominator)}/{den} {rel} "
        f"{rhs.numerator * (den // rhs.denominator)}/{den}"
    )


# ----- verdicts --------------------------------------------------------------


@dataclass(frozen=True)
class SampleStats:
    points_tested: int
    derivatives_tested: int
    tolerance: float
    seed: object
    max_eigenvalue_seen: float


@dataclass(frozen=True)
class Holds:
    certificate: Certificate


@dataclass(frozen=True)
class Violated:
    witness: Union[NlcWitness, PointWitness]


@dataclass(frozen=True)
class NoViolationFound:
    stats: SampleStats


Verdict = Union[Holds, Violated, NoViolationFound]


def exit_code(verdict: Verdict) -> int:
    """Process exit convention: 0 unless a violation was found."""
    return 1 if isinstance(verdict, Violated) else 0


# ----- negative lattice condition --------------------------------------------


def check_nlc(p: SubsetPoly) -> Verdict:
    """Exact log-submodularity check by full enumeration.

    Tests p(S) p(T) >= p(S | T) p(S & T) for every ordered pair of subsets
    (cost 4**n, see _nlc_violating_pairs) and returns the lexicographically
    first violating pair by (S, T) bitmask, its products checked in
    rationals, or Holds with an enumeration certificate.
    """
    first = next(_nlc_violating_pairs(p), None)
    if first is None:
        return Holds(ExhaustiveEnumeration(pairs_checked=4**p.n))
    return Violated(_nlc_witness(p, *first))


# Pairs per comparison in the lattice scan, whose products are Python ints:
# this bounds its memory.  A block is never less than one S row.
NLC_BLOCK_PAIRS = 1 << 12


def _nlc_violating_pairs(p: SubsetPoly) -> Iterator[tuple[int, int]]:
    """Every (S, T) with p(S) p(T) < p(S | T) p(S & T), in lexicographic order.

    Compares the same products of the integers w = p.cleared[0], for
    a block of consecutive S rows against every T at once, so row-major
    order is lexicographic.  Comparable pairs compare equal.
    """
    size = 1 << p.n
    w = np.array(p.cleared[0], dtype=object)
    t = np.arange(size)
    rows = max(1, NLC_BLOCK_PAIRS >> p.n)
    for s0 in range(0, size, rows):
        s = np.arange(s0, min(s0 + rows, size))[:, None]
        bad = np.multiply.outer(w[s0 : s0 + rows], w) < w[s | t] * w[s & t]
        for k in np.flatnonzero(bad):
            yield s0 + int(k) // size, int(k) % size


def _nlc_witness(p: SubsetPoly, s: int, t: int) -> NlcWitness:
    """The witness for a pair the scan flagged, its products taken in rationals.

    Raises AssertionError unless those products violate the condition, so
    the integer scan and the returned witness cannot disagree.
    """
    c = p.coeffs
    witness = NlcWitness(s, t, c[s] * c[t], c[s | t] * c[s & t])
    if not witness.lhs < witness.rhs:
        raise AssertionError(f"witness failed re-verification: {witness}")
    return witness


# ----- sampled log-concavity ---------------------------------------------------

GRID_VALUES = (0.1, 0.5, 1.0, 2.0, 10.0)

# The fixed grid has 5**n points; past this many variables it would dwarf
# the random sample, so it is only included for small n.
GRID_MAX_VARS = 6

# Points per batched log-Hessian and eigvalsh call in the sampler; bounds
# the (points, n, n) arrays one call holds.  The scan first probes
# SAMPLE_PROBE points on their own, since a failing input usually fails
# within them, and only then goes on a full chunk at a time.
SAMPLE_PROBE = 64
SAMPLE_CHUNK = 1024


@dataclass(frozen=True)
class SampleConfig:
    """Configuration for the sampling falsifier.

    points log-uniform samples are drawn from box[0]..box[1] per coordinate,
    on top of a fixed deterministic grid.  tolerance is relative: at each
    point the largest log-Hessian eigenvalue may not exceed
    tolerance * (1 + max |H entry|).  seed must be one numpy accepts, and
    hashable, since sample_points is memoized on the configuration.
    Construction stores box as two floats and points as an int, and refuses
    an invalid configuration.
    """

    points: int = 2000
    box: tuple[float, float] = (0.01, 100.0)
    seed: object = 0
    tolerance: float = 1e-9

    def __post_init__(self) -> None:
        lo, hi = map(float, self.box)
        object.__setattr__(self, "box", (lo, hi))
        if not (0.0 < lo <= hi < math.inf):
            raise ValueError(f"box must satisfy 0 < lo <= hi < inf, got {self.box}")
        try:
            object.__setattr__(self, "points", operator.index(self.points))
        except TypeError:
            raise ValueError(f"points must be an integer, got {self.points!r}") from None
        if self.points < 0:
            raise ValueError("points must be nonnegative")
        if not 0.0 <= self.tolerance < math.inf:
            raise ValueError(f"tolerance must be finite and nonnegative, got {self.tolerance}")
        try:
            np.random.SeedSequence(self.seed)
            hash(self.seed)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad seed {self.seed!r}: {exc}") from None


@lru_cache(maxsize=None)
def grid_points(n: int) -> np.ndarray:
    """The fixed 5**n grid over GRID_VALUES, empty past GRID_MAX_VARS.

    Built once per n and returned read-only.
    """
    if n > GRID_MAX_VARS:
        grid = np.empty((0, n), dtype=float)
    else:
        grid = np.array(list(itertools.product(GRID_VALUES, repeat=n)), dtype=float)
    grid.flags.writeable = False
    return grid


@lru_cache(maxsize=1)
def sample_points(n: int, cfg: SampleConfig) -> np.ndarray:
    """Deterministic point sequence: fixed grid first, then seeded log-uniform draws.

    The last result is kept, read-only, so checking several derivatives of
    one polynomial draws the points once; the grid is built once per n.
    """
    rng = np.random.default_rng(cfg.seed)
    lo, hi = cfg.box
    draws = np.exp(rng.uniform(np.log(lo), np.log(hi), size=(cfg.points, n)))
    pts = np.vstack([grid_points(n), draws])
    pts.flags.writeable = False
    return pts


def trivial_log_concavity(p: SubsetPoly) -> TrivialLogConcavity | None:
    """Exact structural reasons making log g concave wherever g > 0."""
    masks = p.nonzero_masks()
    if not masks:
        return TrivialLogConcavity("zero")
    if masks == (0,):
        return TrivialLogConcavity("constant")
    if len(masks) == 1:
        return TrivialLogConcavity("monomial")
    if all(m & (m - 1) == 0 for m in masks):
        return TrivialLogConcavity("affine")
    return None


def _scan_chunks(count: int) -> Iterator[slice]:
    """The sampler's chunks of count points: SAMPLE_PROBE first, then SAMPLE_CHUNK each."""
    start, size = 0, SAMPLE_PROBE
    while start < count:
        yield slice(start, start + size)
        start, size = start + size, SAMPLE_CHUNK


def check_log_concavity_sampled(
    p: SubsetPoly,
    cfg: SampleConfig = SampleConfig(),
    *,
    subset_mask: int = 0,
) -> Verdict:
    """Search positive points for a non-NSD log-Hessian.

    Never returns Holds on the strength of samples alone: only the zero,
    constant, and single-monomial classes of `trivial_log_concavity`
    produce Holds here; an affine polynomial is sampled like any other.
    The scan order (grid, then seeded draws) is deterministic, and the
    first confirmed failure wins.  Points go through in the chunks of
    `_scan_chunks`; every value a point yields is computed for that point
    alone, so the chunks decide only how much is computed past the first
    failure.  subset_mask only labels the witness; the polynomial passed in
    is checked as is.
    """
    if len(p.nonzero_masks()) <= 1:
        return Holds(trivial_log_concavity(p))

    pts = sample_points(p.n, cfg)
    max_seen = -np.inf
    tested = 0
    for rows in _scan_chunks(pts.shape[0]):
        chunk = pts[rows]
        hessians = log_hessian_many(p, chunk)
        eigs = np.linalg.eigvalsh(hessians)[:, -1]
        thresholds = nsd_threshold(hessians, cfg.tolerance)
        max_seen = max(max_seen, float(eigs.max()))
        for k in np.flatnonzero(eigs > thresholds):
            eigenvalues, vectors = np.linalg.eigh(hessians[k])
            top, threshold = float(eigenvalues[-1]), float(thresholds[k])
            point = tuple(float(v) for v in chunk[k])
            vector = tuple(float(c) for c in vectors[:, -1])
            if top > threshold and m_form(p, point, vector) < 0:
                return Violated(PointWitness(subset_mask, point, top, threshold, vector))
        tested += chunk.shape[0]
    stats = SampleStats(
        points_tested=tested,
        derivatives_tested=1,
        tolerance=cfg.tolerance,
        seed=cfg.seed,
        max_eigenvalue_seen=max_seen,
    )
    return NoViolationFound(stats)


# ----- dominance certificate ----------------------------------------------------


def certify_log_concavity_dominance(p: SubsetPoly) -> DominanceCertificate | None:
    """Try to prove log-concavity on the whole positive orthant, exactly.

    Forms M = grad g grad g^T - g D2g and, per row, the gap polynomial

        D_i = M_ii - sum_{j != i} abs_coeffs(M_ij).

    If every gap has nonnegative coefficients and at least one positive
    coefficient then, at every point with all coordinates positive, M is
    strictly diagonally dominant with positive diagonal, hence positive
    definite; so the log-Hessian is negative definite there.  (M_ii is a
    square of nonnegative coefficients, so its own coefficients are never
    negative.)  The gaps are taken in integer coefficients, row by row, and
    the first failing row ends the attempt.  Returns None when this
    sufficient condition does not apply (which proves nothing).
    """
    for gap in m_row_gaps(p):
        if not (all(c >= 0 for c in gap.values()) and any(c > 0 for c in gap.values())):
            return None
    return DominanceCertificate(p)


# ----- full strong log-concavity check -------------------------------------------


@dataclass(frozen=True)
class SlcReport:
    """Outcome of checking every square-free derivative of p.

    subsets maps each derivative bitmask A (including 0) to the verdict for
    that derivative.  aggregate is Violated if anything was violated, Holds
    if every subset carries an exact certificate, and NoViolationFound
    otherwise.
    """

    subsets: Mapping[int, Verdict]
    aggregate: Verdict


def check_slc(p: SubsetPoly, cfg: SampleConfig = SampleConfig()) -> SlcReport:
    """Check log-concavity of every iterated derivative of g_p.

    Only square-free derivative sets matter: differentiating a multi-affine
    polynomial twice in the same variable yields zero.  Per subset the
    strategy is triviality, then the exact dominance certificate, then
    sampling.
    """
    results: dict[int, Verdict] = {}
    for a in range(1 << p.n):
        q = p.derivative_subset(a)
        trivial = trivial_log_concavity(q)
        if trivial is not None:
            results[a] = Holds(trivial)
            continue
        cert = certify_log_concavity_dominance(q)
        if cert is not None:
            results[a] = Holds(cert)
            continue
        results[a] = check_log_concavity_sampled(q, cfg, subset_mask=a)
    return SlcReport(subsets=results, aggregate=_aggregate(results, cfg))


def _aggregate(results: Mapping[int, Verdict], cfg: SampleConfig) -> Verdict:
    for a in sorted(results):
        v = results[a]
        if isinstance(v, Violated):
            return v
    if all(isinstance(v, Holds) for v in results.values()):
        entries = tuple((a, results[a].certificate) for a in sorted(results))  # type: ignore[union-attr]
        return Holds(SubsetCertificates(entries))
    points = sum(
        v.stats.points_tested for v in results.values() if isinstance(v, NoViolationFound)
    )
    max_seen = max(
        (v.stats.max_eigenvalue_seen for v in results.values() if isinstance(v, NoViolationFound)),
        default=-np.inf,
    )
    stats = SampleStats(
        points_tested=points,
        derivatives_tested=len(results),
        tolerance=cfg.tolerance,
        seed=cfg.seed,
        max_eigenvalue_seen=max_seen,
    )
    return NoViolationFound(stats)
