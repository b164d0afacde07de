"""The coefficient-space engine against slower, independent routes.

Five fast paths are checked on seeded random inputs with n = 1..8, zero
weights, weights spanning about 1e-40..1e40, and the counterexample:

  * every row of the derivative table (`calculus._superset_sums`) against
    exact evaluation of the corresponding derivative at rational points;
  * the integer M (`m_matrix`), its dominance gaps (`DominanceCertificate.
    row_gaps`) and the decision against M built term by term in Fractions
    on exponent tuples, apart from the package's key and product loop;
  * `check_slc`, whose memoized sample points serve every derivative
    subset, against a loop that draws fresh points for each derivative;
  * the integer sign of v^T M(x) v (`m_form`) against v^T M(x) v from
    `m_matrix` in rationals, and every point witness `check_slc` issues,
    also with weights near 1e-400 and on cells of the (b, c) family;
  * the sampler's chunked scan (`check_log_concavity_sampled`) against one
    pass over all its points at once, at n = 2..7, on point counts either
    side of each chunk edge and on witnesses planted either side of them.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from slcheck import (
    Holds,
    NoViolationFound,
    SampleConfig,
    SubsetPoly,
    Violated,
    check_slc,
)
from slcheck import checkers
from slcheck.calculus import (
    _float_coeffs,
    _superset_sums,
    block_points,
    eval_many,
    log_hessian,
    log_hessian_many,
    m_form,
    m_matrix,
)
from slcheck.checkers import (
    DominanceCertificate,
    PointWitness,
    SampleStats,
    certify_log_concavity_dominance,
    check_log_concavity_sampled,
    sample_points,
    trivial_log_concavity,
)
from slcheck.counterexample import counterexample_weights
from slcheck.family import make_family
from slcheck.linalg import nsd_threshold
from slcheck.poly import SparsePoly
from conftest import product_measure


def oracle_poly(rng: np.random.Generator, n: int, *, zero_prob: float, wide: bool) -> SubsetPoly:
    """Random nonnegative weights, some zero; wide ones span about 1e-40..1e40."""
    weights = {}
    for mask in range(1 << n):
        if rng.random() < zero_prob:
            continue
        w = Fraction(int(rng.integers(1, 10)), int(rng.integers(1, 8)))
        if wide:
            w *= Fraction(10) ** int(rng.integers(-40, 41))
        weights[mask] = w
    return SubsetPoly.from_weights(n, weights)


def oracle_cases(seed: int, count: int, max_dense_n: int):
    """Seeded inputs: dense up to max_dense_n variables, sparse beyond, plus fixed ones."""
    rng = np.random.default_rng(seed)
    yield counterexample_weights()
    yield counterexample_weights().normalize()
    for k in range(count):
        n = 1 + k % 8
        dense = n <= max_dense_n
        zero_prob = (0.0, 0.3, 0.6)[k % 3] if dense else 1.0 - 6.0 / (1 << n)
        yield oracle_poly(rng, n, zero_prob=zero_prob, wide=k % 4 == 1)


def rational_points(rng: np.random.Generator, n: int, count: int) -> list[tuple[Fraction, ...]]:
    """Positive dyadic rationals, so the float points the table sees are exact."""
    return [
        tuple(Fraction(int(rng.integers(1, 257)), 16) for _ in range(n)) for _ in range(count)
    ]


class TestDerivativeTable:
    def test_every_row_matches_exact_evaluation(self):
        rng = np.random.default_rng(71)
        checked = 0
        for p in oracle_cases(72, 48, max_dense_n=8):
            xs = rational_points(rng, p.n, 2)
            table = _superset_sums(_float_coeffs(p), np.array(xs, dtype=float))
            assert table.shape == (1 << p.n, len(xs))
            for b in range(1 << p.n):
                q = p.derivative_subset(b)
                for k, x in enumerate(xs):
                    want = q.eval_exact(x)
                    got = table[b, k]
                    # Every term is nonnegative, so the error is relative.
                    assert abs(Fraction(got) - want) <= Fraction(1, 10**13) * want, (p, b, x)
                    checked += 1
        assert checked > 5000

    def test_blocked_readers_agree_with_one_table(self):
        rng = np.random.default_rng(73)
        for n in (3, 8, 12):
            p = oracle_poly(rng, n, zero_prob=0.3, wide=True)
            count = 2 * block_points(n) + 5
            pts = np.exp(rng.uniform(np.log(0.01), np.log(100.0), size=(count, n)))
            table = _superset_sums(_float_coeffs(p), pts)
            np.testing.assert_array_equal(eval_many(p, pts), table[0])
            batch = log_hessian_many(p, pts)
            for k in (0, count // 2, count - 1):
                np.testing.assert_array_equal(batch[k], log_hessian(p, tuple(pts[k])))

    def test_rejects_wrong_shape(self, counterexample):
        # Both readers check the shape of the points before building a table.
        for reader in (eval_many, log_hessian_many):
            with pytest.raises(ValueError, match="point array"):
                reader(counterexample, np.ones((4, 2)))


def reference_m(p: SubsetPoly) -> list[list[dict[tuple[int, ...], Fraction]]]:
    """M_ij = d_i g d_j g - g d_ij g, one product of Fractions at a time, keyed
    by exponent tuples: apart from the package's monomial key and product loop."""
    n = p.n

    def terms(q: SubsetPoly) -> list[tuple[tuple[int, ...], Fraction]]:
        return [(tuple(s >> k & 1 for k in range(n)), c) for s, c in enumerate(q.coeffs) if c]

    def add(out: dict, f, h, sign: int) -> None:
        for e1, c1 in f:
            for e2, c2 in h:
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + sign * c1 * c2

    g, grads = terms(p), [terms(p.derivative(i + 1)) for i in range(n)]
    m = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            add(m[i][j], grads[i], grads[j], 1)
            if i != j:
                add(m[i][j], g, terms(p.derivative_subset(1 << i | 1 << j)), -1)
    return m


def reference_gaps(m: list[list[dict]]) -> list[dict[tuple[int, ...], Fraction]]:
    """M_ii - sum_{j != i} |M_ij| coefficient-wise, from reference_m, zeros dropped."""
    gaps = []
    for i in range(len(m)):
        gap = dict(m[i][i])
        for j in range(len(m)):
            if j != i:
                for e, c in m[i][j].items():
                    gap[e] = gap.get(e, 0) - abs(c)
        gaps.append({e: c for e, c in gap.items() if c})
    return gaps


def reference_certified(p: SubsetPoly, gaps: list[dict]) -> bool:
    """The reference decision; M_ii never has a negative coefficient."""
    return bool(p.nonzero_masks()) and all(
        all(c >= 0 for c in g.values()) and any(c > 0 for c in g.values()) for g in gaps
    )


class TestIntegerDominance:
    def test_gaps_and_decision_match_sparse_route(self):
        cases = list(oracle_cases(81, 420, max_dense_n=4))
        rng = np.random.default_rng(82)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            probs = [Fraction(int(rng.integers(1, 10)), 10) for _ in range(n)]
            cases.append(product_measure(probs))
        outcomes = {True: 0, False: 0}
        for p in cases:
            m = reference_m(p)
            assert m_matrix(p) == tuple(
                tuple(SparsePoly.make(p.n, entry) for entry in row) for row in m
            ), p
            want = reference_gaps(m)
            got = DominanceCertificate(p).row_gaps
            assert got == tuple(SparsePoly.make(p.n, gap) for gap in want), p
            certified = certify_log_concavity_dominance(p) is not None
            assert certified == reference_certified(p, want), p
            outcomes[certified] += 1
        assert len(cases) >= 500
        assert min(outcomes.values()) >= 100, outcomes

    def test_certificate_builds_matrix_on_read(self, raw_counterexample):
        # The certificate holds only the polynomial; its gaps are formed when read.
        cert = certify_log_concavity_dominance(raw_counterexample)
        assert cert == DominanceCertificate(raw_counterexample)
        assert "row_gaps" not in vars(cert)
        gaps = cert.row_gaps
        assert vars(cert)["row_gaps"] is gaps
        assert gaps == DominanceCertificate(raw_counterexample).row_gaps


def reference_slc(p: SubsetPoly, cfg: SampleConfig) -> dict:
    """Each derivative on its own: fresh sample points, the reference certificate."""
    out = {}
    for a in range(1 << p.n):
        sample_points.cache_clear()
        q = p.derivative_subset(a)
        trivial = trivial_log_concavity(q)
        if trivial is not None:
            out[a] = Holds(trivial)
        elif reference_certified(q, reference_gaps(reference_m(q))):
            out[a] = "dominance"
        else:
            out[a] = check_log_concavity_sampled(q, cfg, subset_mask=a)
    return out


class TestCheckSlc:
    def test_matches_per_derivative_loop(self):
        kinds = set()
        for k, p in enumerate(oracle_cases(91, 30, max_dense_n=4)):
            if p.n == 6:
                continue  # a 5^6-point grid per sampled derivative; n = 7, 8 have none
            cfg = SampleConfig(points=12, seed=k)
            report = check_slc(p, cfg)
            want = reference_slc(p, cfg)
            assert set(report.subsets) == set(want)
            for a, expected in want.items():
                got = report.subsets[a]
                if expected == "dominance":
                    assert isinstance(got, Holds), (p, a)
                    assert got.certificate == DominanceCertificate(p.derivative_subset(a))
                    kinds.add("dominance")
                    continue
                assert type(got) is type(expected), (p, a)
                kinds.add(type(got).__name__)
                if isinstance(got, Holds):
                    assert got == expected
                elif isinstance(got, Violated):
                    assert got.witness == expected.witness
                else:
                    assert got.stats == expected.stats
        assert kinds == {"Holds", "dominance", "Violated", "NoViolationFound"}


def witness_cases(seed: int, count: int):
    """Seeded inputs with n <= 5: random weights (zeros, wide ones), weights
    near 1e-400 on every set holding the last variable, and family cells.

    n = 5 costs about 0.15 s an input (its 5^5 grid), so it comes in 3 of 60.
    """
    rng = np.random.default_rng(seed)
    yield counterexample_weights()
    for k in range(count):
        if k % 4 == 3:
            b, c = (Fraction(int(rng.integers(0, 41)), 10) for _ in range(2))
            yield make_family(b, c)
            continue
        n = 5 if k % 60 in (0, 5, 10) else 1 + k // 4 % 4
        p = oracle_poly(rng, n, zero_prob=(0.0, 0.3, 0.6)[k % 3], wide=k % 4 == 1)
        if k % 4 == 2:
            tiny = Fraction(1, 10**400)
            last = 1 << (n - 1)
            p = SubsetPoly(n, tuple(c * tiny if m & last else c for m, c in enumerate(p.coeffs)))
        yield p


def exact_signs(q: SubsetPoly, point, vectors) -> list[int]:
    """Signs of v^T M(x) v, with M from m_matrix evaluated in rationals."""
    x = [Fraction(c) for c in point]
    m = [[e.eval_exact(x) for e in row] for row in m_matrix(q)]
    signs = []
    for v in vectors:
        u = [Fraction(c) for c in v]
        value = sum(u[i] * m[i][j] * u[j] for i in range(q.n) for j in range(q.n))
        signs.append((value > 0) - (value < 0))
    return signs


def crossing_vectors(q: SubsetPoly, point) -> list[tuple[float, ...]]:
    """Two unit vectors just either side of where v^T M(x) v changes sign.

    They mix the top and bottom eigenvectors of the float log-Hessian
    H = -M / g^2, so a sign test that is off by any factor flips one of them.
    """
    lam, vec = np.linalg.eigh(log_hessian(q, point))
    if not lam[-1] > 0.0 > lam[0]:
        return []
    theta = math.atan(math.sqrt(lam[-1] / -lam[0]))
    return [tuple(math.cos(t) * vec[:, -1] + math.sin(t) * vec[:, 0])
            for t in (theta * 0.999, theta * 1.001)]


class TestPointWitness:
    def test_witnesses_verify_and_m_form_matches_m_matrix(self):
        rng = np.random.default_rng(101)
        inputs = witnesses = crossings = 0
        signs = set()
        for k, p in enumerate(witness_cases(102, 300)):
            inputs += 1
            report = check_slc(p, SampleConfig(points=20, seed=k))
            cases = []
            for a, verdict in sorted(report.subsets.items()):
                if isinstance(verdict, Violated):
                    w = verdict.witness
                    q = p.derivative_subset(a)
                    assert w.subset_mask == a and m_form(q, w.point, w.vector) < 0, (p, a)
                    assert q.eval_exact([Fraction(c) for c in w.point]) > 0
                    witnesses += 1
                    if not cases:
                        cases.append((q, w.point, [w.vector] + crossing_vectors(q, w.point)))
            q = p.derivative_subset(int(rng.integers(0, 1 << p.n)))
            if q.nonzero_masks():
                x = tuple(float(c) for c in np.exp(rng.uniform(np.log(0.01), np.log(100.0), p.n)))
                e1 = (1.0,) + (0.0,) * (p.n - 1)
                vectors = [tuple(rng.standard_normal(p.n)), e1] + crossing_vectors(q, x)
                cases.append((q, x, vectors))
            for q, x, vectors in cases:
                got = [m_form(q, x, v) for v in vectors]
                assert got == exact_signs(q, x, vectors), (q, x, vectors)
                signs.update(got)
                crossings += len(vectors) > 2
        assert inputs >= 300 and witnesses >= 100 and crossings >= 100, (inputs, witnesses, crossings)
        assert signs == {-1, 0, 1}

    def test_m_form_rejects_what_proves_nothing(self, counterexample):
        with pytest.raises(ValueError, match="not positive"):
            m_form(SubsetPoly.from_weights(2, {}), (1.0, 1.0), (1.0, 0.0))
        for x in ((1.0, 0.0, 1.0), (1.0, float("nan"), 1.0), (1.0, float("inf"), 1.0), (1.0, 1.0)):
            with pytest.raises(ValueError):
                m_form(counterexample, x, (1.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            m_form(counterexample, (1.0, 1.0, 1.0), (1.0, 0.0))


def reference_scan(p: SubsetPoly, pts: np.ndarray, cfg: SampleConfig):
    """The sampler in one pass: every log-Hessian and eigenvalue at once, then
    the first flagged point whose float re-check and exact sign both hold.

    Returns the verdict and the index of its witness (None if there is none).
    """
    if pts.shape[0] == 0:
        return NoViolationFound(SampleStats(0, 1, cfg.tolerance, cfg.seed, -math.inf)), None
    hessians = log_hessian_many(p, pts)
    tops = np.linalg.eigvalsh(hessians)[:, -1]
    thresholds = nsd_threshold(hessians, cfg.tolerance)
    for k in np.flatnonzero(tops > thresholds):
        values, vectors = np.linalg.eigh(hessians[k])
        top, threshold = float(values[-1]), float(thresholds[k])
        point = tuple(float(c) for c in pts[k])
        vector = tuple(float(c) for c in vectors[:, -1])
        if top > threshold and m_form(p, point, vector) < 0:
            return Violated(PointWitness(0, point, top, threshold, vector)), int(k)
    stats = SampleStats(pts.shape[0], 1, cfg.tolerance, cfg.seed, float(tops.max()))
    return NoViolationFound(stats), None


# Either side of the edges of the sampler's chunks: 0, 64, 1088, 2112, ...
SCAN_COUNTS = (0, 1, 63, 64, 65, 1088, 1089)
WITNESS_AT = (0, 30, 63, 64, 1087, 1088, 1100)


def scaled(p: SubsetPoly, k: int) -> SubsetPoly:
    """p as is, or times 1e-30 or 1e-400, by k % 3."""
    return p.scale((1, Fraction(1, 10**30), Fraction(1, 10**400))[k % 3])


class TestChunkedScan:
    def test_matches_one_pass_on_sample_points(self):
        rng = np.random.default_rng(111)
        outcomes = set()
        for n in range(2, 8):
            grid = 5**n if n <= 6 else 0
            counts = [c for c in SCAN_COUNTS if c >= grid] or [grid + 3]
            for k, count in enumerate(counts):
                cfg = SampleConfig(points=count - grid, seed=k)
                pts = sample_points(n, cfg)
                assert pts.shape[0] == count
                # A random input, mostly violated, and a log-concave product measure.
                mixed = oracle_poly(rng, n, zero_prob=(0.0, 0.3)[k % 2], wide=k % 2 == 1)
                product = product_measure(
                    [Fraction(int(rng.integers(1, 10)), 10) for _ in range(n)]
                )
                for p in (scaled(mixed, k), scaled(product, k + 1)):
                    if len(p.nonzero_masks()) <= 1:
                        continue
                    want, _ = reference_scan(p, pts, cfg)
                    assert check_log_concavity_sampled(p, cfg) == want, (p, count)
                    outcomes.add((n, count, type(want).__name__))
        for name in ("NoViolationFound", "Violated"):
            assert {(7, 1, name), (7, 1089, name)} <= outcomes, outcomes
        assert (7, 0, "NoViolationFound") in outcomes

    def test_matches_one_pass_on_planted_witnesses(self, monkeypatch):
        # g = (1 + x1 x2) (1 + x3) ... (1 + xn) has a NSD log-Hessian exactly
        # where x1 x2 >= 1, so every point before the planted one is clean.
        rng = np.random.default_rng(112)

        def draw(count: int, n: int, lo: float, hi: float) -> np.ndarray:
            return np.exp(rng.uniform(np.log(lo), np.log(hi), size=(count, n)))

        for n in range(2, 8):
            weights = {mask: 1 for mask in range(1 << n) if mask & 3 in (0, 3)}
            for k, at in enumerate(WITNESS_AT):
                p = scaled(SubsetPoly.from_weights(n, weights), k + n)
                pts = np.vstack([
                    draw(at, n, 1.5, 10.0),
                    draw(1, n, 0.05, 0.7),
                    draw(int(rng.integers(0, 70)), n, 0.05, 10.0),
                ])
                cfg = SampleConfig(seed=k)
                want, index = reference_scan(p, pts, cfg)
                assert index == at, (n, at, index)
                monkeypatch.setattr(checkers, "sample_points", lambda n, cfg: pts)
                assert check_log_concavity_sampled(p, cfg) == want, (n, at)
