"""Lattice condition, sampled log-concavity, dominance and coefficient-matrix certificates,
the factor route, full check."""

from __future__ import annotations

import itertools
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from slcheck import (
    Holds,
    NoViolationFound,
    SampleConfig,
    SubsetPoly,
    Violated,
    check_log_concavity,
    check_nlc,
    check_slc,
)
from slcheck import checkers
from slcheck.calculus import down_closure, log_hessian_many, m_form, m_matrix, m_row_gaps
from slcheck.checkers import (
    LocalDiamonds,
    LogConcavityCertificate,
    SamplePoints,
    SubsetCertificates,
    certify_log_concavity_dominance,
    certify_log_concavity_coefficients,
    certify_log_concavity_factors,
    check_log_concavity_sampled,
    exit_code,
    factor_blocks,
    format_fraction_pair,
    grid_points,
    trivial_log_concavity,
)
from slcheck.poly import SparsePoly
from conftest import (
    brute_convex,
    brute_nlc_violations,
    permute,
    product_measure,
    random_permutation,
    random_subset_poly,
    sparse_eval_exact,
    sparse_from_cleared,
    sparse_poly,
)


def one_plus_xy() -> SubsetPoly:
    return SubsetPoly.from_weights(2, {0: 1, 0b11: 1})


def nlc_certificate(p: SubsetPoly) -> LocalDiamonds:
    """The certificate check_nlc proves a holding p with, counted on index sets.

    One diamond per support set S and pair {i, j} outside S whose sets
    S + i and S + j both have weight.
    """
    n = p.n
    diamonds = 0
    for m in p.nonzero_masks:
        s = {i for i in range(n) if m >> i & 1}
        ups = [i for i in range(n) if i not in s and p.coeffs[sum(1 << k for k in s | {i})] > 0]
        diamonds += math.comb(len(ups), 2)
    return LocalDiamonds(pairs_checked=diamonds)


def interval_with_holes(rng: np.random.Generator, n: int) -> tuple[list[int], set[int]]:
    """The masks of a random interval [U, V] with |V - U| >= 2, and one or two
    masks strictly inside it to leave out: a support that is not convex."""
    order = [int(i) for i in rng.permutation(n)]
    d = int(rng.integers(2, n + 1))
    free = sum(1 << i for i in order[:d])
    u = sum(1 << i for i in order[d:] if rng.random() < 0.5)
    interval = [m for m in range(1 << n) if m & u == u and not m & ~(u | free)]
    inner = [m for m in interval if m not in (u, u | free)]
    count = min(len(inner), int(rng.integers(1, 3)))
    return interval, {int(m) for m in rng.choice(inner, size=count, replace=False)}


class TestLatticeCondition:
    def test_counterexample_witness_frozen(self, counterexample):
        verdict = check_nlc(counterexample)
        assert isinstance(verdict, Violated)
        w = verdict.witness
        assert (w.s_mask, w.t_mask) == (0b001, 0b010)
        assert w.lhs == Fraction(9, 484)
        assert w.rhs == Fraction(12, 484)
        assert "9/484 < 12/484" in w.describe()
        assert "S = {1}, T = {2}" in w.describe()

    def test_counterexample_violation_count(self, counterexample):
        # Every unordered pair of distinct singletons violates; with S < T, that
        # is 3 pairs, and no larger pair does because p({1,2,3}) = 0.
        pairs = list(checkers._nlc_violating_pairs(counterexample))
        expected = brute_nlc_violations(counterexample)
        assert pairs == [(s, t) for s, t, _, _ in expected if s < t]
        assert len(pairs) == 3
        assert all(s.bit_count() == 1 and t.bit_count() == 1 for s, t in pairs)
        w = check_nlc(counterexample).witness
        assert pairs[0] == (w.s_mask, w.t_mask)

    def test_unnormalized_weights_same_witness(self, raw_counterexample, counterexample):
        a = check_nlc(raw_counterexample).witness
        b = check_nlc(counterexample).witness
        assert (a.s_mask, a.t_mask) == (b.s_mask, b.t_mask)
        assert a.lhs == Fraction(9)
        assert a.rhs == Fraction(12)

    def test_product_measure_holds(self):
        p = product_measure([Fraction(1, 3), Fraction(1, 2), Fraction(2, 7)])
        verdict = check_nlc(p)
        assert isinstance(verdict, Holds)
        # Three pairs {i, j}, each at S = {} and at S = {k}: six diamonds.
        assert verdict.certificate == LocalDiamonds(pairs_checked=6)
        assert exit_code(verdict) == 0

    def test_point_mass_holds(self):
        # No up-step from the one support set has weight: no diamond to compare.
        p = SubsetPoly.from_weights(4, {0b1010: 1})
        assert check_nlc(p) == Holds(LocalDiamonds(pairs_checked=0))

    def test_zero_and_constant_hold(self):
        no_diamonds = Holds(LocalDiamonds(pairs_checked=0))
        assert check_nlc(SubsetPoly.from_weights(2, {})) == no_diamonds
        assert check_nlc(SubsetPoly.from_weights(2, {0: 3})) == no_diamonds
        positive = SubsetPoly.from_weights(1, {0: 1, 1: 2})
        assert check_nlc(positive) == Holds(LocalDiamonds(pairs_checked=0))

    def test_rejects_negative_weights(self):
        # A signed polynomial cannot be built, so no checker is handed one.
        with pytest.raises(ValueError, match="weights must be nonnegative"):
            SubsetPoly.from_weights(2, {0: Fraction(1), 1: Fraction(-1)})

    def test_matches_brute_force_oracle(self):
        def agrees(p: SubsetPoly) -> list:
            expected = brute_nlc_violations(p)
            pairs = list(checkers._nlc_violating_pairs(p))
            assert pairs == [(s, t) for s, t, _, _ in expected if s < t]
            # The scan's pairs and their mirrors are every violating ordered pair.
            mirrored = {*pairs, *((t, s) for s, t in pairs)}
            assert mirrored == {(s, t) for s, t, _, _ in expected}
            verdict = check_nlc(p)
            if expected:
                assert isinstance(verdict, Violated)
                w = verdict.witness
                assert (w.s_mask, w.t_mask, w.lhs, w.rhs) == expected[0]
            else:
                assert verdict == Holds(nlc_certificate(p))
            return expected

        rng = np.random.default_rng(41)
        for _ in range(200):
            agrees(random_subset_poly(rng, int(rng.integers(1, 5))))
        for n in (5, 6, 7):
            agrees(random_subset_poly(rng, n, zero_prob=0.6))
            qs = [Fraction(int(rng.integers(1, 10)), 10) for _ in range(n)]
            product = product_measure(qs)
            assert not agrees(product)
            truncated = {m: c for m, c in enumerate(product.coeffs) if m.bit_count() <= n // 2}
            assert not agrees(SubsetPoly.from_weights(n, truncated))
        # Zeros that pass every diamond: support {}, {1,2,3} fails at S = {1}, T = {2,3}.
        assert agrees(SubsetPoly.from_weights(3, {0: 1, 0b111: 1}))[0][:2] == (0b001, 0b110)
        assert agrees(SubsetPoly.from_weights(7, {0: 1, 0b111: 2, 0b1111111: 3}))
        # Denominators above 2**64, holding and violated.
        big = 2**64
        qs = [Fraction(int(rng.integers(1, 2**62)), big + k) for k in range(6)]
        assert not agrees(product_measure(qs))
        for n in (4, 6):
            weights = {m: Fraction(int(rng.integers(0, 5)), big + m) for m in range(1 << n)}
            assert agrees(SubsetPoly.from_weights(n, weights))
        # A late witness: a product measure on the sets holding {6, 7}, with one
        # weight halved, fails only in the last S rows.
        n, top = 7, 0b1100000
        qs = [Fraction(int(rng.integers(1, 10)), 10) for _ in range(n)]
        product = product_measure(qs)
        weights = {m: c for m, c in enumerate(product.coeffs) if m & top == top}
        weights[top | 0b10110] /= 2
        late = agrees(SubsetPoly.from_weights(n, weights))
        assert late and late[0][0] > top

    def test_witness_must_violate(self, counterexample, monkeypatch):
        # A pair the scan flags but whose rational products do not violate
        # ({1} and {1,2} are comparable) is never returned as a witness.
        monkeypatch.setattr(checkers, "_nlc_violating_pairs", lambda p: iter([(0b001, 0b011)]))
        with pytest.raises(AssertionError):
            check_nlc(counterexample)

    def test_route_flag_needs_a_scan_witness(self, counterexample, monkeypatch):
        # A route that fails where the full scan finds no pair is a bug, not a Holds.
        monkeypatch.setattr(checkers, "_nlc_violating_pairs", lambda p: iter([]))
        with pytest.raises(AssertionError, match="full scan"):
            check_nlc(counterexample)

    def test_diamonds_need_a_convex_support(self):
        # On the support {}, {1,2,3} every diamond holds (each has a zero
        # product on both sides), yet S = {1}, T = {2,3} violates: {1} lies
        # between two support sets without weight, and the route refutes at
        # that zero up-step from {}, inside the down-closure of the support.
        p = SubsetPoly.from_weights(3, {0: 1, 0b111: 1})
        assert checkers._local_diamonds(p) is None
        w = check_nlc(p).witness
        assert (w.s_mask, w.t_mask, w.lhs, w.rhs) == (0b001, 0b110, 0, 1)

    def test_routes_match_brute_force_oracle(self):
        # The route decides exactly what the oracle over all 4**n ordered
        # pairs decides, on positive inputs and on inputs with zeros, convex
        # supports or not; the witness is the full scan's first pair and a
        # certificate counts exactly the comparisons made.
        rng = np.random.default_rng(44)

        def prob() -> Fraction:
            return Fraction(int(rng.integers(1, 10)), 10)

        def product(n: int) -> dict:
            return dict(enumerate(product_measure([prob() for _ in range(n)]).coeffs))

        def truncated(n: int) -> dict:
            k = int(rng.integers(1, n))
            return {m: c for m, c in product(n).items() if m.bit_count() <= k}

        def by_field(n: int, support) -> dict:
            lam = [int(v) for v in rng.integers(1, 5, size=n)]
            return {m: math.prod(lam[i] for i in range(n) if m >> i & 1) for m in support}

        def random_weights(n: int, zero_prob: float) -> dict:
            return dict(enumerate(random_subset_poly(rng, n, zero_prob=zero_prob).coeffs))

        def tree_masks(n: int) -> list[int]:
            # Spanning trees of a cycle on v vertices plus chords (i, i + 2).
            v = max(3, (n + 3) // 2)
            edges = [(i, (i + 1) % v) for i in range(v)]
            edges += [(i, (i + 2) % v) for i in range(n - v)]
            trees = []
            for tree in itertools.combinations(range(n), v - 1):
                component = list(range(v))
                for e in tree:
                    a, b = (component[x] for x in edges[e])
                    if a == b:
                        break
                    component = [a if c == b else c for c in component]
                else:
                    trees.append(sum(1 << e for e in tree))
            return trees

        def holes(n: int) -> dict:
            interval, left_out = interval_with_holes(rng, n)
            weights = product(n)
            return {m: weights[m] for m in interval if m not in left_out}

        builders = {
            "product": product,
            "pairwise": lambda n: {m: c / 2 ** math.comb(m.bit_count(), 2)
                                   for m, c in product(n).items()},
            "positive": lambda n: random_weights(n, 0.0),
            "perturbed": lambda n: {**product(n), int(rng.integers(1 << n)): prob()},
            "truncated": truncated,
            "rank": lambda n: by_field(n, [m for m in range(1 << n)
                                           if m.bit_count() == n // 2]),
            "matroid": lambda n: by_field(n, tree_masks(n)),
            "point": lambda n: {int(rng.integers(1 << n)): prob()},
            "zeros": lambda n: random_weights(n, rng.uniform(0.3, 0.6)),
            "holes": holes,
        }
        seen = set()
        for n in range(3, 8):
            for name, build in builders.items():
                for copy in range(2 if n < 7 else 1):
                    p = SubsetPoly.from_weights(n, build(n))
                    if copy == 0:
                        p = p.scale(Fraction(1, 10**400))
                    expected = brute_nlc_violations(p)
                    assert (checkers._local_diamonds(p) is None) == bool(expected), (name, p)
                    verdict = check_nlc(p)
                    if expected:
                        w = verdict.witness
                        assert (w.s_mask, w.t_mask, w.lhs, w.rhs) == expected[0], (name, p)
                    else:
                        assert verdict == Holds(nlc_certificate(p)), (name, p)
                    seen.add((type(verdict.certificate).__name__
                              if isinstance(verdict, Holds) else "Violated", name))
        # Log-submodular by construction, with or without zeros: the one route
        # proves each.  A hole in an interval breaks convexity, so it violates.
        def routes(*names: str) -> set:
            return {route for route, name in seen if name in names}

        holding = ("product", "pairwise", "truncated", "rank", "matroid", "point")
        assert routes(*holding) == {"LocalDiamonds"}
        assert routes("holes") == {"Violated"}
        assert ("Violated", "perturbed") in seen and ("Violated", "zeros") in seen

    def test_local_convexity_lemma(self):
        # A family is convex (every set between two members is one) exactly when
        # no up-step out of it from a member lies in its down-closure: on a chain
        # from U up to W, the first set outside the family is such a step.
        rng = np.random.default_rng(45)
        outcomes = []
        for trial in range(2400):
            n = int(rng.integers(1, 7))
            if trial % 3 == 0 and n >= 2:
                interval, left_out = interval_with_holes(rng, n)
                masks = [m for m in interval if m not in left_out]
            else:
                masks = np.flatnonzero(rng.random(1 << n) < rng.uniform(0.05, 0.9)).tolist()
            family = set(masks)
            inside = down_closure(n, masks)
            local = not any(inside[m | 1 << i] for m in masks for i in range(n)
                            if m | 1 << i not in family)
            assert local == brute_convex(n, masks), (n, masks)
            outcomes.append(local)
        assert 500 <= sum(outcomes) <= len(outcomes) - 500, sum(outcomes)

    def test_scale_invariance(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            p = random_subset_poly(rng, 3)
            lam = Fraction(int(rng.integers(1, 60)), int(rng.integers(1, 11)))
            a = check_nlc(p)
            b = check_nlc(p.scale(lam))
            assert type(a) is type(b)
            if isinstance(a, Violated):
                assert (a.witness.s_mask, a.witness.t_mask) == (
                    b.witness.s_mask,
                    b.witness.t_mask,
                )
                assert b.witness.lhs == a.witness.lhs * lam * lam

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            p = random_subset_poly(rng, 3)
            q = permute(p, random_permutation(rng, 3))
            assert isinstance(check_nlc(p), Violated) == isinstance(check_nlc(q), Violated)
            pairs = checkers._nlc_violating_pairs
            assert len(list(pairs(p))) == len(list(pairs(q)))


class TestSampling:
    def test_grid_shape(self):
        assert grid_points(1).shape == (5, 1)
        assert grid_points(3).shape == (125, 3)
        assert grid_points(7).shape == (0, 7)
        for n in (1, 3, 7):
            assert grid_points(n) is grid_points(n)  # built once per n
            assert not grid_points(n).flags.writeable

    def test_sample_points_deterministic(self):
        cfg = SampleConfig(points=64, seed=9)
        pts = SamplePoints(2, cfg)
        assert len(pts) == 25 + 64
        a = pts[:]
        assert not a.flags.writeable and a.shape == (25 + 64, 2)
        b = SamplePoints(2, cfg)[:]
        np.testing.assert_array_equal(a, b)
        lo, hi = cfg.box
        assert np.all(a > 0)
        assert np.all(a[25:] >= lo) and np.all(a[25:] <= hi)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SampleConfig(box=(0.0, 1.0))
        with pytest.raises(ValueError):
            SampleConfig(box=(2.0, 1.0))
        with pytest.raises(ValueError):
            SampleConfig(points=-1)
        with pytest.raises(ValueError):
            SampleConfig(tolerance=-1e-9)
        for box in ((0.01, math.inf), (math.nan, 1.0), (0.01, math.nan), (math.inf, math.inf)):
            with pytest.raises(ValueError, match="box"):
                SampleConfig(box=box)
        for tolerance in (math.nan, math.inf):
            with pytest.raises(ValueError, match="tolerance"):
                SampleConfig(tolerance=tolerance)
        for seed in (None, -1, (0, -1, 2), 1.5, "7", [1, 2]):
            with pytest.raises(ValueError, match="seed"):
                SampleConfig(seed=seed)
        for seed in (0, 2**70, (0, 1, 2)):
            SampleConfig(seed=seed)
        for points in (2.5, "7", None):
            with pytest.raises(ValueError, match="points"):
                SampleConfig(points=points)
        cfg = SampleConfig(points=np.int64(30), box=[0.5, np.float64(2.0)])
        assert cfg == SampleConfig(points=30, box=(0.5, 2.0))
        assert type(cfg.points) is int and type(cfg.box) is tuple and type(cfg.box[1]) is float
        # A list box is stored as a tuple of floats, so it samples like one.
        p = one_plus_xy()
        tuple_cfg = SampleConfig(points=30, box=(0.5, 2.0))
        assert check_log_concavity_sampled(p, cfg) == check_log_concavity_sampled(p, tuple_cfg)
        assert check_slc(p, cfg) == check_slc(p, tuple_cfg)

    def test_overflowing_threshold_warns_nowhere(self):
        # At tolerance 1e308 the threshold overflows wherever max |H| > 0.8;
        # those points clear the screen, and the rest set the margin as before.
        p = SubsetPoly.from_weights(2, {0: 1, 1: 1, 2: 2, 3: Fraction(7, 2)})
        verdict = check_log_concavity_sampled(p, SampleConfig(tolerance=1e308))
        assert isinstance(verdict, NoViolationFound)
        assert verdict.stats.points_tested == 2025
        assert verdict.stats.min_margin == pytest.approx(5.000609466293158e307, rel=1e-12)

    def test_one_plus_xy_violated(self):
        verdict = check_log_concavity_sampled(one_plus_xy(), SampleConfig(points=100))
        assert isinstance(verdict, Violated)
        w = verdict.witness
        # First failing point in scan order is the first grid point.
        assert w.point == (0.1, 0.1)
        assert w.max_eigenvalue > w.threshold
        assert m_form(one_plus_xy(), w.point, w.vector) < 0
        assert "max log-Hessian eigenvalue" in w.describe()
        assert exit_code(verdict) == 1

    def test_witness_vector_is_binding(self):
        verdict = check_log_concavity_sampled(one_plus_xy(), SampleConfig(points=10))
        w = verdict.witness
        assert m_form(one_plus_xy(), w.point, w.vector) < 0
        # Along e_1, v^T M v = (d_1 g)^2 >= 0, so the witness's point alone proves nothing.
        assert m_form(one_plus_xy(), w.point, (1.0, 0.0)) > 0

    def test_float_recheck_refuses_a_top_eigenvalue_under_the_threshold(self, monkeypatch):
        # eigvalsh flags points of 1 + xy; if eigh then puts the top eigenvalue
        # at 0.0, under the threshold, no witness may claim it exceeds it,
        # even though m_form still proves v^T M(x) v < 0 along its vector.
        eigh = np.linalg.eigh

        def flat_top(a):
            values, vectors = eigh(a)
            values = values.copy()
            values[..., -1] = 0.0
            return values, vectors

        monkeypatch.setattr(np.linalg, "eigh", flat_top)
        verdict = check_log_concavity_sampled(SubsetPoly.from_weights(2, {0: 1, 3: 1}))
        assert isinstance(verdict, NoViolationFound)

    def test_empty_scan_evaluates_nothing(self, monkeypatch):
        # Past GRID_MAX_VARS there is no grid, so points=0 leaves no point.
        def refuse(p, points):
            raise AssertionError("an empty scan evaluated a log-Hessian")

        monkeypatch.setattr(checkers, "log_hessian_many", refuse)
        p = SubsetPoly.from_weights(7, {0: 1, 0b11: 1})
        verdict = check_log_concavity_sampled(p, SampleConfig(points=0))
        assert isinstance(verdict, NoViolationFound)
        assert verdict.stats.points_tested == 0
        assert verdict.stats.min_margin == math.inf

    def test_violation_in_the_probe_wins_over_a_later_overflow(self):
        # 1 + x1 x2 fails at the first grid point, (0.1, 0.1, 0.1); the draws
        # from point 125 on take g^2 out of the floats.  The scan ends within
        # its first SAMPLE_PROBE points, before any chunk reaches them.
        p = SubsetPoly.from_weights(3, {0: 1, 0b011: 1})
        cfg = SampleConfig(points=10, box=(1e160, 1e200))
        with pytest.raises(ValueError, match="overflow"):
            log_hessian_many(p, SamplePoints(3, cfg)[:])
        verdict = check_log_concavity_sampled(p, cfg)
        assert isinstance(verdict, Violated)
        assert verdict.witness.point == (0.1, 0.1, 0.1)
        assert m_form(p, verdict.witness.point, verdict.witness.vector) < 0

    def test_never_holds_from_samples(self, counterexample):
        # Log-concave but not structurally trivial: sampling must stay agnostic.
        verdict = check_log_concavity_sampled(counterexample, SampleConfig(points=500))
        assert isinstance(verdict, NoViolationFound)
        assert verdict.stats.points_tested == 125 + 500
        assert verdict.stats.derivatives_tested == 1
        assert verdict.stats.min_margin > 0.0

    def test_trivial_short_circuits(self):
        assert check_log_concavity_sampled(SubsetPoly.from_weights(2, {})) == Holds(
            LogConcavityCertificate("zero")
        )
        assert check_log_concavity_sampled(SubsetPoly.from_weights(2, {0: 7})) == Holds(
            LogConcavityCertificate("constant")
        )
        assert check_log_concavity_sampled(
            SubsetPoly.from_weights(2, {0b11: 5})
        ) == Holds(LogConcavityCertificate("monomial"))

    def test_affine_is_sampled_not_asserted(self):
        p = SubsetPoly.from_weights(2, {0: 1, 1: 2, 2: 3})
        verdict = check_log_concavity_sampled(p, SampleConfig(points=200))
        assert isinstance(verdict, NoViolationFound)

    def test_zero_points_grid_only(self):
        verdict = check_log_concavity_sampled(one_plus_xy(), SampleConfig(points=0))
        assert isinstance(verdict, Violated)

    def test_box_excluding_violations_reports_no_violation(self):
        # For 1 + xy the log-Hessian is ND wherever xy > 1, so a box deep in
        # that region plus no grid (n pushed over the grid cap) stays clean.
        p = SubsetPoly.from_weights(
            7, {0: 1, 0b11: 1}
        )  # same structure, 5 idle variables
        verdict = check_log_concavity_sampled(p, SampleConfig(points=50, box=(10.0, 100.0)))
        assert isinstance(verdict, NoViolationFound)
        assert verdict.stats.points_tested == 50


class TestNoSharedState:
    def test_concurrent_checks_match_single_threaded(self):
        # Four threads check log-concave products at n = 7 under each
        # configuration at once, switching as often as the interpreter lets
        # them.  Points shared between the calls were drawn twice or read
        # before they were drawn; each call's own points give every thread
        # the single-threaded result.  Only subset 0 of `two_live` samples.
        p = product_measure([Fraction(k, 10) for k in range(2, 9)])
        two_live = product_measure([Fraction(2, 10), Fraction(3, 10)] + [0] * 5)
        cfgs = [SampleConfig(points=20000, seed=seed) for seed in range(12)]

        def both(cfg):
            return check_log_concavity_sampled(p, cfg), check_slc(two_live, cfg)

        want = [both(cfg) for cfg in cfgs]
        barrier = threading.Barrier(4)

        def run():
            got = []
            for cfg in cfgs:
                barrier.wait(timeout=60)
                got.append(both(cfg))
            return got

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                runs = [pool.submit(run) for _ in range(4)]
                results = [run.result(timeout=300) for run in runs]
        finally:
            sys.setswitchinterval(interval)
        for got in results:
            assert got == want

    def test_check_slc_builds_one_set_of_points_per_call(self, built_points, counterexample):
        p = product_measure([Fraction(k, 10) for k in range(2, 6)])
        cfg = SampleConfig(points=100)
        for calls in (1, 2):
            report = check_slc(p, cfg)
            sampled = [v for v in report.subsets.values() if isinstance(v, NoViolationFound)]
            assert len(sampled) > 1 and len(built_points) == calls
        assert isinstance(check_slc(counterexample, cfg).aggregate, Holds)  # all certified
        assert len(built_points) == 3 and built_points[-1].drawn == 125  # nothing read


class TestTrivialClasses:
    def test_kinds(self, counterexample):
        assert trivial_log_concavity(SubsetPoly.from_weights(2, {})).kind == "zero"
        assert trivial_log_concavity(SubsetPoly.from_weights(2, {0: 4})).kind == "constant"
        assert trivial_log_concavity(SubsetPoly.from_weights(3, {0b101: 2})).kind == "monomial"
        affine = SubsetPoly.from_weights(3, {0: 1, 1: 2, 2: 1, 4: 3})
        assert trivial_log_concavity(affine).kind == "affine"
        assert trivial_log_concavity(counterexample) is None
        assert trivial_log_concavity(one_plus_xy()) is None


def row_gaps(p: SubsetPoly) -> list[SparsePoly]:
    """The dominance gaps of M, row by row, as exact polynomials."""
    return [sparse_from_cleared(p, gap) for gap in m_row_gaps(p)]


class TestDominanceCertificate:
    def test_counterexample_certified(self, counterexample):
        cert = certify_log_concavity_dominance(counterexample)
        assert cert == LogConcavityCertificate("dominance")
        want_gap = sparse_poly(
            3,
            {
                (0, 0, 0): Fraction(3, 484),
                (0, 1, 0): Fraction(9, 484),
                (0, 0, 1): Fraction(9, 484),
                (0, 1, 1): Fraction(18, 484),
            },
        )
        assert row_gaps(counterexample)[0] == want_gap

    def test_raw_weights_gap_scales_by_484(self, raw_counterexample):
        assert certify_log_concavity_dominance(raw_counterexample) is not None
        want_gap = sparse_poly(3, {(0, 0, 0): 3, (0, 1, 0): 9, (0, 0, 1): 9, (0, 1, 1): 18})
        assert row_gaps(raw_counterexample)[0] == want_gap

    def test_gap_symmetry(self, counterexample):
        # The distribution is symmetric under any variable relabeling, so all
        # three row gaps agree up to that relabeling; spot check row 2.
        assert certify_log_concavity_dominance(counterexample) is not None
        gaps = row_gaps(counterexample)
        g0 = sparse_eval_exact(gaps[0], (0, 2, 3))
        g1 = sparse_eval_exact(gaps[1], (2, 0, 3))
        assert g0 == g1

    def test_product_measure_certified(self):
        # Product form makes every off-diagonal M entry vanish identically.
        p = product_measure([Fraction(1, 2), Fraction(1, 3)])
        cert = certify_log_concavity_dominance(p)
        assert cert is not None
        m = m_matrix(p)
        assert all(m[i][j].terms == {} for i in range(2) for j in range(2) if i != j)

    def test_pure_monomial_certified(self):
        p = SubsetPoly.from_weights(2, {0b11: 1})  # g = xy
        assert certify_log_concavity_dominance(p) is not None
        assert row_gaps(p) == [sparse_poly(2, {(0, 2): 1}), sparse_poly(2, {(2, 0): 1})]

    def test_one_plus_xy_not_certified(self):
        # D_1 = y^2 - 1 has a negative coefficient, so the sufficient
        # condition fails (and indeed the polynomial is not log-concave).
        assert certify_log_concavity_dominance(one_plus_xy()) is None

    def test_zero_not_certified(self):
        assert certify_log_concavity_dominance(SubsetPoly.from_weights(2, {})) is None

    def test_certificate_implies_no_sampled_violation(self):
        rng = np.random.default_rng(44)
        confirmed = 0
        for attempt in range(4000):
            if confirmed >= 25:
                break
            n = int(rng.integers(1, 4))
            p = random_subset_poly(rng, n)
            if certify_log_concavity_dominance(p) is None:
                continue
            verdict = check_log_concavity_sampled(p, SampleConfig(points=200, seed=attempt))
            assert not isinstance(verdict, Violated)
            confirmed += 1
        assert confirmed >= 10


class TestCoefficientCertificate:
    def test_two_variables_iff_ad_at_most_2bc(self):
        # For a + bx + cy + dxy, M_12 = bc - ad is constant: M(0) is
        # [[b^2, bc - ad], [bc - ad, c^2]], PSD iff ad <= 2bc, and every other
        # coefficient matrix is diagonal and nonnegative.
        rng = np.random.default_rng(45)
        outcomes = {True: 0, False: 0}
        for _ in range(400):
            a, b, c, d = (int(v) * int(rng.random() > 0.2) for v in rng.integers(1, 10, size=4))
            p = SubsetPoly.from_weights(2, {0: a, 1: b, 2: c, 3: d})
            if not p.nonzero_masks:
                continue
            certified = certify_log_concavity_coefficients(p) is not None
            assert certified == (a * d <= 2 * b * c), (a, b, c, d)
            outcomes[certified] += 1
        assert min(outcomes.values()) >= 100, outcomes

    def test_certified_inputs_are_not_refuted(self):
        # Certified inputs, dominance-certified or not, show no sampled
        # violation, and v^T M(x) v >= 0 exactly at dyadic points and vectors.
        rng = np.random.default_rng(46)
        certified = beyond_dominance = 0
        for attempt in range(600):
            n = int(rng.integers(2, 4))
            p = random_subset_poly(rng, n, zero_prob=(0.0, 0.3)[attempt % 2])
            if certify_log_concavity_coefficients(p) is None:
                continue
            certified += 1
            beyond_dominance += certify_log_concavity_dominance(p) is None
            verdict = check_log_concavity_sampled(p, SampleConfig(points=50, seed=attempt))
            assert not isinstance(verdict, Violated), p
            for _ in range(20):
                point = [int(v) / 16 for v in rng.integers(1, 257, size=n)]
                vector = [int(v) / 8 for v in rng.integers(-8, 9, size=n)]
                assert m_form(p, point, vector) >= 0, (p, point, vector)
        assert certified >= 100 and beyond_dominance >= 30, (certified, beyond_dominance)

    def test_counterexample_and_one_plus_xy(self, counterexample):
        assert certify_log_concavity_coefficients(counterexample) == LogConcavityCertificate(
            "coefficient"
        )
        # M(0) = [[0, -1], [-1, 0]] is not PSD: the polynomial is not log-concave.
        assert certify_log_concavity_coefficients(one_plus_xy()) is None

    def test_zero_rows_and_the_zero_polynomial(self):
        # x_3 is absent: its row and column vanish in every M_a, and the rest decides.
        p = SubsetPoly.from_weights(3, {0: 1, 1: 1, 2: 2, 3: 3})
        assert certify_log_concavity_coefficients(p) is not None
        assert certify_log_concavity_dominance(p) is None
        # The zero polynomial has no logarithm to be concave.
        assert certify_log_concavity_coefficients(SubsetPoly.from_weights(3, {})) is None


def random_block_product(rng: np.random.Generator, n: int) -> SubsetPoly:
    """A product of random polynomials on a random partition of the n variables.

    Some weights are zero, about half the inputs are scaled by 10**-400,
    and about 30% have one coefficient changed afterwards.
    """
    labels = [int(rng.integers(0, n)) for _ in range(n)]
    blocks = [b for b in (sum(1 << i for i in range(n) if labels[i] == k) for k in range(n)) if b]
    weights = {0: Fraction(1)}
    for block in blocks:
        bits = [1 << i for i in range(n) if block >> i & 1]
        f = random_subset_poly(rng, len(bits), zero_prob=float(rng.choice([0.0, 0.3])))
        spread = [sum(b for k, b in enumerate(bits) if t >> k & 1) for t in range(1 << len(bits))]
        weights = {m | spread[t]: w * c for m, w in weights.items() for t, c in enumerate(f.coeffs)}
    if rng.random() < 0.3:
        weights[int(rng.integers(0, 1 << n))] += Fraction(int(rng.integers(1, 5)))
    p = SubsetPoly.from_weights(n, weights)
    if rng.random() < 0.5:
        p = p.scale(Fraction(1, 10**400))
    return p


def one_block_triple() -> SubsetPoly:
    """1 + x + y + z + xy + xz + yz + 2xyz: every pair factors, the triple does not."""
    return SubsetPoly.from_weights(3, {m: 2 if m == 0b111 else 1 for m in range(8)})


class TestFactorRoute:
    def test_splits_are_exact(self):
        # Every split returned is checked against p(S) p(empty)^(k-1) = prod_b p(S & I_b)
        # in rationals, for every S; a certificate only where every factor is affine.
        rng = np.random.default_rng(61)
        splits = certified = 0
        for _ in range(4000):
            n = int(rng.integers(1, 8))
            p = random_block_product(rng, n)
            blocks = factor_blocks(p)
            cert = certify_log_concavity_factors(p)
            if blocks is None:
                assert cert is None, p
                continue
            splits += 1
            assert blocks and sum(blocks) == (1 << n) - 1
            assert all(a & b == 0 for a, b in itertools.combinations(blocks, 2))
            e = p.coeffs
            for s in range(1 << n):
                assert e[s] * e[0] ** (len(blocks) - 1) == math.prod(e[s & b] for b in blocks), p
            affine = all(e[t] == 0 for b in blocks for t in range(1 << n)
                         if t & b == t and bin(t).count("1") >= 2)
            assert (cert == LogConcavityCertificate("factor")) == affine, p
            certified += affine
        assert splits >= 1000 and certified >= 300, (splits, certified)

    def test_refusals(self):
        # p(empty) = 0, and a triple whose pairs all factor.
        no_empty = SubsetPoly.from_weights(2, {1: 1, 2: 1, 3: 1})
        for p in (no_empty, one_block_triple()):
            assert factor_blocks(p) is None
            assert certify_log_concavity_factors(p) is None
            assert isinstance(check_log_concavity(p, SampleConfig(points=50)), NoViolationFound)

    def test_one_affine_block_is_certified(self, monkeypatch):
        # 1 + 2x and 1 + 2x + 3y are one affine block each; 1 + 2x in two
        # variables is two.  None of them reaches the sampler.
        monkeypatch.setattr(checkers, "check_log_concavity_sampled", pytest.fail)
        for n, weights, blocks in ((1, {0: 1, 1: 2}, (1,)), (2, {0: 1, 1: 2, 2: 3}, (3,)),
                                   (2, {0: 1, 1: 2}, (1, 2))):
            p = SubsetPoly.from_weights(n, weights)
            assert factor_blocks(p) == blocks
            assert check_log_concavity(p) == Holds(LogConcavityCertificate("factor"))
        # 1 + x + y + 2xy is one block too: it is refused as not affine, not
        # as unsplit.
        p = SubsetPoly.from_weights(2, {0: 1, 1: 1, 2: 1, 3: 2})
        assert factor_blocks(p) == (3,) and certify_log_concavity_factors(p) is None

    def test_one_changed_weight_is_refused(self):
        # Doubling the full set's weight breaks only the identity at S = {1,2,3}.
        p = product_measure([Fraction(1, 3), Fraction(1, 2), Fraction(2, 7)])
        weights = dict(enumerate(p.coeffs))
        assert factor_blocks(SubsetPoly.from_weights(3, weights)) == (1, 2, 4)
        weights[0b111] *= 2
        assert factor_blocks(SubsetPoly.from_weights(3, weights)) is None

    def test_non_affine_block_is_not_certified(self):
        # (1 + xy)(1 + z) splits into {x, y} and {z}, but 1 + xy is not log-concave.
        p = SubsetPoly.from_weights(3, {0: 1, 0b011: 1, 0b100: 1, 0b111: 1})
        assert factor_blocks(p) == (0b011, 0b100)
        assert certify_log_concavity_factors(p) is None
        assert isinstance(check_log_concavity(p, SampleConfig(points=50)), Violated)

    def test_scale_invariance(self):
        rng = np.random.default_rng(62)
        for _ in range(300):
            p = random_block_product(rng, int(rng.integers(2, 6)))
            want = factor_blocks(p), certify_log_concavity_factors(p)
            for q in (p.normalize(), p.scale(int(rng.integers(2, 1000)))):
                assert (factor_blocks(q), certify_log_concavity_factors(q)) == want

    def test_trivial_classes_keep_their_kinds(self):
        # A constant or monomial would split too; its own kind comes first.
        for weights, kind in (({}, "zero"), ({0: 3}, "constant"), ({0b11: 5}, "monomial")):
            verdict = check_log_concavity(SubsetPoly.from_weights(2, weights))
            assert verdict == Holds(LogConcavityCertificate(kind))
        assert factor_blocks(SubsetPoly.from_weights(2, {0: 3})) == (1, 2)

    def test_product_measure_is_not_sampled(self, monkeypatch):
        p = product_measure([Fraction(k, 10) for k in range(1, 10)])
        monkeypatch.setattr(checkers, "check_log_concavity_sampled", pytest.fail)
        assert check_log_concavity(p) == Holds(LogConcavityCertificate("factor"))


class TestDiamondPreCheck:
    def test_sound_on_random_inputs(self):
        # Wherever a factor-2 diamond at the origin fails, neither certificate
        # holds, and v^T M(x) v < 0 near 0 for an integer v on the failing pair.
        rng = np.random.default_rng(47)
        fired = {"bc > 0": 0, "bc = 0": 0}
        for attempt in range(150):
            n = 2 + attempt % 5
            p = random_subset_poly(rng, n, zero_prob=(0.0, 0.3, 0.6)[attempt % 3])
            if attempt % 2:
                p = p.scale(Fraction(1, 10**400))
            for a in range(1 << n):
                q = p.derivative_subset(a)
                e = q.coeffs
                pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                         if e[0] * e[1 << i | 1 << j] > 2 * e[1 << i] * e[1 << j]]
                assert checkers.failing_diamond(q) == (pairs[0] if pairs else None), q
                if not pairs or trivial_log_concavity(q) is not None:
                    continue
                assert certify_log_concavity_dominance(q) is None, q
                assert certify_log_concavity_coefficients(q) is None, q
                i, j = pairs[0]
                w = q.cleared[0]
                b, c = w[1 << i], w[1 << j]
                # At 0 the {i, j} block is [[b^2, bc - ad], [bc - ad, c^2]], with ad >= 1.
                ends = (c, b) if b * c else (c * c, 1) if c else (1, b * b) if b else (1, 1)
                v = [0.0] * n
                v[i], v[j] = map(float, ends)
                assert any(m_form(q, [2.0**-k] * n, v) < 0 for k in range(65)), (q, v)
                fired["bc > 0" if b * c else "bc = 0"] += 1
        assert min(fired.values()) >= 50, fired

    def test_lattice_gap_in_one_diamond(self, counterexample):
        # The counterexample's diamond at the empty set has ad = 12 > bc = 9
        # but ad <= 2bc = 18; 1 + xy fails it outright.
        assert checkers.failing_diamond(counterexample) is None
        assert checkers.failing_diamond(one_plus_xy()) == (0, 1)
        assert checkers.failing_diamond(SubsetPoly.from_weights(3, {0: 1, 0b110: 1})) == (1, 2)


class TestFullCheck:
    def test_counterexample_report(self, counterexample):
        report = check_slc(counterexample, SampleConfig(points=100))
        assert isinstance(report.aggregate, Holds)
        assert isinstance(report.aggregate.certificate, SubsetCertificates)
        kinds = {a: verdict.certificate.kind for a, verdict in report.subsets.items()}
        assert kinds[0] == "dominance"
        assert all(kinds[1 << k] == "affine" for k in range(3))
        assert all(kinds[m] == "constant" for m in (0b011, 0b101, 0b110))
        assert kinds[0b111] == "zero"

    def test_one_plus_xy_violated_at_top_level(self):
        report = check_slc(one_plus_xy(), SampleConfig(points=50))
        assert isinstance(report.aggregate, Violated)
        assert report.aggregate.witness.subset_mask == 0
        # Derivatives of 1 + xy are monomials or constants, all fine.
        assert isinstance(report.subsets[0b01], Holds)
        assert isinstance(report.subsets[0b11], Holds)

    def test_zero_polynomial_holds_by_convention(self):
        report = check_slc(SubsetPoly.from_weights(2, {}))
        assert isinstance(report.aggregate, Holds)
        assert all(
            v.certificate == LogConcavityCertificate("zero") for v in report.subsets.values()
        )

    def test_subset_count(self, counterexample):
        report = check_slc(counterexample, SampleConfig(points=10))
        assert set(report.subsets) == set(range(8))

    # 4 + 4 e_1 + e_2 in four variables.  The top-level dominance gap picks
    # up the negative constant 16 - 3 * 12, and past n = 3 the coefficient
    # matrices are not tried, so only sampling is available there, while
    # every derivative is affine, constant, or zero.
    SAMPLED_AT_TOP = {0: 4, **{1 << i: 4 for i in range(4)}, **{3 << i: 1 for i in range(3)},
                      0b0101: 1, 0b1001: 1, 0b1010: 1}

    def test_aggregate_no_violation_found_merges_stats(self):
        p = SubsetPoly.from_weights(4, self.SAMPLED_AT_TOP)
        assert certify_log_concavity_dominance(p) is None
        assert certify_log_concavity_coefficients(p) is None
        report = check_slc(p, SampleConfig(points=30))
        assert isinstance(report.aggregate, NoViolationFound)
        assert report.aggregate.stats.derivatives_tested == 16
        assert report.aggregate.stats.points_tested == 625 + 30

    def test_each_subset_is_classified_once(self, monkeypatch):
        # The top level is sampled; the sampler must not classify it again.
        p = SubsetPoly.from_weights(4, self.SAMPLED_AT_TOP)
        classified = []
        classify = checkers.trivial_log_concavity
        monkeypatch.setattr(
            checkers, "trivial_log_concavity", lambda q: classified.append(q) or classify(q)
        )
        report = check_slc(p, SampleConfig(points=30))
        assert isinstance(report.subsets[0], NoViolationFound)
        assert len(classified) == 16

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError, match="weights must be nonnegative"):
            SubsetPoly.from_weights(1, {0: -1, 1: 2})

    def test_tiny_weights_are_checked(self):
        # Every weight on a set holding variable 4 is below the smallest float.
        p = product_measure(
            [Fraction(1, 3), Fraction(1, 2), Fraction(2, 7), Fraction(1, 10**400)]
        )
        report = check_slc(p, SampleConfig(points=200))
        assert not any(isinstance(v, Violated) for v in report.subsets.values())
        assert not isinstance(report.aggregate, Violated)


class TestFormatting:
    def test_fraction_pair_common_denominator(self):
        assert format_fraction_pair(Fraction(9, 484), Fraction(3, 121)) == "9/484 < 12/484"
        assert format_fraction_pair(Fraction(1, 2), Fraction(1, 2)) == "1/2 = 1/2"
        assert format_fraction_pair(Fraction(2, 3), Fraction(1, 6)) == "4/6 > 1/6"
