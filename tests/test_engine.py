"""The coefficient-space engine against slower, independent routes.

Six fast paths are checked on seeded random inputs with n = 1..8, zero
weights, weights spanning about 1e-40..1e40, and the counterexample:

  * every row of the full 2^n-row derivative table (`conftest.
    reference_table`) against exact evaluation of the corresponding
    derivative at rational points, and the package's table over the
    down-closure of the support (`calculus._superset_sums`), its readers
    and their blocks against that full table bit for bit, also on rank and
    matroid supports at n = 8..16, derivatives with dead variables, weights
    near 1e-400 and the zero polynomial;
  * the integer M (`m_matrix`), its dominance gaps (`m_row_gaps`, divided
    by L^2) and the decision against M built term by term
    in Fractions on exponent tuples, apart from the package's key and
    product loop; and the decision's dead-variable refusal, which forms no
    row, against the walk over every row gap, on every derivative subset;
  * the coefficient matrices of M (`m_coefficient_matrices`), summed over
    their monomials at rational points, against `m_matrix`; the integer PSD
    test (`is_psd`) against every principal minor in Fractions; and the
    coefficient-matrix certificate at n = 2, 3 against the principal-minor
    factors of M built in that ring;
  * `check_slc`, whose one set of sample points serves every derivative
    subset and whose diamond pre-check skips both certificates, against a
    loop that draws fresh points for each derivative and tries every route;
  * the integer sign of v^T M(x) v (`m_form`) against v^T M(x) v from
    `m_matrix` in rationals, and every point witness `check_slc` issues,
    also with weights near 1e-400 and on cells of the (b, c) family;
  * the sampler's chunked scan (`check_log_concavity_sampled`) against one
    pass over all its points at once, at n = 2..7, on point counts either
    side of each chunk edge and on witnesses planted either side of them,
    for inputs with and without a failing diamond (the one-point head);
    and its points, drawn as the scan reaches them, against one draw of all;
    and, at tolerances 0, 1e-9 and 1e-3 and with dead variables, its
    eigen-free screen (`nsd_screen`) against that one pass of eigvalsh.
"""

from __future__ import annotations

import itertools
import math
import tracemalloc
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
from slcheck import calculus, checkers
from slcheck.calculus import (
    TABLE_CELLS,
    _float_coeffs,
    _log_coeffs,
    _superset_sums,
    _table_plan,
    cleared_m_rows,
    eval_many,
    log_hessian,
    log_hessian_many,
    is_psd,
    m_coefficient_matrices,
    m_form,
    m_matrix,
    m_row_gaps,
)
from slcheck.checkers import (
    LogConcavityCertificate,
    PointWitness,
    SamplePoints,
    SampleStats,
    certify_log_concavity_coefficients,
    certify_log_concavity_dominance,
    check_log_concavity_sampled,
    grid_points,
    trivial_log_concavity,
)
from slcheck.counterexample import counterexample_weights
from slcheck.family import make_family
from slcheck.linalg import nsd_screen, nsd_threshold
from conftest import (
    eval_exact,
    product_measure,
    reference_log_hessians,
    reference_table,
    sparse_eval_exact,
    sparse_from_cleared,
    sparse_poly,
)


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


def rank_poly(rng: np.random.Generator, n: int, k: int) -> SubsetPoly:
    """The k-subsets under a random external field: a uniform-rank support."""
    field = [int(rng.integers(1, 5)) for _ in range(n)]
    return SubsetPoly.from_weights(n, {
        s: math.prod(field[i] for i in range(n) if s >> i & 1)
        for s in range(1 << n) if s.bit_count() == k
    })


def matroid_poly(rng: np.random.Generator, n: int) -> SubsetPoly:
    """Spanning trees of a cycle plus chords (i, i + 2), one edge per variable.

    The cycle has max(3, (n + 3) // 2) vertices; a random external field
    weighs each tree, so the support is the bases of a graphic matroid.
    """
    vertices = max(3, (n + 3) // 2)
    edges = [(i, (i + 1) % vertices) for i in range(vertices)]
    edges += [(i, (i + 2) % vertices) for i in range(n - vertices)]
    field = [int(rng.integers(1, 5)) for _ in range(n)]
    weights = {}
    for tree in itertools.combinations(range(n), vertices - 1):
        root = list(range(vertices))

        def find(v: int) -> int:
            while root[v] != v:
                v = root[v]
            return v

        for e in tree:
            a, b = find(edges[e][0]), find(edges[e][1])
            if a == b:
                break
            root[a] = b
        else:
            weights[sum(1 << e for e in tree)] = math.prod(field[e] for e in tree)
    return SubsetPoly.from_weights(n, weights)


def table_cases(seed: int):
    """Inputs on both sides of the full-table choice, some with dead variables.

    oracle_cases (dense at n <= 5, sparse beyond; weights near 1e-40..1e40),
    rank and matroid supports at n = 8..16 and derivatives of them over one
    or two variables, weights near 1e-400 on every set holding the last
    variable or on every set, and zero polynomials.
    """
    rng = np.random.default_rng(seed)
    yield from oracle_cases(seed + 1, 40, max_dense_n=5)
    for n in range(8, 17):
        p = rank_poly(rng, n, 2 + n % 4) if n % 2 else matroid_poly(rng, n)
        yield p
        yield p.derivative_subset(1 << int(rng.integers(n)))
        yield p.derivative_subset(0b101 << int(rng.integers(n - 2)))
    tiny = Fraction(1, 10**400)
    for n in (3, 6, 9):
        p = oracle_poly(rng, n, zero_prob=0.3, wide=True)
        last = 1 << (n - 1)
        yield SubsetPoly.from_weights(
            n, {m: c * tiny if m & last else c for m, c in enumerate(p.coeffs)}
        )
        yield rank_poly(rng, n, 2).scale(tiny)
    for n in (1, 3, 12):
        yield SubsetPoly.from_weights(n, {})


def log_points(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    return np.exp(rng.uniform(np.log(0.01), np.log(100.0), size=(count, n)))


class TestDerivativeTable:
    def test_every_row_matches_exact_evaluation(self):
        rng = np.random.default_rng(71)
        checked = 0
        for p in oracle_cases(72, 48, max_dense_n=8):
            xs = rational_points(rng, p.n, 2)
            table = reference_table(_float_coeffs(p), np.array(xs, dtype=float))
            assert table.shape == (1 << p.n, len(xs))
            for b in range(1 << p.n):
                q = p.derivative_subset(b)
                for k, x in enumerate(xs):
                    want = eval_exact(q, x)
                    got = table[b, k]
                    # Every term is nonnegative, so the error is relative.
                    assert abs(Fraction(got) - want) <= Fraction(1, 10**13) * want, (p, b, x)
                    checked += 1
        assert checked > 5000

    def test_matches_full_table_bit_for_bit(self):
        # The table keeps the down-closure of the support (all of it when the
        # full set has a weight) and one zero row; each kept row, each row the
        # readers take, and each reader's result equals the full table's.
        rng = np.random.default_rng(75)
        layouts = {"full": 0, "closure": 0}
        for p in table_cases(76):
            n = p.n
            pts = log_points(rng, n, 3)
            plan = _table_plan(p)
            # B is in the down-closure when some nonzero S >= B: row B of the
            # full table at x = 1 on the support's indicator counts those S.
            support = np.array([c != 0 for c in p.coeffs], dtype=float)
            closure = np.flatnonzero(reference_table(support, np.ones((1, n)))[:, 0])
            bits = 1 << np.arange(n)
            for coeffs in (_float_coeffs(p), _log_coeffs(p)):
                want = reference_table(coeffs, pts)
                got = _superset_sums(coeffs, pts, plan)
                if len(closure) == 1 << n:
                    assert plan.kept is None
                    np.testing.assert_array_equal(got, want)
                else:
                    np.testing.assert_array_equal(plan.kept, closure)
                    np.testing.assert_array_equal(got[:-1], want[closure])
                    assert not got[-1].any() and not np.delete(want, closure, axis=0).any()
                np.testing.assert_array_equal(got[0], want[0])
                np.testing.assert_array_equal(got[plan.grad], want[bits])
                np.testing.assert_array_equal(got[plan.pairs], want[bits[:, None] | bits[None, :]])
            want_g = reference_table(_float_coeffs(p), pts)[0]
            np.testing.assert_array_equal(eval_many(p, pts), want_g)
            if p.nonzero_masks:
                with np.errstate(all="ignore"):
                    want_h = reference_log_hessians(_log_coeffs(p), pts)
                np.testing.assert_array_equal(log_hessian_many(p, pts), want_h)
            else:
                assert not want_g.any()
                with pytest.raises(ValueError, match="not positive"):
                    log_hessian_many(p, pts)
            layouts["full" if plan.kept is None else "closure"] += 1
        assert min(layouts.values()) >= 20, layouts

    def test_blocked_readers_agree_with_one_table(self):
        rng = np.random.default_rng(73)
        inputs = [oracle_poly(rng, n, zero_prob=0.3, wide=True) for n in (3, 8, 12)]
        # A closure of 79 rows: blocks of 409 points, not TABLE_CELLS >> 12.
        sparse = rank_poly(rng, 12, 2)
        assert _table_plan(sparse).block == TABLE_CELLS // 80 != TABLE_CELLS >> 12
        for p in inputs + [sparse]:
            count = 2 * _table_plan(p).block + 5
            pts = log_points(rng, p.n, count)
            table = reference_table(_float_coeffs(p), pts)
            np.testing.assert_array_equal(eval_many(p, pts), table[0])
            batch = log_hessian_many(p, pts)
            for k in (0, count // 2, count - 1):
                np.testing.assert_array_equal(batch[k], log_hessian(p, tuple(pts[k])))

    def test_one_block_table_alive_at_a_time(self):
        # One table with its stage and reader temporaries stays under 2.3
        # tables at n = 12; a second table alive would add a whole one.  The
        # sparse input's 1587 rows (1586 kept and the zero row) make its table outweigh the temporaries.
        rng = np.random.default_rng(74)
        dense = oracle_poly(rng, 12, zero_prob=0.0, wide=False)
        sparse = rank_poly(rng, 12, 5)
        for p, rows in ((dense, 1 << 12), (sparse, 1587)):
            plan = _table_plan(p)
            assert plan.rows == rows
            pts = log_points(rng, 12, 3 * plan.block)
            log_hessian_many(p, pts)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                out = log_hessian_many(p, pts)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            table = plan.rows * plan.block * 8
            assert peak - out.nbytes < 2.3 * table, (rows, peak - out.nbytes, table)

    def test_rejects_wrong_shape(self, counterexample):
        # Both readers check the shape of the points before building a table.
        for reader in (eval_many, log_hessian_many):
            with pytest.raises(ValueError, match="point array"):
                reader(counterexample, np.ones((4, 2)))


# The reference ring: polynomials as dicts from exponent tuples to Fractions,
# apart from the package's monomial key and product loop.


def tuple_terms(q: SubsetPoly) -> dict[tuple[int, ...], Fraction]:
    return {tuple(s >> k & 1 for k in range(q.n)): c for s, c in enumerate(q.coeffs) if c}


def tuple_add(out: dict, f: dict, h: dict, sign: int) -> dict:
    """out += sign * f * h, one product of Fractions at a time."""
    for e1, c1 in f.items():
        for e2, c2 in h.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + sign * c1 * c2
    return out


def tuple_product(f: dict, h: dict) -> dict:
    return {e: c for e, c in tuple_add({}, f, h, 1).items() if c}


def reference_m(p: SubsetPoly) -> list[list[dict[tuple[int, ...], Fraction]]]:
    """M_ij = d_i g d_j g - g d_ij g in the reference ring."""
    n = p.n
    g, grads = tuple_terms(p), [tuple_terms(p.derivative(i + 1)) for i in range(n)]
    m = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            tuple_add(m[i][j], grads[i], grads[j], 1)
            if i != j:
                tuple_add(m[i][j], g, tuple_terms(p.derivative_subset(1 << i | 1 << j)), -1)
    return m


def reference_minor_factors(p: SubsetPoly) -> list[dict[tuple[int, ...], Fraction]]:
    """R_ij = 2 g_i g_j - g g_ij for each pair i < j and, at n = 3,
    R_123 = 2 sum_{i<j} a_i a_j - sum_i a_i^2 - 2 g g_12 g_13 g_23 with
    a_i = g_i g_jk, in the reference ring with zeros dropped."""
    n = p.n
    g = tuple_terms(p)
    d = {mask: tuple_terms(p.derivative_subset(mask)) for mask in range(1 << n)}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    factors = []
    for i, j in pairs:
        r = tuple_add({}, d[1 << i], d[1 << j], 2)
        factors.append(tuple_add(r, g, d[1 << i | 1 << j], -1))
    if n == 3:
        a = [tuple_product(d[1 << i], d[7 ^ 1 << i]) for i in range(3)]
        r = {}
        for i, j in pairs:
            tuple_add(r, a[i], a[j], 2)
        for ai in a:
            tuple_add(r, ai, ai, -1)
        factors.append(tuple_add(r, g, tuple_product(tuple_product(d[3], d[5]), d[6]), -2))
    return [{e: c for e, c in f.items() if c} for f in factors]


def reference_minor_certified(q: SubsetPoly) -> bool:
    return q.n <= 3 and all(c >= 0 for f in reference_minor_factors(q) for c in f.values())


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
    return bool(p.nonzero_masks) and all(
        all(c >= 0 for c in g.values()) and any(c > 0 for c in g.values()) for g in gaps
    )


def has_dead_variable(q: SubsetPoly) -> bool:
    """Whether some variable is in no nonzero mask of q, so that its row of M is zero."""
    return any(all(s >> k & 1 == 0 for s in q.nonzero_masks) for k in range(q.n))


def dominance_failure(q: SubsetPoly) -> int | None:
    """The first row whose dominance gap fails, or None when every gap passes.

    The reference walk over every row of `m_row_gaps`, with no shortcut.
    """
    for i, gap in enumerate(m_row_gaps(q)):
        if not (all(c >= 0 for c in gap.values()) and any(c > 0 for c in gap.values())):
            return i
    return None


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
                tuple(sparse_poly(p.n, entry) for entry in row) for row in m
            ), p
            want = reference_gaps(m)
            got = tuple(sparse_from_cleared(p, gap) for gap in m_row_gaps(p))
            assert got == tuple(sparse_poly(p.n, gap) for gap in want), p
            certified = certify_log_concavity_dominance(p) is not None
            assert certified == reference_certified(p, want), p
            outcomes[certified] += 1
        assert len(cases) >= 500
        assert min(outcomes.values()) >= 100, outcomes

    def test_dead_variable_refusal_matches_the_row_walk(self, monkeypatch):
        # On every derivative subset the certificate is the walk over
        # m_row_gaps (`dominance_failure`), and where a variable is in no
        # nonzero mask it refuses with no row formed.
        calls = []
        original = calculus.cleared_m_rows
        monkeypatch.setattr(calculus, "cleared_m_rows", lambda q: calls.append(q) or original(q))
        rng = np.random.default_rng(96)
        outcomes = {"certified": 0, "refused live": 0, "dead in g": 0, "dead in A": 0}
        for k in range(84):
            n = 1 + k % 7
            if k % 3 == 0:
                p = product_measure([Fraction(int(rng.integers(1, 10)), 10) for _ in range(n)])
            else:
                p = oracle_poly(rng, n, zero_prob=(0.0, 0.3, 0.6)[k % 3], wide=False)
            if k % 4 == 1:  # variable k mod n carries no weight
                dead_bit = 1 << k % n
                p = SubsetPoly.from_weights(n, {s: Fraction(c, p.cleared[1])
                                                for s, c in enumerate(p.cleared[0])
                                                if not s & dead_bit})
            if k % 2:
                p = p.scale(Fraction(1, 10**400))
            for a in range(1 << n):
                q = p.derivative_subset(a)
                live = not has_dead_variable(q)
                del calls[:]
                cert = certify_log_concavity_dominance(q)
                assert calls == ([q] if live else []), (p, a)
                want = dominance_failure(q) is None
                assert cert == (LogConcavityCertificate("dominance") if want else None), (p, a)
                if live:
                    outcomes["certified" if want else "refused live"] += 1
                else:
                    outcomes["dead in A" if a else "dead in g"] += 1
        assert min(outcomes.values()) >= 15, outcomes


def key_power(n: int, key: int, x) -> Fraction:
    """x^S x^T at a rational point, for the key (S | T) << n | (S & T): variable k
    has exponent 2 in S & T, 1 in the rest of S | T."""
    return math.prod((x[k] ** ((key >> (n + k) & 1) + (key >> k & 1)) for k in range(n)),
                     start=Fraction(1))


class TestMRows:
    def test_rows_are_full_and_symmetric(self):
        # Entry (i, j) below the diagonal is the dict row j built, not a copy.
        checked = 0
        for p in oracle_cases(93, 120, max_dense_n=5):
            if p.n > 5:
                continue
            rows = list(cleared_m_rows(p))
            assert len(rows) == p.n and all(len(row) == p.n for row in rows), p
            for i, j in itertools.product(range(p.n), repeat=2):
                assert rows[i][j] is rows[j][i], (p, i, j)
            checked += 1
        assert checked >= 70, checked

    def test_each_certificate_forms_the_rows_it_reads(self, monkeypatch):
        # Each certificate forms M on its own.  Dominance forms no row where a
        # variable is dead, as the variables of every A != {} are, and else
        # stops after its first failing row; up to COEFFICIENT_MAX_VARS a
        # failed dominance test goes on to the coefficient test, which forms
        # every row again.  Only subsets past the diamond pre-check form any,
        # and none of a g that the Lorentzian certificate proves first.
        formed = []
        original = calculus.cleared_m_rows

        def counting_rows(q):
            rows = []
            formed.append((q, rows))
            for row in original(q):
                rows.append(row)
                yield row

        cells = [make_family(b, c) for b, c in (("3/4", "1/4"), (2, 2), ("5/2", "5/2"))]
        dense = oracle_poly(np.random.default_rng(5), 4, zero_prob=0.0, wide=False)
        ranks = [SubsetPoly.from_weights(n, {m: m % 5 + 1 for m in range(1 << n)
                                             if bin(m).count("1") == k})
                 for n, k in ((4, 2), (4, 3), (5, 2))]
        # A weight on the full set makes each rank input inhomogeneous, so
        # its g reaches the dominance test, which stops early there.
        topped = [SubsetPoly.from_weights(p.n, {**dict(enumerate(p.coeffs)), (1 << p.n) - 1: 1})
                  for p in ranks]
        dead = SubsetPoly.from_weights(4, {m: m + 1 for m in range(16) if not m & 0b100})
        products = [product_measure([Fraction(1, k) for k in range(2, n)]) for n in (4, 5, 6)]
        seen = {"twice": 0, "dead": 0, "stopped early": 0, "certified": 0}
        lorentzian = 0
        for p in [*cells, dense, *ranks, *topped, dead, *products]:
            want = []
            proved_first = checkers.certify_log_concavity_lorentzian(p) is not None
            lorentzian += proved_first
            for a in [] if proved_first else range(1 << p.n):
                q = p.derivative_subset(a)
                if trivial_log_concavity(q) is not None or checkers.failing_diamond(q) is not None:
                    continue
                live = not has_dead_variable(q)
                assert live or a or p is dead, (p, a)
                failure = dominance_failure(q) if live else None
                if live:
                    want.append((q, q.n if failure is None else failure + 1))
                if (not live or failure is not None) and q.n <= checkers.COEFFICIENT_MAX_VARS:
                    want.append((q, q.n))
                seen["twice"] += live and failure is not None and q.n <= 3
                seen["dead"] += not live
                seen["stopped early"] += failure is not None and failure + 1 < q.n > 3
                seen["certified"] += live and failure is None
            formed.clear()
            with monkeypatch.context() as patch:
                patch.setattr(calculus, "cleared_m_rows", counting_rows)
                check_slc(p, SampleConfig(points=8))
            assert [(q, len(rows)) for q, rows in formed] == want, p
        assert min(seen.values()) >= 3, seen
        assert lorentzian == len(ranks)

    def test_dominance_implies_psd_coefficient_matrices(self):
        # A nonnegative gap makes each M_a weakly diagonally dominant with a
        # nonnegative diagonal, so the coefficient certificate holds too.
        rng = np.random.default_rng(94)
        cases = [p for p in oracle_cases(95, 200, max_dense_n=5) if p.n <= 5]
        cases += [product_measure([Fraction(int(rng.integers(1, 10)), 10) for _ in range(n)])
                  for n in range(1, 6) for _ in range(20)]
        accepted = 0
        for p in cases:
            for a in range(1 << p.n):
                q = p.derivative_subset(a)
                if certify_log_concavity_dominance(q) is not None:
                    assert all(is_psd(m) for m in m_coefficient_matrices(q).values()), (p, a)
                    accepted += 1
        assert accepted >= 120, accepted


class TestCoefficientMatrices:
    def test_matrices_sum_to_m_matrix(self):
        # sum_a x^a M_a / L^2 = M(x), entry by entry, exactly at rational points.
        rng = np.random.default_rng(86)
        checked = 0
        for p in oracle_cases(87, 200, max_dense_n=5):
            if p.n > 5:
                continue
            mats = m_coefficient_matrices(p)
            for mat in mats.values():
                assert any(any(row) for row in mat), p
                assert all(mat[i][j] == mat[j][i] for i in range(p.n) for j in range(p.n)), p
            m, scale = m_matrix(p), p.cleared[1] ** 2
            for x in rational_points(rng, p.n, 2):
                powers = {key: key_power(p.n, key, x) for key in mats}
                for i in range(p.n):
                    for j in range(p.n):
                        got = sum((powers[key] * mat[i][j] for key, mat in mats.items()),
                                  start=Fraction(0))
                        assert got / scale == sparse_eval_exact(m[i][j], x), (p, x, i, j)
            checked += 1
        assert checked >= 120, checked

    def test_certificate_fires_where_the_minors_do(self):
        # At n = 2, 3 the coefficient matrices certify exactly the subsets whose
        # principal-minor factors have nonnegative coefficients.
        rng = np.random.default_rng(88)
        outcomes = {True: 0, False: 0}
        for k in range(400):
            n = 2 + k % 2
            p = oracle_poly(rng, n, zero_prob=(0.0, 0.3, 0.5)[k % 3], wide=k % 4 == 1)
            if k % 5 == 4:
                p = p.scale(Fraction(1, 10**400))
            for a in range(1 << n):
                q = p.derivative_subset(a)
                if not q.nonzero_masks:
                    continue
                certified = certify_log_concavity_coefficients(q) is not None
                assert certified == reference_minor_certified(q), q
                outcomes[certified] += 1
        assert min(outcomes.values()) >= 300, outcomes

    def test_not_tried_past_three_variables(self):
        # Every coefficient matrix of this n = 4 product measure is PSD (M is
        # diagonal), yet the certificate is tried only up to n = 3.
        p = product_measure([Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 5)])
        assert all(is_psd(mat) for mat in m_coefficient_matrices(p).values())
        assert certify_log_concavity_coefficients(p) is None


def fraction_det(rows: list[list[Fraction]]) -> Fraction:
    """The determinant by Gaussian elimination in Fractions."""
    a = [list(row) for row in rows]
    det = Fraction(1)
    for k in range(len(a)):
        pivot = next((r for r in range(k, len(a)) if a[r][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for r in range(k + 1, len(a)):
            f = a[r][k] / a[k][k]
            a[r] = [v - f * w for v, w in zip(a[r], a[k])]
    return det


def minors_nonnegative(a: list[list[int]]) -> bool:
    """Every principal minor >= 0: the PSD criterion for a symmetric matrix."""
    n = len(a)
    return all(
        fraction_det([[Fraction(a[i][j]) for j in rows] for i in rows]) >= 0
        for size in range(1, n + 1)
        for rows in itertools.combinations(range(n), size)
    )


class TestIntegerPsd:
    def test_matches_every_principal_minor(self):
        # B B^T has rank at most r, so PSD and singular for r < n; one entry
        # pair or diagonal entry moved by a small integer perturbs it either way.
        rng = np.random.default_rng(89)
        cases = [[[0] * n for _ in range(n)] for n in range(1, 7)]
        cases += [[[0, 1], [1, 0]], [[0, -2], [-2, 5]], [[1, 0, 0], [0, 0, 1], [0, 1, 0]],
                  [[4, 0, 0], [0, 0, 0], [0, 0, -1]]]
        for n in range(1, 7):
            for r in range(n + 1):
                for _ in range(12):
                    b = rng.integers(-4, 5, size=(n, r))
                    a = (b @ b.T).astype(int).tolist()
                    cases.append(a)
                    i, j = (int(v) for v in rng.integers(0, n, size=2))
                    perturbed = [row[:] for row in a]
                    delta = int(rng.choice([-2, -1, 1, 2]))
                    perturbed[i][j] += delta
                    if i != j:
                        perturbed[j][i] += delta
                    cases.append(perturbed)
        outcomes = {True: 0, False: 0}
        for a in cases:
            before = [row[:] for row in a]
            got = is_psd(a)
            assert a == before
            assert got == minors_nonnegative(a), a
            outcomes[got] += 1
        assert not is_psd([[0, 1], [1, 0]]) and all(is_psd(a) for a in cases[:6])
        assert min(outcomes.values()) >= 150, outcomes


def reference_slc(p: SubsetPoly, cfg: SampleConfig) -> dict:
    """Each derivative on its own: fresh sample points, the reference certificate."""
    out = {}
    for a in range(1 << p.n):
        q = p.derivative_subset(a)
        trivial = trivial_log_concavity(q)
        if trivial is not None:
            out[a] = Holds(trivial)
        elif reference_certified(q, reference_gaps(reference_m(q))):
            out[a] = "dominance"
        elif reference_minor_certified(q):
            out[a] = "coefficient"
        else:
            out[a] = check_log_concavity_sampled(q, cfg, subset_mask=a)
    return out


class TestCheckSlc:
    def test_matches_per_derivative_loop(self):
        # The reference has no diamond pre-check: where it fires, the verdict
        # must be the one the failing certificates led to all the same.
        kinds, fired = set(), []
        for k, p in enumerate(oracle_cases(91, 30, max_dense_n=4)):
            if p.n == 6:
                continue  # a 5^6-point grid per sampled derivative; n = 7, 8 have none
            cfg = SampleConfig(points=12, seed=k)
            report = check_slc(p, cfg)
            want = reference_slc(p, cfg)
            assert set(report.subsets) == set(want)
            for a, expected in want.items():
                got = report.subsets[a]
                if expected in ("dominance", "coefficient"):
                    assert got == Holds(LogConcavityCertificate(expected)), (p, a)
                    kinds.add(expected)
                    continue
                assert type(got) is type(expected), (p, a)
                kinds.add(type(got).__name__)
                if isinstance(got, Holds):
                    assert got == expected
                elif isinstance(got, Violated):
                    assert got.witness == expected.witness
                else:
                    assert got.stats == expected.stats
                q = p.derivative_subset(a)
                if trivial_log_concavity(q) is None and checkers.failing_diamond(q):
                    assert got == expected, (p, a)
                    fired.append(type(got).__name__)
        assert kinds == {"Holds", "dominance", "coefficient", "Violated", "NoViolationFound"}
        assert len(fired) >= 20 and set(fired) == {"Violated", "NoViolationFound"}, fired


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
            p = SubsetPoly.from_weights(
                n, {m: c * tiny if m & last else c for m, c in enumerate(p.coeffs)}
            )
        yield p


def exact_signs(q: SubsetPoly, point, vectors) -> list[int]:
    """Signs of v^T M(x) v, with M from m_matrix evaluated in rationals."""
    x = [Fraction(c) for c in point]
    m = [[sparse_eval_exact(e, x) for e in row] for row in m_matrix(q)]
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
                    assert eval_exact(q, [Fraction(c) for c in w.point]) > 0
                    witnesses += 1
                    if not cases:
                        cases.append((q, w.point, [w.vector] + crossing_vectors(q, w.point)))
            q = p.derivative_subset(int(rng.integers(0, 1 << p.n)))
            if q.nonzero_masks:
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
    A NoViolationFound verdict carries the smallest pivot of `nsd_screen`
    over every point, the margin the sampler reports.
    """
    if pts.shape[0] == 0:
        return NoViolationFound(SampleStats(0, 1, cfg.tolerance, cfg.seed, math.inf)), None
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
    margin = float(np.nanmin(nsd_screen(hessians, cfg.tolerance)[1]))
    stats = SampleStats(pts.shape[0], 1, cfg.tolerance, cfg.seed, margin)
    return NoViolationFound(stats), None


# Either side of the edges of the sampler's chunks: 0, 64, 1088, 2112, ...,
# and 1 where a diamond-failing input gets the one-point head.
SCAN_COUNTS = (0, 1, 2, 63, 64, 65, 1088, 1089)
WITNESS_AT = (0, 1, 30, 63, 64, 1087, 1088, 1100)


def scaled(p: SubsetPoly, k: int) -> SubsetPoly:
    """p as is, or times 1e-30 or 1e-400, by k % 3."""
    return p.scale((1, Fraction(1, 10**30), Fraction(1, 10**400))[k % 3])


def planted_inputs(n: int) -> dict[str, SubsetPoly]:
    """Inputs whose log-Hessian is NSD exactly where x1 x2 >= 1.

    "failing" is g = (1 + x1 x2) (1 + x3) ... (1 + xn), whose {1, 2} diamond
    fails at the origin; "clean", from n = 3, is x_n times the same product
    over x1 ... x_(n-1), whose diamonds all hold (p(empty) = 0), and which
    adds only -1 / x_n^2 to the log-Hessian.
    """
    last = 1 << (n - 1)
    inputs = {"failing": {mask: 1 for mask in range(1 << n) if mask & 3 in (0, 3)}}
    if n >= 3:
        inputs["clean"] = {mask: 1 for mask in range(1 << n) if mask & 3 in (0, 3) and mask & last}
    return {name: SubsetPoly.from_weights(n, weights) for name, weights in inputs.items()}


def chunk_sizes(count: int, head: bool) -> list[int]:
    """The sizes the sampler's chunks must have over count points."""
    edges = [0, 1] if head else [0]
    edges += range(64, count + 1024, 1024)
    return [min(b, count) - a for a, b in zip(edges, edges[1:]) if a < count]


def drawn_at_once(n: int, cfg: SampleConfig) -> np.ndarray:
    """The sampler's points as one draw of all of them, after the grid."""
    rng = np.random.default_rng(cfg.seed)
    lo, hi = cfg.box
    draws = np.exp(rng.uniform(np.log(lo), np.log(hi), size=(cfg.points, n)))
    return np.vstack([grid_points(n), draws])


class TestChunkedScan:
    def test_matches_one_pass_on_sample_points(self):
        rng = np.random.default_rng(111)
        outcomes = set()
        for n in range(2, 8):
            grid = 5**n if n <= 6 else 0
            counts = [c for c in SCAN_COUNTS if c >= grid] or [grid + 3]
            for k, count in enumerate(counts):
                cfg = SampleConfig(points=count - grid, seed=k)
                pts = drawn_at_once(n, cfg)
                assert pts.shape[0] == count
                # A random input, mostly violated, and a log-concave product measure.
                mixed = oracle_poly(rng, n, zero_prob=(0.0, 0.3)[k % 2], wide=k % 2 == 1)
                product = product_measure(
                    [Fraction(int(rng.integers(1, 10)), 10) for _ in range(n)]
                )
                for p in (scaled(mixed, k), scaled(product, k + 1)):
                    if len(p.nonzero_masks) <= 1:
                        continue
                    want, _ = reference_scan(p, pts, cfg)
                    assert check_log_concavity_sampled(p, cfg) == want, (p, count)
                    outcomes.add((n, count, type(want).__name__))
        for name in ("NoViolationFound", "Violated"):
            assert {(7, 1, name), (7, 1089, name)} <= outcomes, outcomes
        assert (7, 0, "NoViolationFound") in outcomes

    def test_draws_only_what_the_scan_reads(self):
        # Nothing is drawn while the chunks stay in the grid, and every random
        # row at the first chunk past it, with no generator kept after; each
        # chunk, with or without the one-point head, holds the rows of one
        # draw of every point, read-only.
        for n in range(2, 9):
            grid = grid_points(n).shape[0]
            seeds = (0, 9, (0, 3, 4))
            for seed, count, head in itertools.product(seeds, SCAN_COUNTS, (False, True)):
                cfg = SampleConfig(points=count, seed=seed)
                want = drawn_at_once(n, cfg)
                pts = SamplePoints(n, cfg)
                assert len(pts) == want.shape[0] and pts.drawn == grid
                for rows in checkers._scan_chunks(len(pts), head):
                    chunk = pts[rows]
                    assert pts.drawn == (grid if rows.stop <= grid else len(pts))
                    assert not chunk.flags.writeable
                    assert chunk.tobytes() == want[rows].tobytes(), (n, seed, count, rows)
                assert not any(isinstance(v, np.random.Generator) for v in vars(pts).values())

    def test_violation_in_the_probe_draws_nothing(self, built_points):
        # 1 + x1 x2 fails at the first grid point; a violated sweep cell too.
        # Both fail a diamond at the origin, so the scan reads that point on
        # its own and stops there, before any draw.
        for n in range(2, 7):
            p = SubsetPoly.from_weights(n, {0: 1, 0b11: 1})
            verdict = check_log_concavity_sampled(p)
            assert verdict.witness.point == (0.1,) * n
            assert built_points[-1].drawn == 5**n
        assert isinstance(check_slc(make_family(1, 3)).aggregate, Violated)
        assert built_points[-1].drawn == 125 and len(built_points) == 6

    def test_matches_one_pass_on_planted_witnesses(self):
        # g = (1 + x1 x2) (1 + x3) ... (1 + xn) has a NSD log-Hessian exactly
        # where x1 x2 >= 1, so every point before the planted one is clean.
        rng = np.random.default_rng(112)

        def draw(count: int, n: int, lo: float, hi: float) -> np.ndarray:
            return np.exp(rng.uniform(np.log(lo), np.log(hi), size=(count, n)))

        for n in range(2, 8):
            for name, planted in planted_inputs(n).items():
                assert (checkers.failing_diamond(planted) is None) == (name == "clean")
                for k, at in enumerate(WITNESS_AT):
                    p = scaled(planted, k + n)
                    pts = np.vstack([
                        draw(at, n, 1.5, 10.0),
                        draw(1, n, 0.05, 0.7),
                        draw(int(rng.integers(0, 70)), n, 0.05, 10.0),
                    ])
                    cfg = SampleConfig(seed=k)
                    want, index = reference_scan(p, pts, cfg)
                    assert index == at, (n, name, at, index)
                    assert check_log_concavity_sampled(p, cfg, points=pts) == want, (n, name, at)

    def test_one_point_head_only_while_the_grid_leads(self, monkeypatch):
        # Over points where both planted inputs hold, the scan reads every
        # point: a diamond-failing input in chunks of 1, 63, 1024, ... up to
        # n = GRID_MAX_VARS and of 64, 1024, ... past it (no grid leads the
        # scan there), a diamond-clean input always in 64, 1024, ...
        rng = np.random.default_rng(113)
        sizes = []

        def spy(p, points):
            sizes.append(points.shape[0])
            return log_hessian_many(p, points)

        monkeypatch.setattr(checkers, "log_hessian_many", spy)
        for n in range(2, 8):
            for name, planted in planted_inputs(n).items():
                for k, count in enumerate(SCAN_COUNTS):
                    p = scaled(planted, k)
                    pts = np.exp(rng.uniform(np.log(1.5), np.log(10.0), size=(count, n)))
                    cfg = SampleConfig(seed=k)
                    want, index = reference_scan(p, pts, cfg)
                    assert index is None
                    sizes.clear()
                    assert check_log_concavity_sampled(p, cfg, points=pts) == want, (n, name, count)
                    head = name == "failing" and n <= checkers.GRID_MAX_VARS
                    assert sizes == chunk_sizes(count, head), (n, name, count, sizes)
        assert chunk_sizes(1089, True) == [1, 63, 1024, 1]
        assert chunk_sizes(1089, False) == [64, 1024, 1]

    def test_a_scan_of_the_grid_alone_makes_no_generator(self, monkeypatch, counterexample):
        made = []
        default_rng = np.random.default_rng

        def counting(seed):
            made.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", counting)
        for n in range(2, 7):  # 1 + x1 x2 fails at grid point 0
            verdict = check_log_concavity_sampled(SubsetPoly.from_weights(n, {0: 1, 0b11: 1}))
            assert isinstance(verdict, Violated)
        assert isinstance(check_slc(make_family(1, 3)).aggregate, Violated)
        # Every grid point, and no draw.
        verdict = check_log_concavity_sampled(counterexample, SampleConfig(points=0))
        assert verdict.stats.points_tested == 125
        assert made == []
        # A scan that draws makes one generator, however many chunks it draws in.
        verdict = check_log_concavity_sampled(counterexample, SampleConfig(points=2000, seed=5))
        assert verdict.stats.points_tested == 2125 and made == [5]


def with_dead_variable(p: SubsetPoly) -> SubsetPoly:
    """p with one more variable, on which it does not depend: a zero log-Hessian row."""
    return SubsetPoly.from_weights(p.n + 1, dict(enumerate(p.coeffs)))


class TestScreenedScan:
    def test_matches_one_pass_of_eigvalsh_at_every_tolerance(self):
        # The scan runs eigvalsh only where the screen's factorization fails;
        # the one pass runs it everywhere.  Verdicts and witnesses must agree.
        rng = np.random.default_rng(173)
        outcomes = set()
        for n, tol in itertools.product((2, 3, 4, 5, 7), (0.0, 1e-9, 1e-3)):
            cfg = SampleConfig(points=300, seed=n, tolerance=tol)
            mixed = oracle_poly(rng, n, zero_prob=0.3, wide=n % 2 == 1)
            product = product_measure([Fraction(int(rng.integers(1, 10)), 10) for _ in range(n)])
            planted = planted_inputs(n)["failing"]
            for k, p in enumerate((mixed, product, planted)):
                for q in (scaled(p, k + n), with_dead_variable(p)):
                    if len(q.nonzero_masks) <= 1:
                        continue
                    want, _ = reference_scan(q, drawn_at_once(q.n, cfg), cfg)
                    assert check_log_concavity_sampled(q, cfg) == want, (q, tol)
                    outcomes.add((tol, type(want).__name__))
        assert len(outcomes) == 6, outcomes
