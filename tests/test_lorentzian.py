"""The Lorentzian certificate for homogeneous inputs against independent oracles.

Each of its two conditions is pitted against a brute-force route at
n <= 7, on seeded random inputs:

  * the exchange test by subset counts (`checkers._bases_exchange`) against
    the basis exchange axiom checked pair by pair (`conftest.
    brute_bases_exchange`), on equal-size families that are the bases of
    linear matroids over GF(2) and GF(3), those with one set toggled, and
    random families, many of them no matroid;
  * the rank-one test of a quadratic (`checkers._rank_one_bounded`)
    against the sign changes of the exact characteristic polynomial
    (`conftest.positive_eigenvalue_count`), on weighted complete multipartite
    forms (one positive eigenvalue), the same with one entry changed, direct
    sums of two of them (two positive eigenvalues) and random matrices;

and the certificate as a whole against the unchanged sampler: no input it
certifies has an `m_form`-confirmed witness on any derivative subset, and
every homogeneous input it refuses here has one.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from slcheck import SampleConfig, SubsetPoly, Violated, check_log_concavity, check_slc
from slcheck.checkers import (
    Holds,
    LogConcavityCertificate,
    _bases_exchange,
    _rank_one_bounded,
    certify_log_concavity_lorentzian,
    check_log_concavity_sampled,
    trivial_log_concavity,
)
from conftest import brute_bases_exchange, positive_eigenvalue_count

LORENTZIAN = LogConcavityCertificate("lorentzian")


def k_sets(n: int, k: int) -> list[int]:
    return [sum(1 << c for c in cols) for cols in itertools.combinations(range(n), k)]


def gf_rank(rows: list[list[int]], prime: int) -> int:
    """The rank of an integer matrix over GF(prime), by elimination."""
    rows = [[v % prime for v in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = pow(rows[rank][col], -1, prime)
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] * inverse % prime
                rows[r] = [(x - f * y) % prime for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def linear_bases(rng: np.random.Generator, n: int, k: int) -> list[int]:
    """The bases of the column matroid of a random k x n matrix over GF(2) or GF(3)."""
    prime = (2, 3)[int(rng.integers(2))]
    matrix = rng.integers(0, prime, size=(k, n)).tolist()
    return [s for s in k_sets(n, k)
            if gf_rank([[row[c] for c in range(n) if s >> c & 1] for row in matrix], prime) == k]


def random_family(rng: np.random.Generator, n: int) -> tuple[int, ...]:
    """Equal-size masks: matroid bases, those with one k-set toggled, or a random family.

    A random family has 2 <= k <= n - 2 where n allows it, as every family
    of sets of one size 0, 1, n - 1 or n is the bases of a matroid.
    """
    kind = int(rng.integers(3))
    if kind == 2:
        k = int(rng.integers(2, n - 1)) if n >= 4 else int(rng.integers(0, n + 1))
        keep = rng.random()
        return tuple(s for s in k_sets(n, k) if rng.random() < keep)
    k = int(rng.integers(0, n + 1))
    family = set(linear_bases(rng, n, k))
    if kind == 1:
        family ^= {k_sets(n, k)[int(rng.integers(math.comb(n, k)))]}
    return tuple(sorted(family))


class TestExchangeByCounts:
    def test_matches_the_pairwise_axiom(self):
        rng = np.random.default_rng(22)
        seen = {True: 0, False: 0}
        for _ in range(4000):
            n = int(rng.integers(1, 8))
            family = random_family(rng, n)
            if not family:
                continue
            want = brute_bases_exchange(family)
            assert _bases_exchange(n, family) == want, (n, family)
            seen[want] += 1
        assert min(seen.values()) >= 500, seen

    def test_a_single_failing_pair_is_found(self):
        # {1,2}, {3,4}: from {1,2} to {3,4} no swap of 1 lands in the family.
        assert not _bases_exchange(4, (0b0011, 0b1100))
        assert _bases_exchange(4, (0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100))
        assert _bases_exchange(3, (0b011,))


def multipartite(rng: np.random.Generator, size: int) -> list[list[int]]:
    """f_i f_j c_ij on pairs in different parts: one positive eigenvalue.

    The unweighted complete multipartite adjacency has one positive
    eigenvalue (Smith 1970), and D A D with D = diag(f) keeps its inertia;
    each c_ij is 1 or a random integer, the latter breaking that structure.
    """
    parts = rng.integers(0, max(2, size), size=size)
    f = rng.integers(1, 6, size=size)
    scramble = rng.random() < 0.3
    q = [[0] * size for _ in range(size)]
    for i, j in itertools.combinations(range(size), 2):
        if parts[i] != parts[j]:
            c = int(rng.integers(1, 4)) if scramble else 1
            q[i][j] = q[j][i] = int(f[i] * f[j]) * c
    return q


def random_quadratic(rng: np.random.Generator) -> list[list[int]]:
    size = int(rng.integers(1, 8))
    kind = int(rng.integers(4))
    if kind == 0:
        q = multipartite(rng, size)
    elif kind == 1:
        q = multipartite(rng, size)
        if size >= 2:
            i, j = rng.choice(size, 2, replace=False)
            q[i][j] = q[j][i] = int(rng.integers(0, 9))
    elif kind == 2:
        cut = int(rng.integers(0, size + 1))
        top, bottom = multipartite(rng, cut), multipartite(rng, size - cut)
        q = [row + [0] * (size - cut) for row in top] + [[0] * cut + row for row in bottom]
    else:
        q = [[0] * size for _ in range(size)]
        for i, j in itertools.combinations(range(size), 2):
            if rng.random() < 0.6:
                q[i][j] = q[j][i] = int(rng.integers(1, 10))
    if rng.random() < 0.2:  # a nonnegative diagonal too
        for i in range(size):
            q[i][i] = int(rng.integers(0, 4))
    return q


class TestRankOneTest:
    def test_matches_the_characteristic_polynomial(self):
        rng = np.random.default_rng(23)
        counts = {0: 0, 1: 0, 2: 0}
        for _ in range(3000):
            q = random_quadratic(rng)
            positive = positive_eigenvalue_count(q)
            assert _rank_one_bounded(q) == (positive <= 1), q
            counts[min(positive, 2)] += 1
        assert min(counts.values()) >= 200, counts

    def test_two_positive_eigenvalues_are_refused(self):
        # x1 x2 + x3 x4: eigenvalues 1, 1, -1, -1.
        pair = [[0, 1], [1, 0]]
        assert _rank_one_bounded(pair)
        two = [row + [0, 0] for row in pair] + [[0, 0] + row for row in pair]
        assert positive_eigenvalue_count(two) == 2
        assert not _rank_one_bounded(two)


def homogeneous_input(rng: np.random.Generator, n: int) -> SubsetPoly | None:
    """A degree 2..n-1 input: matroid or random support, field or random weights.

    One kind takes the d-sets inside either half of the variables: no
    matroid, yet for d >= 3 each quadratic d^A g lives on one half, where
    the external field leaves it Lorentzian.
    """
    kind = int(rng.integers(5))
    if kind == 4:
        half = n // 2
        k = int(rng.integers(2, half + 1)) if half >= 2 else 2
        support = k_sets(half, k) + [s << half for s in k_sets(n - half, k)]
    else:
        k = int(rng.integers(2, n))
        if kind <= 1:
            support = linear_bases(rng, n, k)
        elif kind == 2:
            support = [s for s in k_sets(n, k) if rng.random() < 0.6]
        else:
            support = k_sets(n, k)
    if len(support) < 2:
        return None
    field = rng.integers(1, 5, size=n).tolist()
    if kind in (0, 2, 4):  # an external field: Lorentzian on every matroid support
        weights = {s: math.prod(field[i] for i in range(n) if s >> i & 1) for s in support}
    else:
        weights = {s: int(rng.integers(1, 10)) for s in support}
    return SubsetPoly.from_weights(n, weights)


def sampled_witness(p: SubsetPoly, cfg: SampleConfig) -> bool:
    """Whether the sampler confirms a witness on some nontrivial derivative subset."""
    return any(
        isinstance(check_log_concavity_sampled(q, cfg, subset_mask=a), Violated)
        for a in range(1 << p.n)
        if trivial_log_concavity(q := p.derivative_subset(a)) is None
    )


class TestAgainstTheSampler:
    def test_certified_inputs_have_no_witness(self):
        rng = np.random.default_rng(24)
        cfg = SampleConfig(points=200)
        certified = refused = 0
        for _ in range(300):
            p = homogeneous_input(rng, int(rng.choice([3, 4, 5, 7])))
            if p is None:
                continue
            cert = certify_log_concavity_lorentzian(p)
            # Strong log-concavity is exactly the Lorentzian property here, so
            # a refused input fails on some subset, which the sampler finds.
            assert sampled_witness(p, cfg) == (cert is None), p
            if cert is None:
                refused += 1
            else:
                assert cert == LORENTZIAN
                certified += 1
        assert min(certified, refused) >= 60, (certified, refused)

    def test_refuses_what_it_cannot_prove(self):
        assert certify_log_concavity_lorentzian(SubsetPoly.from_weights(3, {})) is None
        # Degree 1, mixed degrees, and a support that is no matroid.
        for n, weights in ((3, {1: 1, 2: 1}), (3, {3: 1, 7: 1}), (4, {0b0011: 1, 0b1100: 1})):
            assert certify_log_concavity_lorentzian(SubsetPoly.from_weights(n, weights)) is None


class TestWiring:
    def test_lc_and_every_nontrivial_slc_subset_take_it(self):
        # e_3 on five variables under the external field (1, 2, 3, 4, 5).
        p = SubsetPoly.from_weights(5, {s: math.prod(i + 1 for i in range(5) if s >> i & 1)
                                        for s in k_sets(5, 3)})
        assert check_log_concavity(p) == Holds(LORENTZIAN)
        report = check_slc(p)
        for a, verdict in report.subsets.items():
            assert verdict == Holds(trivial_log_concavity(p.derivative_subset(a)) or LORENTZIAN)
        assert [a for a, v in report.subsets.items() if v == Holds(LORENTZIAN)] == [0, 1, 2, 4, 8, 16]
        assert isinstance(report.aggregate, Holds)
