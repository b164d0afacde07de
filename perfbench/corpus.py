"""Seeded input corpora for the three `check` workloads.

Every input is built from a class whose answer is known by construction
where one is known: product measures, pairwise-penalty measures, uniform
rank supports and matroid bases are log-submodular or strongly
log-concave for structural reasons, and planted violations know which
coefficient they broke.  The generator uses only the standard library, so
the program under test sees nothing but the JSON files written here.

Weights are not normalized: both properties are invariant under scaling,
and one common denominator on every weight would make the cost of each
exact operation depend on the seed.  Product measures, whose weights sum
to one anyway, use inclusion probabilities in tenths for the same reason.

One `Case` is one `slcheck check FILE PROP` call.  The composition of each
corpus (classes and sizes) is fixed per workload; the seed only changes the
random parameters, so every seed asks for about the same amount of work.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable


@dataclass(frozen=True)
class Case:
    """One input file and the facts its construction guarantees.

    lattice is True when the input is log-submodular by construction, False
    when a violation was planted, None when unknown.  log_concave is True
    when every derivative of the generating polynomial is log-concave on
    the positive orthant by construction (strongly log-concave inputs).
    """

    name: str
    prop: str
    cls: str
    n: int
    weights: dict[int, Fraction]
    lattice: bool | None = None
    log_concave: bool = False


def popcount(mask: int) -> int:
    return bin(mask).count("1")


def subset_key(mask: int) -> str:
    """The distribution-file key of a subset: comma-separated 1-based indices."""
    return ",".join(str(k + 1) for k in range(mask.bit_length()) if mask >> k & 1)


def dumps_case(case: Case) -> str:
    coeffs = {subset_key(m): str(w) for m, w in sorted(case.weights.items()) if w != 0}
    return json.dumps({"n": case.n, "coefficients": coeffs}, indent=1) + "\n"


def write_corpus(cases: list[Case], directory: str) -> list[str]:
    """Write one JSON file per case; returns the paths in corpus order."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for case in cases:
        path = os.path.join(directory, case.name + ".json")
        with open(path, "w") as fh:
            fh.write(dumps_case(case))
        paths.append(path)
    return paths


# ----- weight builders ----------------------------------------------------------


def _prob(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 9), 10)


def product_weights(n: int, qs: list[Fraction]) -> dict[int, Fraction]:
    """p(S) = prod_{i in S} q_i prod_{i not in S} (1 - q_i), a distribution."""
    out = {}
    for mask in range(1 << n):
        w = Fraction(1)
        for k in range(n):
            w *= qs[k] if mask >> k & 1 else 1 - qs[k]
        out[mask] = w
    return out


def product_measure(rng: random.Random, n: int) -> dict[int, Fraction]:
    return product_weights(n, [_prob(rng) for _ in range(n)])


def pairwise_penalty(rng: random.Random, n: int) -> dict[int, Fraction]:
    """p(S) = r^C(|S|,2) times a product measure, with r = 1/2.

    C(|S|, 2) is supermodular in S, so with log r < 0 the log-weight is
    submodular and every incomparable pair holds strictly.
    """
    base = product_measure(rng, n)
    return {m: w / 2 ** math.comb(popcount(m), 2) for m, w in base.items()}


def truncated_product(rng: random.Random, n: int) -> dict[int, Fraction]:
    """A product measure restricted to |S| <= n // 2.

    Zero weights, yet log-submodular: any incomparable pair whose join is
    still small enough is an equality of the product measure, and every
    other pair has a zero right-hand side.
    """
    base = product_measure(rng, n)
    return {m: w for m, w in base.items() if popcount(m) <= n // 2}


def planted_late(rng: random.Random, n: int) -> dict[int, Fraction]:
    """A violation whose lexicographically first witness lies past mid-scan.

    The base is a product measure times rho per pair (top element, other
    element) inside S, which is log-submodular.  Dividing p(X) by 2 for a
    set X holding the top element breaks exactly the pairs {X, T} whose
    slack is below 2: those with the top element in T (slack 1), never
    those without it (slack at least 1/rho = 4).  Both members of every
    violating pair then hold the top element, so the first one is scanned
    after the middle of the 4^n pairs.
    """
    top = 1 << (n - 1)
    base = product_measure(rng, n)
    weights = {m: w / 4 ** (popcount(m) - 1 if m & top else 0) for m, w in base.items()}
    weights[top | rng.randrange(1, top - 1)] /= 2
    return weights


def planted_early(rng: random.Random, n: int) -> dict[int, Fraction]:
    """A product measure with one low-index weight halved: the witness comes early."""
    weights = product_measure(rng, n)
    weights[rng.choice((1, 2, 3, 4, 5))] /= 2
    return weights


def random_dense(rng: random.Random, n: int, zero_share: float = 0.0) -> dict[int, Fraction]:
    """Independent random weights; exactly round(zero_share * 2^n) subsets weigh 0.

    The full set always keeps a weight, since it alone decides whether the
    derivatives over n - 2 variables are affine.  With that and a fixed
    number of zeros, the trivial derivatives and the cost of the exact path
    (which grows with the number of nonzero weights) vary little by seed.
    """
    full = (1 << n) - 1
    zeros = set(rng.sample(range(full), round(zero_share * (1 << n))))
    return {
        m: Fraction(rng.randint(1, 9), rng.randint(1, 7))
        for m in range(1 << n)
        if m not in zeros
    }


def weighted_rank(rng: random.Random, n: int, k: int) -> dict[int, Fraction]:
    """The k-subsets under a random positive external field prod_{i in S} lambda_i.

    The support is uniform rank k, so the input is log-submodular (two
    incomparable k-sets have a join outside the support) and strongly
    log-concave (an external field keeps a Lorentzian polynomial Lorentzian).
    """
    field = [rng.randint(1, 4) for _ in range(n)]
    return {
        m: Fraction(math.prod(field[i] for i in range(n) if m >> i & 1))
        for m in range(1 << n)
        if popcount(m) == k
    }


def matroid_bases(rng: random.Random, n: int) -> dict[int, Fraction]:
    """Spanning trees of a fixed multigraph with n edges, edges labelled at random.

    The graph is a cycle on max(3, (n + 3) // 2) vertices plus chords
    (i, i + 2), so every seed gets the same matroid up to relabelling.
    The bases of a matroid carry a strongly log-concave (Lorentzian)
    generating polynomial, and so does any positive external field on
    them, which is what the random edge weights are.
    """
    vertices = max(3, (n + 3) // 2)
    edges = [(i, (i + 1) % vertices) for i in range(vertices)]
    edges += [(i, (i + 2) % vertices) for i in range(n - vertices)]
    rng.shuffle(edges)
    field = [rng.randint(1, 4) for _ in range(n)]
    weights = {}
    for tree in itertools.combinations(range(n), vertices - 1):
        if _spans(vertices, [edges[e] for e in tree]):
            weights[sum(1 << e for e in tree)] = Fraction(math.prod(field[e] for e in tree))
    return weights


def _spans(vertices: int, edges: list[tuple[int, int]]) -> bool:
    parent = list(range(vertices))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
    return True


def tiny_product(rng: random.Random, n: int) -> dict[int, Fraction]:
    """A product measure whose last inclusion probability is about 1e-400.

    A valid strongly log-concave distribution.  Every weight on a set with
    the last element is below the smallest double, which the parent's
    float sampler turns into a zero polynomial and refuses with exit 2.
    """
    qs = [_prob(rng) for _ in range(n - 1)]
    qs.append(Fraction(rng.randint(1, 9), 10**400))
    return product_weights(n, qs)


def point_mass(rng: random.Random, n: int) -> dict[int, Fraction]:
    """Uniform rank 0 or rank n: a single subset, the one shape `lc` certifies exactly."""
    return {rng.choice((0, (1 << n) - 1)): Fraction(1)}


# ----- corpora ------------------------------------------------------------------

Builder = Callable[[random.Random, int, int], dict[int, Fraction]]

# class -> (builder(rng, n, k), fact).  The fact is `lattice` for nlc
# (True: log-submodular by construction, False: violation planted) and
# `log_concave` for lc and slc (True: strongly log-concave by construction).
BUILDERS: dict[str, tuple[Builder, bool | None]] = {
    "product": (lambda rng, n, k: product_measure(rng, n), True),
    "pairwise": (lambda rng, n, k: pairwise_penalty(rng, n), True),
    "rank": (weighted_rank, True),
    "truncated": (lambda rng, n, k: truncated_product(rng, n), True),
    "late": (lambda rng, n, k: planted_late(rng, n), False),
    "early": (lambda rng, n, k: planted_early(rng, n), False),
    "dense": (lambda rng, n, k: random_dense(rng, n), None),
    "zeros": (lambda rng, n, k: random_dense(rng, n, zero_share=0.3), None),
    "matroid": (lambda rng, n, k: matroid_bases(rng, n), True),
    "tiny": (lambda rng, n, k: tiny_product(rng, n), True),
    "point": (lambda rng, n, k: point_mass(rng, n), True),
}

# Per workload: the property checked and rows (class, n, copies, k); k is
# the rank of the rank classes.  Sizes keep one pass of each corpus to a
# few seconds at the parent commit; the seed changes only the random
# parameters inside a row.  Copies are arranged so that the ops at the
# median and at the tail rank (ten ops from the top) fall inside groups of
# like-cost ops, so those order statistics do not jump between seeds (see
# README.md).
PLANS: dict[str, tuple[str, tuple[tuple[str, int, int, int], ...]]] = {
    "check-nlc": ("nlc", (
        ("product", 6, 2, 0), ("pairwise", 6, 1, 0), ("rank", 6, 1, 3), ("truncated", 6, 1, 0),
        ("late", 6, 2, 0), ("early", 6, 1, 0),
        ("product", 7, 3, 0), ("pairwise", 7, 4, 0), ("rank", 7, 3, 3), ("truncated", 7, 3, 0),
        ("late", 7, 2, 0), ("early", 7, 1, 0),
        ("product", 8, 1, 0), ("pairwise", 8, 1, 0), ("rank", 8, 1, 4), ("truncated", 8, 1, 0),
        ("late", 8, 2, 0), ("early", 8, 1, 0),
        ("pairwise", 9, 1, 0), ("rank", 9, 1, 4), ("late", 9, 1, 0), ("early", 9, 1, 0),
        ("early", 10, 2, 0),
    )),
    "check-slc": ("slc", (
        ("rank", 4, 2, 2), ("matroid", 4, 2, 0), ("tiny", 4, 2, 0),
        ("product", 4, 4, 0), ("dense", 4, 8, 0), ("zeros", 4, 8, 0),
        ("matroid", 5, 8, 0), ("dense", 5, 1, 0), ("zeros", 5, 1, 0),
        ("matroid", 6, 1, 0),
        ("zeros", 7, 1, 0), ("rank", 7, 1, 3),
    )),
    "check-lc": ("lc", (
        ("point", 8, 2, 0), ("rank", 8, 10, 4), ("product", 8, 8, 0),
        ("point", 9, 2, 0), ("rank", 9, 10, 3), ("product", 9, 2, 0),
        ("product", 10, 2, 0), ("product", 11, 1, 0), ("rank", 11, 1, 2),
        ("point", 12, 2, 0), ("rank", 12, 1, 2),
    )),
}


def make_corpus(workload: str, seed: int) -> list[Case]:
    """The cases of one check workload; the same (workload, seed) gives the same cases."""
    if workload not in PLANS:
        raise ValueError(f"no corpus for workload {workload!r}")
    prop, plan = PLANS[workload]
    rng = random.Random(f"{workload}:{seed}")
    cases = []
    for cls, n, copies, k in plan:
        build, fact = BUILDERS[cls]
        for _ in range(copies):
            facts = {"lattice": fact} if prop == "nlc" else {"log_concave": bool(fact)}
            name = f"{len(cases):03d}-{cls}-n{n}"
            cases.append(Case(name, prop, cls, n, build(rng, n, k), **facts))
    return cases
