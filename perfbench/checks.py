"""Correctness checks on the program's outputs, independent of its code.

Nothing here imports slcheck.  Inputs are read back from the files the
program was given, the lattice condition is decided by a brute-force
oracle over all 4^n ordered pairs, derivative triviality is recomputed from
coefficients, and sampled witnesses are re-evaluated with numpy.

Kinds, one letter per verdict, are what the expected-results files record:

    z c m a   holds, trivially log-concave: zero, constant, monomial, affine
    d         holds, diagonal dominance certificate
    h         holds, any other exact certificate (enumeration included)
    v         violated
    n         no violation found by sampling
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from corpus import Case, popcount

TRIVIAL_KINDS = "zcma"
HOLDS_KINDS = TRIVIAL_KINDS + "dh"

# The CLI's default relative NSD tolerance; runs do not override it.
TOLERANCE = 1e-9


@dataclass
class OpResult:
    """What one CLI call returned, as the checker sees it."""

    code: int
    stdout: str
    stderr: str


@dataclass
class Verdicts:
    """Parsed verdicts of one check call: one kind per derivative subset."""

    kinds: dict[int, str] = field(default_factory=dict)
    aggregate: str = ""
    witness_lines: dict[int, str] = field(default_factory=dict)


def read_weights(path: str) -> tuple[int, dict[int, Fraction]]:
    """Read a distribution file back as (n, mask -> weight)."""
    with open(path) as fh:
        doc = json.load(fh)
    weights = {}
    for key, value in doc["coefficients"].items():
        mask = 0
        for piece in key.split(",") if key else ():
            mask |= 1 << (int(piece) - 1)
        weights[mask] = Fraction(value)
    return doc["n"], weights


# ----- lattice condition --------------------------------------------------------


def nlc_oracle(n: int, weights: dict[int, Fraction]) -> tuple[int, int] | None:
    """The lexicographically first (S, T) with p(S) p(T) < p(S|T) p(S&T), or None.

    Brute force over all 4^n ordered pairs, comparable ones included, on
    integer weights (the rationals over their common denominator), one row
    of T values per S as numpy object arrays of Python integers.
    """
    size = 1 << n
    den = math.lcm(*(w.denominator for w in weights.values())) if weights else 1
    ints = [0] * size
    for m, w in weights.items():
        ints[m] = w.numerator * (den // w.denominator)
    w = np.array(ints, dtype=object)
    t = np.arange(size)
    for s in range(size):
        bad = np.flatnonzero(w[s] * w < w[s | t] * w[s & t])
        if bad.size:
            return s, int(bad[0])
    return None


_SET = r"\{([\d,]*)\}"
_NLC_WITNESS = re.compile(
    rf"^witness: S = {_SET}, T = {_SET}: p\(S\)\*p\(T\) = (\d+)/(\d+) < (\d+)/(\d+) "
    r"= p\(S\|T\)\*p\(S&T\)$",
    re.M,
)


def _mask(indices: str) -> int:
    return sum(1 << (int(i) - 1) for i in indices.split(",") if i)


def check_nlc_op(case: Case, path: str, out: OpResult, first: tuple[int, int] | None) -> list[str]:
    """Problems with one `check FILE nlc` call; `first` is the oracle's answer."""
    problems = []
    holds = "verdict: HOLDS" in out.stdout
    if first is None:
        if not holds or out.code != 0:
            problems.append(f"expected HOLDS with exit 0, got exit {out.code}")
        if case.lattice is False:
            problems.append("a planted violation was not found by the oracle")
        return problems
    if case.lattice:
        problems.append("the oracle found a violation in a log-submodular input")
    match = _NLC_WITNESS.search(out.stdout)
    if match is None or out.code != 1:
        return problems + [f"expected VIOLATED with a witness and exit 1, got exit {out.code}"]
    s, t = _mask(match[1]), _mask(match[2])
    if (s, t) != first:
        problems.append(f"witness ({s}, {t}) is not the first violating pair {first}")
    _, w = read_weights(path)
    zero = Fraction(0)
    lhs = w.get(s, zero) * w.get(t, zero)
    rhs = w.get(s | t, zero) * w.get(s & t, zero)
    printed_lhs = Fraction(int(match[3]), int(match[4]))
    printed_rhs = Fraction(int(match[5]), int(match[6]))
    if not (lhs == printed_lhs and rhs == printed_rhs and lhs < rhs):
        problems.append("witness products do not re-check exactly against the input file")
    return problems


# ----- log-concavity --------------------------------------------------------------

_HOLDS_NAMES = {
    "trivially log-concave: zero": "z",
    "trivially log-concave: constant": "c",
    "trivially log-concave: monomial": "m",
    "trivially log-concave: affine": "a",
    "diagonal dominance certificate": "d",
}
_SUBSET_LINE = re.compile(rf"^A = {_SET}: (.*)$", re.M)
_AGGREGATE = {"HOLDS": "h", "VIOLATED": "v", "NO VIOLATION FOUND": "n"}


def _kind(text: str) -> str:
    if text.startswith("holds ("):
        return _HOLDS_NAMES.get(text[len("holds (") : -1], "h")
    if text.startswith("VIOLATED"):
        return "v"
    return "n"


def parse_verdicts(prop: str, stdout: str) -> Verdicts:
    """Kinds per derivative subset (mask 0 only, for `lc`) and the aggregate kind."""
    out = Verdicts()
    if prop == "lc":
        match = re.search(r"^verdict: (HOLDS \((.*)\)|VIOLATED|NO VIOLATION FOUND)", stdout, re.M)
        if match:
            kind = _HOLDS_NAMES.get(match[2], "h") if match[2] else _AGGREGATE[match[1]]
            out.kinds[0] = out.aggregate = kind
            if kind == "v":
                out.witness_lines[0] = stdout
        return out
    for match in _SUBSET_LINE.finditer(stdout):
        mask = _mask(match[1])
        out.kinds[mask] = _kind(match[2])
        if out.kinds[mask] == "v":
            out.witness_lines[mask] = match[2]
    agg = re.search(r"^aggregate: (HOLDS|VIOLATED|NO VIOLATION FOUND)", stdout, re.M)
    out.aggregate = _AGGREGATE[agg[1]] if agg else ""
    return out


def derivative(n: int, weights: dict[int, Fraction], a: int) -> dict[int, Fraction]:
    """Coefficients of the derivative over the variables in mask a."""
    return {m ^ a: w for m, w in weights.items() if m & a == a and w != 0}


def trivial_kind(coeffs: dict[int, Fraction], prop: str) -> str | None:
    """The structural class the program must report before anything else.

    `slc` tries zero, constant, monomial and affine; `lc` short-circuits
    only the first three.
    """
    if not coeffs:
        return "z"
    if set(coeffs) == {0}:
        return "c"
    if len(coeffs) == 1:
        return "m"
    if prop == "slc" and all(popcount(m) <= 1 for m in coeffs):
        return "a"
    return None


_POINT = re.compile(r" at \(([^)]*)\): max log-Hessian eigenvalue")


def witness_rechecks(coeffs: dict[int, Fraction], n: int, line: str) -> bool:
    """Re-evaluate a sampled witness: the log-Hessian at its point is not NSD.

    The coefficients are rescaled exactly to a largest weight of 1 before
    conversion to floats, since the log-Hessian does not see scale.  The
    top eigenvalue must clear half the program's own threshold, which
    leaves room for a different summation order.
    """
    match = _POINT.search(line)
    if match is None:
        return False
    x = np.array([float(v) for v in match[1].split(",")], dtype=float)
    if x.shape != (n,) or np.any(x <= 0):
        return False
    top = max(coeffs.values())
    masks = list(coeffs)
    c = np.array([float(coeffs[m] / top) for m in masks])
    bits = np.array([[m >> i & 1 for i in range(n)] for m in masks], dtype=float)
    terms = c * np.prod(np.where(bits > 0, x, 1.0), axis=1)
    g = terms.sum()
    grad = (bits * terms[:, None]).sum(axis=0) / x
    pair = np.einsum("ki,kj,k->ij", bits, bits, terms) / np.outer(x, x)
    np.fill_diagonal(pair, 0.0)
    h = (g * pair - np.outer(grad, grad)) / (g * g)
    top_eig = float(np.linalg.eigvalsh(h)[-1])
    return top_eig > 0.5 * TOLERANCE * (1.0 + float(np.abs(h).max()))


def check_lc_op(case: Case, path: str, out: OpResult, recorded: dict | None) -> list[str]:
    """Problems with one `check FILE lc|slc` call.

    recorded is the expected-results entry for this input, if the
    expected-results file has one: {"exit": code, "kinds": one letter per
    derivative subset in mask order}.  A recorded 'n' may turn into an
    exact holds kind (a stronger verdict); any other difference is a
    mismatch.
    """
    n, weights = read_weights(path)
    got = parse_verdicts(case.prop, out.stdout)
    masks = [0] if case.prop == "lc" else list(range(1 << n))
    problems = []
    if sorted(got.kinds) != masks or not got.aggregate:
        return [f"could not read a verdict for every derivative subset (exit {out.code})"]
    for a in masks:
        coeffs = derivative(n, weights, a)
        kind = got.kinds[a]
        want = trivial_kind(coeffs, case.prop)
        if want is not None and kind != want:
            problems.append(f"A = {a}: expected trivial kind {want!r}, got {kind!r}")
        elif want is None and kind in TRIVIAL_KINDS:
            problems.append(f"A = {a}: kind {kind!r} on a nontrivial derivative")
        if kind == "v":
            if case.log_concave:
                problems.append(f"A = {a}: violation reported on a log-concave input")
            elif not witness_rechecks(coeffs, n, got.witness_lines[a]):
                problems.append(f"A = {a}: sampled witness does not re-check")
    kinds = [got.kinds[a] for a in masks]
    want_agg = "v" if "v" in kinds else ("h" if all(k in HOLDS_KINDS for k in kinds) else "n")
    if case.prop == "slc" and got.aggregate != want_agg:
        problems.append(f"aggregate {got.aggregate!r} does not follow from the subsets")
    if out.code != (1 if want_agg == "v" else 0):
        problems.append(f"exit code {out.code} does not match verdict {want_agg!r}")
    if recorded is not None and recorded["exit"] != 2:
        expected = recorded["kinds"]
        for a, (was, now) in enumerate(zip(expected, kinds)):
            if now != was and not (was == "n" and now in HOLDS_KINDS):
                problems.append(f"A = {a}: recorded kind {was!r}, got {now!r}")
        if recorded["exit"] != out.code and not problems:
            problems.append(f"recorded exit {recorded['exit']}, got {out.code}")
    return problems


def certified(prop: str, stdout: str) -> tuple[int, int]:
    """(exact holds verdicts, decided verdicts) among the derivative subsets of one call."""
    if prop == "nlc":
        return 1, 1
    kinds = parse_verdicts(prop, stdout).kinds.values()
    return sum(k in HOLDS_KINDS for k in kinds), len(kinds)


def kinds_string(prop: str, stdout: str) -> str:
    got = parse_verdicts(prop, stdout)
    return "".join(got.kinds[a] for a in sorted(got.kinds))


# ----- sweep ----------------------------------------------------------------------


def check_sweep(out: OpResult, out_dir: str, expected_dir: str) -> list[str]:
    """Problems with the default sweep's outputs.

    The nlc column must equal the closed form b^2 >= 4c on every cell, a
    cell satisfying the lattice condition may not show a sampled
    violation, and both boundary files must be byte-identical to the ones
    recorded for the default sweep.
    """
    problems = []
    if out.code != 0:
        problems.append(f"sweep exited {out.code}")
    rows = 0
    with open(f"{out_dir}/sweep_full.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            rows += 1
            b, c = Fraction(row["b"]), Fraction(row["c"])
            nlc, slc = row["nlc"] == "1", row["slc_no_violation"] == "1"
            if nlc != (b * b >= 4 * c):
                problems.append(f"nlc column wrong at b = {b}, c = {c}")
            if nlc and not slc:
                problems.append(f"containment fails at b = {b}, c = {c}")
    if rows != 81 * 81:
        problems.append(f"expected 6561 cells, found {rows}")
    for name in ("nlc_boundary.txt", "slc_boundary.txt"):
        with open(f"{out_dir}/{name}", "rb") as got, open(f"{expected_dir}/{name}", "rb") as want:
            if got.read() != want.read():
                problems.append(f"{name} differs from the recorded default sweep")
    return problems
