#!/usr/bin/env python3
"""Benchmark for slcheck: four workloads through the public CLI, in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from `src/`.
Workloads (see README.md for why each one exists):

    sweep       the default `slcheck sweep`, one call per pass
    check-nlc   a seeded corpus of `slcheck check FILE nlc` calls, n = 6..10
    check-slc   a seeded corpus of `slcheck check FILE slc` calls, n = 4..7
    check-lc    a seeded corpus of `slcheck check FILE lc` calls, n = 8..12

One single-threaded client issues one call at a time, a closed loop.  A
run repeats whole passes over the workload while the next pass still fits
in --seconds (always at least one), and every output is checked.  Op
times are scaled to a fixed machine speed (see SpeedLog).  With
--trace 0 it prints the end-to-end metrics; with --trace 1 it runs one
untraced and one traced pass and prints the per-layer metrics.  The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import functools
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".perfbench")
EXPECTED_DIR = os.path.join(HERE, "expected")
WORKLOADS = ("sweep", "check-nlc", "check-slc", "check-lc")
# Set-up children run this many times before the passes and again after
# them, so that setup_s sees the machine over the same span as the run's
# reference jobs, by which it is scaled.
SETUP_REPEATS = 5
# The tail is the highest percentile with at least this many ops beyond it.
TAIL_BEYOND = 10

sys.path.insert(0, HERE)

import corpus  # noqa: E402


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> int:
    """Cap the BLAS thread count at nproc; must run before numpy is imported."""
    cores = nproc()
    try:
        wanted = int(os.environ.get("OPENBLAS_NUM_THREADS", cores))
    except ValueError:
        wanted = cores
    threads = max(1, min(wanted, cores))
    os.environ["OPENBLAS_NUM_THREADS"] = str(threads)
    return threads


def import_program():
    """Import slcheck from this checkout's src/ and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import slcheck.cli

    if not os.path.abspath(slcheck.cli.__file__).startswith(src + os.sep):
        raise ImportError(f"slcheck was imported from {slcheck.cli.__file__}, not from {src}")
    return slcheck.cli


# ----- workloads -------------------------------------------------------------------


@dataclass
class Op:
    """One CLI call: its arguments and, for check workloads, its input case."""

    argv: list[str]
    case: corpus.Case | None = None
    path: str | None = None


def prepare(workload: str, seed: int, directory: str) -> list[Op]:
    """Generate and write the workload's inputs; return its ops in order.

    The sweep takes no input files: it is always the default sweep, so its
    boundary files can be compared byte for byte with the recorded ones.
    """
    if workload == "sweep":
        out = os.path.join(directory, "sweep_out")
        return [Op(["sweep", "--out", out], path=out)]
    cases = corpus.make_corpus(workload, seed)
    paths = corpus.write_corpus(cases, os.path.join(directory, "inputs"))
    return [Op(["check", p, c.prop], c, p) for c, p in zip(cases, paths)]


def measure_setup(workload: str, seed: int, directory: str, speed: SpeedLog) -> list[float]:
    """Seconds from starting a fresh interpreter to a written corpus, several times.

    Each repeat is a child process that imports the program and generates
    and writes the workload's inputs, which is everything a run does
    before its first timed op.  The reference job runs before each child
    and after the last; the times are returned as measured.
    """
    times = []
    for k in range(SETUP_REPEATS):
        target = os.path.join(directory, f"setup{k}")
        argv = [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload",
                workload, "--seed", str(seed), "--workdir", target]
        speed.sample()
        start = time.perf_counter()
        done = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=120)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"set-up child failed: {done.stderr.decode(errors='replace')}")
        shutil.rmtree(target, ignore_errors=True)
    speed.sample()
    return times


# ----- machine speed -----------------------------------------------------------------

# What the reference job takes on the machine the bounds were set on (see
# README.md); reported times are seconds on a machine where it takes this long.
REFERENCE_S = 0.004
WINDOW_MIN_S = 0.05


@functools.cache
def _reference_inputs():
    import numpy as np

    fractions = [Fraction(3 * k + 1, 7 * k + 5) for k in range(64)]
    m = np.random.default_rng(0).random((64, 6, 6))
    return fractions, np.linspace(0.1, 1.0, 1 << 14), m + m.transpose(0, 2, 1)


def reference_job() -> float:
    """Seconds a fixed job takes now: the machine's speed at this moment.

    The job mixes the program's three kinds of work: Python integer
    arithmetic, Fraction products, and numpy array work with a batched
    eigvalsh.
    """
    import numpy as np

    fractions, x, m = _reference_inputs()
    start = time.perf_counter()
    acc = 0
    for i in range(10000):
        acc += i * i % 7
    for a in fractions:
        for b in fractions[:4]:
            acc += a * b < b * b
    y = x
    for _ in range(12):
        y = np.sqrt(y * x + 1.0)
    np.linalg.eigvalsh(m)
    return time.perf_counter() - start


class SpeedLog:
    """The reference job's times through a run, to scale timings to a fixed speed.

    The shared machine changes speed by up to 1.6x, in phases of a second
    and in states that last minutes, and CPU time moves with wall time.  A
    run cannot outlast such a state, so each timing is scaled to the speed
    at which the reference job takes REFERENCE_S.  The job runs before
    every timed call and every set-up child, and within a call between
    derivative subsets (see Taps); time spent in a job is never counted.  A
    stretch of program time that took d seconds is scaled by the median
    job time within max(d, WINDOW_MIN_S) of its start and end: a short
    stretch sees the job just before and just after it, a longer one the
    speed of the calls around it.  Set-up children are scaled by the
    job times of the whole run.
    """

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []
        self.ended: list[float] = []
        reference_job()  # the first run pays for numpy's and LAPACK's warm-up

    def sample(self) -> None:
        self.at.append(time.perf_counter())
        self.took.append(reference_job())
        self.ended.append(time.perf_counter())

    def split(self, start: float, end: float) -> list[tuple[float, float]]:
        """The stretches of start..end that lie outside the jobs run within it."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_left(self.at, end)
        edges = [start]
        for k in range(lo, hi):
            edges += [self.at[k], min(self.ended[k], end)]
        edges.append(end)
        return list(zip(edges[::2], edges[1::2]))

    def timed(self, start: float, end: float) -> tuple[float, float]:
        """(as measured, at the reference speed) for a call from start to end, jobs left out."""
        parts = self.split(start, end)
        return sum(b - a for a, b in parts), sum(self.scaled(a, b) for a, b in parts)

    def scaled(self, start: float, end: float) -> float:
        """The time from start to end, at the reference speed."""
        reach = max(end - start, WINDOW_MIN_S)
        lo = bisect.bisect_left(self.at, start - reach)
        hi = bisect.bisect_right(self.at, end + reach)
        lo = min(lo, bisect.bisect_right(self.at, start) - 1)  # the job just before
        return (end - start) * REFERENCE_S / statistics.median(self.took[lo:hi])

    def run_scaled(self, seconds: float) -> float:
        """`seconds` at the reference speed, by the whole run's job times.

        Uses the mean of the middle half of the job times: within a run they
        fall into two bands, and their median jumps between them.
        """
        ordered = sorted(self.took)
        q = len(ordered) // 4
        return seconds * REFERENCE_S / statistics.mean(ordered[q:len(ordered) - q])


# ----- running ops -------------------------------------------------------------------


def run_op(cli, op: Op):
    """Call the CLI entry once; returns (seconds, OpResult)."""
    from checks import OpResult

    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op.argv)
    except Exception:  # a crash is a failed op, recorded with its traceback
        code = -1
        err.write(traceback.format_exc())
    return time.perf_counter() - start, OpResult(code, out.getvalue(), err.getvalue())


# The known defect: valid inputs with weights near 1e-400 are refused with
# exit 2 and this message.  Any other refusal is a wrong result.
KNOWN_DEFECT = (2, "error: polynomial is not positive at every sample point")


def known_defect(case: corpus.Case | None, code: int, last_line: str) -> bool:
    """Whether a refusal is the known defect: a `tiny` input, its exit code and message."""
    return case is not None and case.cls == "tiny" and (code, last_line) == KNOWN_DEFECT


class Checker:
    """Checks every op's output; identical outputs of one op reuse the verdict.

    Every op that is refused (exit 2, or an exception) or answers wrongly
    fails.  Only the known defect's refusals leave the run correct; any
    other refusal, like any wrong output, makes it incorrect.
    """

    def __init__(self, workload: str, ops: list[Op]):
        self.workload = workload
        self.ops = ops
        self.recorded = load_recorded(workload)
        self.covered: set[int] = set()
        self._oracle: dict[int, object] = {}
        self._memo: dict[tuple, list[str]] = {}
        self.attempted = 0
        self.defect = 0
        self.wrong = 0
        self.messages: dict[str, int] = {}
        self.certified = [0, 0]

    def check(self, i: int, res) -> None:
        import checks

        op = self.ops[i]
        self.attempted += 1
        label = op.case.name if op.case else self.workload
        if res.code not in (0, 1):
            last = (res.stderr.strip().splitlines() or [""])[-1]
            if known_defect(op.case, res.code, last):
                self.defect += 1
                self._note(f"{label}: known defect, exit {res.code}: {last}")
            else:
                self.wrong += 1
                self._note(f"{label}: refused, exit {res.code}: {last}")
            return
        if op.case is None:
            problems = checks.check_sweep(res, op.path, os.path.join(EXPECTED_DIR, "sweep"))
        else:
            key = (i, res.code, res.stdout)
            if key not in self._memo:
                self._memo[key] = self._check_case(i, op, res)
            problems = self._memo[key]
            held, decided = checks.certified(op.case.prop, res.stdout)
            self.certified[0] += held
            self.certified[1] += decided
        if problems:
            self.wrong += 1
            for p in problems:
                self._note(f"{label}: {p}")

    def _check_case(self, i: int, op: Op, res) -> list[str]:
        import checks

        if op.case.prop == "nlc":
            if i not in self._oracle:
                self._oracle[i] = checks.nlc_oracle(*checks.read_weights(op.path))
            return checks.check_nlc_op(op.case, op.path, res, self._oracle[i])
        entry = None
        if self.recorded is not None:
            entry = self.recorded.get(input_digest(op.path))
        if entry is not None:
            self.covered.add(i)
        return checks.check_lc_op(op.case, op.path, res, entry)

    def _note(self, message: str) -> None:
        self.messages[message] = self.messages.get(message, 0) + 1

    @property
    def failed(self) -> int:
        return self.defect + self.wrong

    @property
    def correct(self) -> bool:
        return self.wrong == 0


def input_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def load_recorded(workload: str) -> dict | None:
    path = os.path.join(EXPECTED_DIR, f"{workload}.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)["inputs"]


# Within a call, the reference job runs after the first derivative subset
# that ends this long after the last job: about 3% of the call's time.
SAMPLE_S = 0.1


class Taps:
    """Two read-only wrappers around program functions, applied from outside.

    `slcheck.checkers.trivial_log_concavity` runs first on every derivative
    subset, in the sweep and in `check FILE slc`.  After it, the reference
    job runs whenever SAMPLE_S has passed since the last one, so a long
    call (the 20-second sweep, an n = 7 input of `check-slc`) is scaled by
    the speed during it; SpeedLog.timed leaves the jobs' own time out.

    `slcheck.family.check_slc` runs once per sweep cell.  The sweep prints
    no per-subset verdicts, so its wrapper counts the exact Holds verdicts
    among the subsets of each result.
    """

    def __init__(self, speed: SpeedLog) -> None:
        self.speed = speed
        self.counts = [0, 0]
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> Taps:
        import slcheck.checkers as checkers
        import slcheck.family as family

        trivial, check_slc, counts, speed = (checkers.trivial_log_concavity, family.check_slc,
                                             self.counts, self.speed)

        def tapped_trivial(*args, **kwargs):
            result = trivial(*args, **kwargs)
            if time.perf_counter() - speed.ended[-1] >= SAMPLE_S:
                speed.sample()
            return result

        def tapped_check_slc(*args, **kwargs):
            report = check_slc(*args, **kwargs)
            for verdict in report.subsets.values():
                counts[0] += type(verdict).__name__ == "Holds"
            counts[1] += len(report.subsets)
            return report

        self._saved = [(checkers, "trivial_log_concavity", trivial),
                       (family, "check_slc", check_slc)]
        checkers.trivial_log_concavity = tapped_trivial
        family.check_slc = tapped_check_slc
        return self

    def __exit__(self, *exc) -> None:
        for module, name, original in self._saved:
            setattr(module, name, original)


# ----- measuring ---------------------------------------------------------------------


def run_passes(cli, ops: list[Op], checker: Checker, seconds: float, speed: SpeedLog):
    """Whole passes over ops while the next one still fits in `seconds`.

    Returns each op's durations, one per pass, as measured and at the
    reference speed.  The reference job and the checks run between ops,
    outside the timed calls; jobs run within a call are left out of it.
    """
    spans: list[list[tuple[float, float]]] = [[] for _ in ops]
    pass_seconds: list[float] = []
    start = time.perf_counter()
    while not pass_seconds or (
        time.perf_counter() - start + statistics.median(pass_seconds) <= seconds
    ):
        pass_start = time.perf_counter()
        for i, op in enumerate(ops):
            speed.sample()
            dt, res = run_op(cli, op)
            end = time.perf_counter()
            spans[i].append((end - dt, end))
            checker.check(i, res)
        pass_seconds.append(time.perf_counter() - pass_start)
    speed.sample()
    timed = [[speed.timed(a, b) for a, b in op_spans] for op_spans in spans]
    return [[t[0] for t in op] for op in timed], [[t[1] for t in op] for op in timed]


def tail(values: list[float]) -> tuple[int, float]:
    """(percentile, value): the highest whole percentile with TAIL_BEYOND values beyond it.

    Uses the nearest-rank definition.  With too few values for any tail,
    reports the maximum as percentile 100.
    """
    k = len(values)
    ordered = sorted(values)
    if k <= TAIL_BEYOND:
        return 100, ordered[-1]
    pct = 100 * (k - TAIL_BEYOND) // k
    return pct, ordered[math.ceil(pct * k / 100) - 1]


def end_to_end(cli, workload: str, ops: list[Op], checker: Checker, seconds: float,
               set_up, speed: SpeedLog):
    """Untraced run: the end-to-end metrics and the lines that explain them.

    set_up() measures the set-up children; it runs before and after the passes.
    """
    setup = set_up()
    with Taps(speed) as taps:
        raw, times = run_passes(cli, ops, checker, seconds, speed)
    setup += set_up()
    held, decided = taps.counts if workload == "sweep" else checker.certified
    per_op = [statistics.median(t) for t in times]
    raw_per_op = [statistics.median(t) for t in raw]
    passes = len(times[0])
    pct, tail_value = tail(per_op)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (speed.run_scaled(statistics.median(setup)), "s"),
        "wall_s": (sum(per_op), "s"),
        "op_s.p50": (statistics.median(per_op), "s"),
        "op_s.tail": (tail_value, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "certified_ratio": (held / decided if decided else 0.0, "ratio"),
    }
    k = len(ops)
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters; "
                   f"{statistics.median(setup):.4f} s as measured",
        "wall_s": f"one pass of {k} ops, each op the median of {passes} passes; "
                  f"{sum(raw_per_op):.4f} s as measured",
        "op_s.p50": f"p50 over {k} per-op medians; "
                    f"{statistics.median(raw_per_op):.4f} s as measured",
        "op_s.tail": f"p{pct} over {k} per-op medians, {k - math.ceil(pct * k / 100)} beyond; "
                     f"{tail(raw_per_op)[1]:.4f} s as measured",
        "peak_rss_mb": "ru_maxrss of the run's process",
        "certified_ratio": f"{held} exact holds of {decided} decided derivative subsets",
    }
    return metrics, notes


# Per-layer metric names, units and which way is better.  README.md says
# which end-to-end metric each should move, on which workload.
SPANS = {
    "cli.main": ("calls", "s", "self_s"),
    "distfile.load_distribution": ("calls", "s"),
    "family.sweep": ("s", "self_s"),
    "family.make_family": ("calls", "s"),
    "family.emit_region_tables": ("s",),
    "checkers.check_nlc": ("calls", "s"),
    "checkers.check_slc": ("calls", "s", "self_s"),
    "checkers.trivial_log_concavity": ("calls",),
    "checkers.certify_log_concavity_dominance": ("calls", "s"),
    "checkers.check_log_concavity_sampled": ("calls", "s", "self_s"),
    "calculus.m_matrix": ("calls", "s", "self_s"),
    "poly.SparsePoly.mul": ("calls", "s", "self_s"),
    "poly.sparse_from_subset": ("calls", "s"),
    "calculus.log_hessian_many": ("calls", "s", "self_s"),
    "calculus.eval_many": ("calls", "s"),
    "poly.SubsetPoly.derivative_subset": ("calls", "s"),
    "poly.SubsetPoly.derivative": ("calls", "s"),
    "numpy.linalg.eigvalsh": ("calls", "s"),
    "calculus.log_hessian": ("calls", "s"),
    "linalg.eigen_sym": ("calls", "s"),
}
COUNTS = (
    ("checkers.check_nlc.pairs", "count", "lower"),
    ("checkers.check_slc.derivatives", "count", "lower"),
    ("checkers.trivial_log_concavity.hits", "count", "higher"),
    ("checkers.certify_log_concavity_dominance.hit_ratio", "ratio", "higher"),
    ("checkers.check_log_concavity_sampled.points", "count", "lower"),
    ("checkers.check_log_concavity_sampled.violations", "count", "higher"),
    ("checkers.check_log_concavity_sampled.confirm_ratio", "ratio", "higher"),
    ("calculus.log_hessian_many.points", "count", "lower"),
    ("calculus.eval_many.terms", "count", "lower"),
    ("numpy.linalg.eigvalsh.matrices", "count", "lower"),
    ("distfile.load_distribution.bytes", "bytes", "lower"),
    ("family.emit_region_tables.bytes", "bytes", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)
_UNITS = {"calls": ("count", "lower"), "s": ("s", "lower"), "self_s": ("s", "lower")}


def per_layer_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) for every per-layer metric, in report order."""
    specs = [(f"{span}.{m}", *_UNITS[m]) for span, kinds in SPANS.items() for m in kinds]
    return specs + list(COUNTS)


def traced(cli, workload: str, ops: list[Op], checker: Checker):
    """One untraced pass, then one traced pass: the per-layer metrics."""
    from tracing import Tracer

    plain = traced_time = 0.0
    for i, op in enumerate(ops):
        dt, res = run_op(cli, op)
        plain += dt
        checker.check(i, res)
    tracer = Tracer()
    results = []
    with tracer:
        for i, op in enumerate(ops):
            tracer.op_id = i
            dt, res = run_op(cli, op)
            traced_time += dt
            results.append(res)
    # Checked after the tracer is gone, so the checks' own numpy calls are not traced.
    for i, res in enumerate(results):
        checker.check(i, res)
    os.makedirs(WORK_DIR, exist_ok=True)
    tracer.save(os.path.join(WORK_DIR, f"trace-{workload}.npz"))

    totals = tracer.totals()
    counts = tracer.counts
    values = {}
    for name, unit, _ in per_layer_specs():
        span, _, metric = name.rpartition(".")
        if metric in _UNITS:
            values[name] = (totals.get(span, {}).get(metric, 0), unit)
        else:
            values[name] = (counts.get(name, 0), unit)
    dom = totals.get("checkers.certify_log_concavity_dominance", {}).get("calls", 0)
    values["checkers.certify_log_concavity_dominance.hit_ratio"] = (
        counts.get("checkers.certify_log_concavity_dominance.hits", 0) / dom if dom else 0.0,
        "ratio",
    )
    confirms = counts.get("checkers.check_log_concavity_sampled.log_hessian_calls", 0)
    values["checkers.check_log_concavity_sampled.confirm_ratio"] = (
        counts.get("checkers.check_log_concavity_sampled.violations", 0) / confirms
        if confirms else 0.0,
        "ratio",
    )
    values["trace.overhead_ratio"] = (traced_time / plain - 1.0, "ratio")
    selfs = sorted(((t["self_s"], s) for s, t in totals.items()), reverse=True)
    notes = [f"traced pass {traced_time:.3f} s, untraced pass {plain:.3f} s, "
             f"{len(tracer.start)} spans"]
    notes += [f"largest self time: {s} {v:.3f} s" for v, s in selfs[:6]]
    notes += [f"{name}: {value:.6g} {unit}" for name, (value, unit) in values.items()]
    return values, notes


# ----- entry point ---------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def environment(blas_threads: int) -> str:
    import numpy

    return (f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"nproc {nproc()}, blas threads {blas_threads} (OPENBLAS_NUM_THREADS)")


def main(argv=None) -> int:
    args = parse_args(argv)
    blas_threads = cap_blas_threads()
    try:
        cli = import_program()
    except ImportError as exc:
        print(f"error: cannot import slcheck from {ROOT}/src: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        prepare(args.workload, args.seed, args.workdir)
        return 0

    os.makedirs(WORK_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        speed = SpeedLog()
        ops = prepare(args.workload, args.seed, tmp)
        checker = Checker(args.workload, ops)
        if args.trace:
            metrics, lines = traced(cli, args.workload, ops, checker)
        else:
            set_up = functools.partial(measure_setup, args.workload, args.seed, tmp, speed)
            metrics, notes = end_to_end(cli, args.workload, ops, checker, args.seconds, set_up,
                                        speed)
            lines = [f"{name}: {value:.6g} {unit} ({notes[name]})"
                     for name, (value, unit) in metrics.items()]

    print(f"env: {environment(blas_threads)}")
    print(f"workload: {args.workload}, seed {args.seed}, {len(ops)} ops per pass, "
          f"{checker.attempted} ops attempted")
    print(f"fail_ratio: {checker.failed}/{checker.attempted} "
          f"({checker.defect} known defect, {checker.wrong} wrong or refused)")
    if checker.recorded is not None:
        print(f"expected-results file covers {len(checker.covered)} of {len(ops)} inputs")
    for message, count in sorted(checker.messages.items()):
        print(f"failure ({count}x): {message}")
    if speed.took:
        print(f"reference job: median {statistics.median(speed.took) * 1e3:.3f} ms over "
              f"{len(speed.took)} runs; times are scaled to {REFERENCE_S * 1e3:g} ms")
    for line in lines:
        print(line)
    result = {
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
