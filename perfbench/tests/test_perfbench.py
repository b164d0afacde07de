"""Tests of the benchmark's own machinery: corpus, oracle, checker, tracer.

Run with `python3 -m pytest perfbench/tests` from the repository root.
"""

from __future__ import annotations

import contextlib
import io
import re

import numpy as np
import pytest

import checks
import corpus
import run
import tracing
from slcheck import cli


def _files(workload: str, seed: int) -> list[str]:
    return [corpus.dumps_case(c) for c in corpus.make_corpus(workload, seed)]


@pytest.mark.parametrize("workload", sorted(corpus.PLANS))
def test_corpus_is_deterministic_per_seed(workload):
    assert _files(workload, 7) == _files(workload, 7)
    assert _files(workload, 7) != _files(workload, 8)


def test_corpus_facts_hold_for_the_oracle():
    for case in corpus.make_corpus("check-nlc", 3):
        first = checks.nlc_oracle(case.n, case.weights)
        assert (first is None) == case.lattice, case.name
        if case.cls == "late":
            assert first[0] >= 1 << (case.n - 1), case.name


def test_self_times_on_a_synthetic_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7].
    start = np.array([0.0, 1.0, 5.0, 6.0])
    end = np.array([10.0, 4.0, 9.0, 7.0])
    parent = np.array([-1, 0, 0, 2])
    assert tracing.self_times(start, end, parent).tolist() == [3.0, 3.0, 3.0, 1.0]


def test_inclusive_time_counts_recursion_once():
    tracer = tracing.Tracer()
    calls = []

    def fact(k):
        calls.append(k)
        return 1 if k == 0 else k * wrapped(k - 1)

    wrapped = tracer.wrap(tracer.name_id("fact"), fact, None)
    assert wrapped(3) == 6
    totals = tracer.totals()["fact"]
    a = tracer.arrays()
    assert totals["calls"] == 4
    assert totals["s"] == pytest.approx(a["end"][0] - a["start"][0])
    assert totals["self_s"] == pytest.approx(totals["s"])


def test_tail_has_ten_values_beyond():
    values = [float(v) for v in range(37)]
    pct, value = run.tail(values)
    assert pct == 72
    assert sum(v > value for v in values) == 10


def test_speed_log_scales_by_the_jobs_around_a_call():
    speed = run.SpeedLog()
    ref = run.REFERENCE_S
    speed.at = [0.0, 1.0, 2.0, 10.0]
    speed.took = [2 * ref, 2 * ref, 4 * ref, 100 * ref]
    speed.ended = [a + t for a, t in zip(speed.at, speed.took)]
    # A short call sees only the job just before it: at half speed, half the time.
    assert speed.scaled(1.0, 1.01) == pytest.approx(0.005)
    # A call of 0.5 s sees every job within 0.5 s of it: at 1.0 and 2.0.
    assert speed.scaled(1.2, 1.7) == pytest.approx(0.5 / 3)
    # Set-up goes by the run's median job.
    assert speed.run_scaled(0.3) == pytest.approx(0.1)


def test_speed_log_leaves_out_the_jobs_within_a_call():
    speed = run.SpeedLog()
    ref = run.REFERENCE_S
    speed.at = [0.0, 0.1, 0.2, 0.3]
    speed.took = [ref, 2 * ref, ref, ref]
    speed.ended = [a + t for a, t in zip(speed.at, speed.took)]
    start, end = speed.ended[0], speed.at[-1]
    assert speed.split(start, end) == [(start, 0.1), (speed.ended[1], 0.2),
                                       (speed.ended[2], 0.3)]
    raw, scaled = speed.timed(start, end)
    assert raw == pytest.approx(0.3 - 4 * ref)
    # Each stretch sees the jobs at its two ends: the first and second at 2/3 speed.
    first, second, third = (b - a for a, b in speed.split(start, end))
    assert scaled == pytest.approx(first / 1.5 + second / 1.5 + third)


def _call(argv: list[str]) -> checks.OpResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return checks.OpResult(code, out.getvalue(), err.getvalue())


def _case(workload: str, cls: str) -> corpus.Case:
    return next(c for c in corpus.make_corpus(workload, 1) if c.cls == cls)


def test_checker_accepts_then_flags_a_tampered_nlc_witness(tmp_path):
    case = _case("check-nlc", "late")
    (path,) = corpus.write_corpus([case], str(tmp_path))
    res = _call(["check", path, "nlc"])
    first = checks.nlc_oracle(*checks.read_weights(path))
    assert checks.check_nlc_op(case, path, res, first) == []

    # Swap the witness for a different pair with the same printed products.
    moved = re.sub(r"T = \{([\d,]*)\}", "T = {1}", res.stdout, count=1)
    assert checks.check_nlc_op(case, path, checks.OpResult(1, moved, ""), first)
    # Change one printed product.
    m = re.search(r"= (\d+)/(\d+) <", res.stdout)
    bumped = res.stdout.replace(m[0], f"= {int(m[1]) + 1}/{m[2]} <", 1)
    assert checks.check_nlc_op(case, path, checks.OpResult(1, bumped, ""), first)


def test_checker_flags_flipped_verdicts(tmp_path):
    nlc = _case("check-nlc", "product")
    slc = _case("check-slc", "product")
    nlc_path, slc_path = corpus.write_corpus([nlc, slc], str(tmp_path))

    res = _call(["check", nlc_path, "nlc"])
    assert checks.check_nlc_op(nlc, nlc_path, res, None) == []
    flipped = res.stdout.replace("verdict: HOLDS (ExhaustiveEnumeration)", "verdict: VIOLATED")
    assert checks.check_nlc_op(nlc, nlc_path, checks.OpResult(1, flipped, ""), None)

    res = _call(["check", slc_path, "slc"])
    assert checks.check_lc_op(slc, slc_path, res, None) == []
    flipped = res.stdout.replace("aggregate: NO VIOLATION FOUND", "aggregate: HOLDS")
    assert checks.check_lc_op(slc, slc_path, checks.OpResult(0, flipped, ""), None)
    kinds = checks.kinds_string("slc", res.stdout)
    assert checks.check_lc_op(slc, slc_path, res, {"exit": 0, "kinds": kinds}) == []
    # A recorded violation that the program no longer reports is a mismatch.
    recorded = {"exit": 1, "kinds": kinds.replace("n", "v", 1)}
    assert checks.check_lc_op(slc, slc_path, res, recorded)


def test_every_patched_binding_is_restored(tmp_path):
    import slcheck.family  # noqa: F401  (bind every module before listing sites)

    sites = {t.name: tracing._lookup_sites(t) for t in tracing.TARGETS}
    before = {(id(o), a): getattr(o, a) for s in sites.values() for o, a in s}
    assert len(sites["checkers.check_slc"]) >= 3
    case = _case("check-slc", "dense")
    (path,) = corpus.write_corpus([case], str(tmp_path))

    with tracing.Tracer() as tracer:
        assert _call(["check", path, "slc"]).code == 1
        assert _call(["sweep", "--b-max", "1", "--c-max", "1", "--step", "1/2",
                      "--samples", "20", "--out", str(tmp_path / "sweep")]).code == 0
    after = {(id(o), a): getattr(o, a) for s in sites.values() for o, a in s}
    assert after == before
    totals = tracer.totals()
    for name in ("cli.main", "family.sweep", "calculus.m_matrix", "poly.SparsePoly.mul",
                 "numpy.linalg.eigvalsh", "calculus.log_hessian"):
        assert totals[name]["calls"] > 0, name


def test_only_the_known_defect_may_be_refused():
    message = run.KNOWN_DEFECT[1]
    tiny = _case("check-slc", "tiny")
    dense = _case("check-slc", "dense")
    checker = run.Checker("check-slc", [run.Op([], tiny, None), run.Op([], dense, None)])
    checker.check(0, checks.OpResult(2, "", message + "\n"))
    assert (checker.failed, checker.correct) == (1, True)
    # The same refusal of an input outside the defect's class is wrong.
    checker.check(1, checks.OpResult(2, "", message + "\n"))
    assert (checker.failed, checker.correct) == (2, False)
    # So is any other refusal of a tiny input.
    checker = run.Checker("check-slc", [run.Op([], tiny, None)])
    checker.check(0, checks.OpResult(2, "", "error: something else\n"))
    assert (checker.failed, checker.correct) == (1, False)


def test_a_crashing_sweep_is_wrong(tmp_path):
    (op,) = run.prepare("sweep", 0, str(tmp_path))
    checker = run.Checker("sweep", [op])
    checker.check(0, checks.OpResult(-1, "", "Traceback ...\nValueError: boom\n"))
    assert (checker.attempted, checker.failed, checker.correct) == (1, 1, False)


def test_taps_sample_within_a_call_and_restore(tmp_path, monkeypatch):
    import slcheck.checkers
    import slcheck.family

    before = (slcheck.checkers.trivial_log_concavity, slcheck.family.check_slc)
    monkeypatch.setattr(run, "SAMPLE_S", 0.0)
    speed = run.SpeedLog()
    speed.sample()
    with run.Taps(speed) as taps:
        assert _call(["sweep", "--b-max", "1", "--c-max", "1", "--step", "1/2",
                      "--samples", "20", "--out", str(tmp_path / "sweep")]).code == 0
    assert (slcheck.checkers.trivial_log_concavity, slcheck.family.check_slc) == before
    # 9 cells of 8 derivative subsets each: one job after every subset.
    assert taps.counts[1] == 72 and 0 < taps.counts[0] <= 72
    assert len(speed.took) == 1 + 72
