"""Command line front end.

Three subcommands:

  check FILE {nlc,lc,slc}   run one property check on a distribution file
  repro-counterexample      replay the built-in counterexample end to end
  sweep                     grid sweep of the (b, c) family, emit tables

Exit codes: 0 when the property holds or no violation was found, 1 when a
violation was found (or a reproduction expectation failed), 2 for usage,
parse, or validation errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Sequence

from .checkers import (
    Holds,
    LogConcavityCertificate,
    SampleConfig,
    SlcReport,
    Verdict,
    Violated,
    check_log_concavity,
    check_nlc,
    check_slc,
    exit_code,
)
from .counterexample import run_reproduction
from .distfile import load_distribution
from .family import SweepConfig, emit_region_tables, sweep
from .poly import format_fraction, format_subset


@functools.cache  # parse_args keeps no state, so one parser serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slcheck",
        description="Check log-submodularity and strong log-concavity of subset distributions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="check one property of a distribution file")
    p_check.add_argument("file", help="JSON distribution file")
    p_check.add_argument(
        "property",
        choices=("nlc", "lc", "slc"),
        help="nlc: exact lattice condition; lc: log-concavity of g, exact for a "
        "product of affine factors and sampled otherwise; slc: every derivative subset",
    )
    p_check.add_argument(
        "--samples", type=int, default=SampleConfig.points, help="random points per polynomial"
    )
    p_check.add_argument("--seed", type=int, default=SampleConfig.seed)
    p_check.add_argument(
        "--tolerance", type=float, default=SampleConfig.tolerance, help="relative NSD tolerance"
    )
    p_check.add_argument(
        "--box", nargs=2, type=float, default=SampleConfig.box, metavar=("LO", "HI")
    )
    p_check.add_argument(
        "--normalize", action="store_true", help="rescale weights to sum to one before checking"
    )
    p_check.add_argument("--report", help="also write a JSON report to this path")
    p_check.set_defaults(func=cmd_check)

    p_repro = sub.add_parser(
        "repro-counterexample",
        help="verify the built-in strongly log-concave, non-log-submodular distribution",
    )
    p_repro.set_defaults(func=cmd_repro)

    p_sweep = sub.add_parser("sweep", help="sweep the (b, c) family and write region tables")
    p_sweep.add_argument("--b-max", default=SweepConfig.b_max, help="exact rational, e.g. 4 or 7/2")
    p_sweep.add_argument("--c-max", default=SweepConfig.c_max)
    p_sweep.add_argument("--step", default=SweepConfig.step, help="exact rational grid step")
    p_sweep.add_argument(
        "--samples", type=int, default=SweepConfig.samples_per_cell, help="random points per cell"
    )
    p_sweep.add_argument("--seed", type=int, default=SweepConfig.seed)
    p_sweep.add_argument("--out", default="sweep_out", help="output directory")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code is None:
            return 0
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


# ----- check ---------------------------------------------------------------


def cmd_check(args: argparse.Namespace) -> int:
    p = load_distribution(args.file)
    if args.normalize:
        p = p.normalize()
    cfg = SampleConfig(
        points=args.samples,
        box=args.box,
        seed=args.seed,
        tolerance=args.tolerance,
    )
    lines = [
        f"input: {args.file} (n = {p.n}, {len(p.nonzero_masks)} nonzero weights, "
        f"sum = {format_fraction(p.coeff_sum())})",
        f"property: {args.property}",
    ]
    report: dict = {"property": args.property, "n": p.n}
    if args.property == "slc":
        slc = check_slc(p, cfg)
        lines += _render_slc(slc)
        report.update(_jsonable_slc(slc))
        code = exit_code(slc.aggregate)
    else:
        verdict = check_nlc(p) if args.property == "nlc" else check_log_concavity(p, cfg)
        lines += _render_verdict(verdict)
        report.update(_jsonable_verdict(verdict))
        code = exit_code(verdict)
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print("\n".join(lines))
    return code


def _render_verdict(v: Verdict) -> list[str]:
    if isinstance(v, Holds):
        return [f"verdict: HOLDS ({_certificate_name(v.certificate)})"]
    if isinstance(v, Violated):
        return ["verdict: VIOLATED", f"witness: {v.witness.describe()}"]
    s = v.stats
    return [
        "verdict: NO VIOLATION FOUND",
        f"points tested: {s.points_tested}, closest margin: {s.min_margin:.3e}, "
        f"tolerance: {s.tolerance!r}, seed: {s.seed}",
    ]


_CERTIFICATE_NAMES = {
    "dominance": "diagonal dominance certificate",
    "coefficient": "coefficient matrix certificate",
    "factor": "product of affine factors",
}


def _certificate_name(cert) -> str:
    if isinstance(cert, LogConcavityCertificate):
        return _CERTIFICATE_NAMES.get(cert.kind, f"trivially log-concave: {cert.kind}")
    return type(cert).__name__


def _render_slc(slc: SlcReport) -> list[str]:
    lines = []
    for a in sorted(slc.subsets):
        v = slc.subsets[a]
        label = f"A = {format_subset(a)}"
        if isinstance(v, Holds):
            lines.append(f"{label}: holds ({_certificate_name(v.certificate)})")
        elif isinstance(v, Violated):
            lines.append(f"{label}: VIOLATED, {v.witness.describe()}")
        else:
            lines.append(
                f"{label}: no violation in {v.stats.points_tested} points "
                f"(closest margin {v.stats.min_margin:.3e})"
            )
    agg = slc.aggregate
    if isinstance(agg, Holds):
        lines.append("aggregate: HOLDS (every derivative subset carries an exact certificate)")
    elif isinstance(agg, Violated):
        lines.append("aggregate: VIOLATED")
    else:
        lines.append(
            f"aggregate: NO VIOLATION FOUND ({agg.stats.points_tested} points over "
            f"{agg.stats.derivatives_tested} derivative subsets)"
        )
    return lines


def _jsonable_verdict(v: Verdict) -> dict:
    if isinstance(v, Holds):
        return {"verdict": "holds", "certificate": _certificate_name(v.certificate)}
    if isinstance(v, Violated):
        w = v.witness
        if hasattr(w, "s_mask"):
            witness = {
                "s": format_subset(w.s_mask),
                "t": format_subset(w.t_mask),
                "lhs": format_fraction(w.lhs),
                "rhs": format_fraction(w.rhs),
            }
        else:
            witness = {
                "subset": format_subset(w.subset_mask),
                "point": list(w.point),
                "max_eigenvalue": w.max_eigenvalue,
                "threshold": w.threshold,
                "vector": list(w.vector),
            }
        return {"verdict": "violated", "witness": witness}
    s = v.stats
    margin = s.min_margin  # inf when no point was tested, which JSON cannot hold
    return {
        "verdict": "no_violation_found",
        "stats": {
            "points_tested": s.points_tested,
            "derivatives_tested": s.derivatives_tested,
            "tolerance": s.tolerance,
            "seed": str(s.seed),
            "min_margin": margin if math.isfinite(margin) else None,
        },
    }


def _jsonable_slc(slc: SlcReport) -> dict:
    return {
        "subsets": {format_subset(a): _jsonable_verdict(v) for a, v in sorted(slc.subsets.items())},
        "aggregate": _jsonable_verdict(slc.aggregate),
    }


# ----- repro -----------------------------------------------------------------


def cmd_repro(args: argparse.Namespace) -> int:
    report = run_reproduction()
    print("reproduction of the built-in counterexample")
    for line in report.lines():
        print(line)
    print("result:", "all expectations met" if report.passed else "EXPECTATIONS FAILED")
    return 0 if report.passed else 1


# ----- sweep -----------------------------------------------------------------


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = SweepConfig(
        b_max=args.b_max,
        c_max=args.c_max,
        step=args.step,
        samples_per_cell=args.samples,
        seed=args.seed,
    )
    os.makedirs(args.out, exist_ok=True)  # an unwritable --out fails before the sweep runs
    result = sweep(cfg)
    nlc_path, slc_path, csv_path = emit_region_tables(result, args.out)
    failures = result.containment_failures()
    print(f"cells: {len(result.cells)}")
    print(f"lattice condition holds: {result.count_nlc()}")
    print(f"no log-concavity violation: {result.count_slc()}")
    print(f"exact certificates: {result.count_certified()}")
    print(
        "containment (lattice true implies no violation): "
        + ("ok" if not failures else f"FAILED at {len(failures)} cells")
    )
    print(f"wrote: {nlc_path}, {slc_path}, {csv_path}")
    return 0


if __name__ == "__main__":
    entrypoint()
