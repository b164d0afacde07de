#!/usr/bin/env python3
"""Write the expected-results files from the program in this checkout.

    python3 perfbench/record.py

For the `check-slc` and `check-lc` corpora of seeds 0..31, runs each call
once and stores, per input file (keyed by a sha256 prefix of its bytes),
the exit code and one verdict kind per derivative subset in
expected/<workload>.json.  It also runs the default sweep and stores its
two boundary files under expected/sweep/.  Float fields are not
recorded.  The `check-nlc` expectations need no file: the brute-force
oracle in checks.py computes them on every run.

Record only from a commit whose verdicts are trusted; benchmark runs
compare against these files.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run

SEEDS = range(0, 32)


def main() -> int:
    run.cap_blas_threads()
    cli = run.import_program()
    import checks

    os.makedirs(run.WORK_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as tmp:
        for workload in ("check-slc", "check-lc"):
            inputs = {}
            for seed in SEEDS:
                for op in run.prepare(workload, seed, os.path.join(tmp, f"{workload}-{seed}")):
                    _, res = run.run_op(cli, op)
                    inputs[run.input_digest(op.path)] = {
                        "exit": res.code,
                        "kinds": checks.kinds_string(op.case.prop, res.stdout),
                    }
                print(f"{workload} seed {seed}: {len(inputs)} inputs", file=sys.stderr)
            doc = {"seeds": f"{SEEDS[0]}-{SEEDS[-1]}", "inputs": inputs}
            with open(os.path.join(run.EXPECTED_DIR, f"{workload}.json"), "w") as fh:
                json.dump(doc, fh, indent=0, sort_keys=True)
                fh.write("\n")
        (op,) = run.prepare("sweep", 0, tmp)
        _, res = run.run_op(cli, op)
        if res.code != 0:
            print(f"error: sweep exited {res.code}: {res.stderr}", file=sys.stderr)
            return 1
        target = os.path.join(run.EXPECTED_DIR, "sweep")
        os.makedirs(target, exist_ok=True)
        for name in ("nlc_boundary.txt", "slc_boundary.txt"):
            shutil.copyfile(os.path.join(op.path, name), os.path.join(target, name))
    return 0


if __name__ == "__main__":
    sys.exit(main())
