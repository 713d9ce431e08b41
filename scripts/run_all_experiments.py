#!/usr/bin/env python3
"""Run every experiment with its default configuration into one directory.

Usage:
    python scripts/run_all_experiments.py [outdir] [--seed N] [--svg]

Writes <outdir>/<experiment>.csv (+ .svg) per experiment and prints a
one-line summary each, followed by the name, value and bounds of every
failed check.  An experiment whose module raises a diagnostic prints
`<name> ERROR <message>` and the loop goes on to the next one.  Exit code
is 3 if any experiment raised, else 1 if any check failed, else 0.
"""

import argparse
import sys
import time

from fracstoch.config import EXPERIMENTS, parse_config
from fracstoch.experiments import run


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("outdir", nargs="?", default="results")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--svg", action="store_true")
    args = ap.parse_args()

    failures = errors = 0
    for name in EXPERIMENTS:
        flags = {
            "experiment": name,
            "seed": args.seed,
            "out_dir": args.outdir,
            "svg": args.svg or None,
        }
        if name == "mollifier_rates":
            flags["n_list"] = "8,16,32,64,128"
            flags["points"] = 16384
        if name == "variance_scaling":
            flags["n_list"] = "4,8,16,32"
        config = parse_config(flags=flags)
        t0 = time.time()
        try:
            report = run(config)
        except Exception as exc:  # a module diagnostic: report it, run the rest
            print(f"{name:20s} ERROR {exc}")
            errors += 1
            continue
        status = "ok" if report.passed else "FAILED CHECKS"
        print(f"{name:20s} {status:14s} {len(report.rows):4d} rows {time.time() - t0:6.2f}s")
        for c in report.checks:
            if not c.passed:
                print(f"    FAIL {c.name}  {c.detail}")
        failures += 0 if report.passed else 1
    return 3 if errors else 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
