#!/usr/bin/env python3
"""Run every experiment into one directory, at the defaults with two overrides.

``mollifier_rates`` runs n = 8..128 on 16384 points, and
``variance_scaling`` runs n = 4..32; every other experiment runs its
default configuration.

Usage:
    python scripts/run_all_experiments.py [outdir] [--seed N] [--svg]

Each experiment is one ``fracstoch`` CLI call: it writes
<outdir>/<experiment>.csv (+ .svg) and prints its check lines and a
summary line.  An experiment whose module raises a diagnostic prints
`<name> failed: <message>` on stderr and the loop goes on to the next one.
Exit code is 2 for a config error, such as a negative seed, which stops
the loop; else the largest code of the runs: 3 if any experiment raised,
else 1 if any check failed, else 0.
"""

import argparse
import sys

from fracstoch import cli
from fracstoch.config import EXPERIMENTS

OVERRIDES = {
    "mollifier_rates": ["--n-list", "8,16,32,64,128", "--points", "16384"],
    "variance_scaling": ["--n-list", "4,8,16,32"],
}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("outdir", nargs="?", default="results")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--svg", action="store_true")
    args = ap.parse_args()

    worst = 0
    for name in EXPERIMENTS:
        argv = [name, "--out", args.outdir, "--seed", str(args.seed), *OVERRIDES.get(name, [])]
        code = cli.main(argv + ["--svg"] if args.svg else argv)
        if code == 2:
            return 2
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
