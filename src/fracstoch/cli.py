"""Command line entry point: one subcommand per experiment.

Examples:

    fracstoch kernel --out results
    fracstoch mollifier_rates --n-list 8,16,32,64,128 --points 16384 --svg --out results
    fracstoch mse --config run.json --sigma 0.2

Flags override config-file values.  Exit codes: 0 when every experiment
check passes, 1 when a check fails, 2 for a config error and 3 when a
module raises a diagnostic (a step restriction or a solver divergence).
"""

from __future__ import annotations

import argparse
import sys

from .config import EXPERIMENTS, ConfigError, parse_config
from .experiments import run

_FLAG_SPECS = [
    ("--config", dict(dest="config", help="flat JSON config file")),
    ("--out", dict(dest="out_dir", help="output directory for CSV/SVG")),
    ("--svg", dict(dest="svg", action="store_true", default=None, help="also write an SVG plot")),
    ("--seed", dict(dest="seed", type=int)),
    ("--replicates", dict(dest="replicates", type=int)),
    ("--n-list", dict(dest="n_list", help="comma separated, e.g. 8,16,32,64")),
    ("--alpha", dict(dest="alpha", type=float)),
    ("--sigma", dict(dest="sigma", type=float)),
    ("--q", dict(dest="q", type=float)),
    ("--lambda", dict(dest="lam", type=float)),
    ("--s", dict(dest="s", type=float)),
    ("--nu", dict(dest="nu", type=float)),
    ("--trunc-radius", dict(dest="trunc_radius", type=int)),
    ("--points", dict(dest="points", type=int)),
    ("--steps", dict(dest="steps", type=int)),
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracstoch",
        description="Convergence lab for noise-perturbed smoothing operators "
        "and fractional calculus",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        for flag, kwargs in _FLAG_SPECS:
            p.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    flags = {k: v for k, v in vars(args).items() if k not in ("config",)}
    flags["experiment"] = args.experiment
    try:
        config = parse_config(args.config, flags)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        report = run(config)
    except Exception as exc:  # diagnostics from the modules propagate
        print(f"{config.experiment} failed: {exc}", file=sys.stderr)
        return 3

    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"[{status}] {config.experiment}:{c.name}  {c.detail}")
    ok = report.passed
    print(f"{config.experiment}: {'OK' if ok else 'CHECKS FAILED'} ({len(report.rows)} rows)")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
