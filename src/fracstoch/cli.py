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
from dataclasses import fields

from .config import EXPERIMENTS, ConfigError, RunConfig, parse_config
from .experiments import run

# a flag is "--" plus its RunConfig field name with "_" as "-", but for these
_FLAG_NAMES = {"lam": "lambda", "out_dir": "out"}
_HELP = {
    "n_list": "comma separated, e.g. 8,16,32,64",
    "out_dir": "output directory for CSV/SVG",
    "svg": "also write an SVG plot",
}
# argparse keywords by annotation; any other field takes its flag as a string
_KINDS = {
    "int": dict(type=int),
    "float": dict(type=float),
    "bool": dict(action="store_true", default=None),
}


def build_parser() -> argparse.ArgumentParser:
    """One subcommand per experiment, each with a flag per RunConfig field; unset flags are None."""
    parser = argparse.ArgumentParser(
        prog="fracstoch",
        description="Convergence lab for noise-perturbed smoothing operators "
        "and fractional calculus",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", help="flat JSON config file")
        for f in fields(RunConfig):  # f.type is the annotation string (PEP 563)
            if f.name == "experiment":  # the subcommand
                continue
            flag = "--" + _FLAG_NAMES.get(f.name, f.name).replace("_", "-")
            p.add_argument(flag, dest=f.name, help=_HELP.get(f.name), **_KINDS.get(f.type, {}))
    return parser


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    try:
        config = parse_config(args.pop("config"), args)
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
