"""fracstoch benchmark: one workload, end-to-end metrics or a traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload monte_carlo --seed 1 --seconds 25 --trace 0

Each workload runs as a closed loop of passes in one process (one pass is
every job of the workload at one seed, written as CSV and SVG to a scratch
directory), after a warm-up pass that no metric times.  ``setup_s`` is
the median, over seven fresh interpreters (the worker's own and six timed
between its passes), of the time to import fracstoch and parse the
workload's configs.  ``--trace 1`` alternates untraced and traced passes
and reports per-layer figures instead.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it give the environment, a table
with units and sample counts, and a JSON detail record.  BLAS and OpenMP
threads are set to 1 (at most nproc) in the workers' environment.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from metrics import implausible_misses, tail
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS/OpenMP thread, within the nproc cap: with two on a two-core host,
# OpenBLAS's spinning threads doubled the CPU time of the burgers pass and
# widened its run-to-run spread several times over.
BLAS_THREADS = 1


def seed_type(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seeds are nonnegative, got {seed}")
    return seed


def worker(args: list[str], env: dict, deadline: float) -> dict:
    """Run worker.py to completion and return its last stdout line as JSON."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}: {' '.join(args)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=seed_type, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    if not (root / "src" / "fracstoch" / "__init__.py").is_file():
        print(f"no fracstoch sources under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    env = dict(os.environ, PYTHONPATH="src", **{k: str(BLAS_THREADS) for k in THREAD_VARS})
    (root / ".perfbench_out").mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / ".perfbench_out"))
    cmd = ["--workload", args.workload, "--seed", str(args.seed), "--out", str(out),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        res = worker(cmd, env, deadline)
    finally:
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.suppress(OSError):
            out.parent.rmdir()

    setups = res["setups"]
    passes = res["pass_s"]
    failed = len(res["failures"])
    checked = {tuple(c) for c in res["mc_checked"]}
    missed = {tuple(c) for c in res["mc_missed"]}
    implausible = implausible_misses(checked, missed)
    correct = not failed and not res["mismatches"] and not implausible
    at_seed = res["digests"].get(str(args.seed), {})
    digest = hashlib.sha256("".join(f"{k}={v}\n" for k, v in sorted(at_seed.items())).encode()).hexdigest()
    pct, tail_value = tail(passes)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    if args.trace:
        traced = res["traced_pass_s"]
        metrics = {k: (v, len(traced)) for k, v in res["layers"].items()}
        metrics["setup.import_s"] = (statistics.median(s["import_s"] for s in setups), len(setups))
        seeds = res["seeds"]
        per_seed = [sum(c[0] == seed for c in checked) for seed in seeds]
        metrics["experiments.mc_checks"] = (statistics.median(per_seed), len(seeds))
        metrics["experiments.mc_misses"] = (len(missed) / len(seeds), len(seeds))
        metrics["trace.untraced_pass_s"] = (statistics.median(passes), len(passes))
        metrics["trace.overhead_frac"] = (statistics.median(traced) / statistics.median(passes) - 1.0, len(traced))
    else:
        metrics = {
            "setup_s": (statistics.median(s["setup_s"] for s in setups), len(setups)),
            "pass_s.p50": (statistics.median(passes), len(passes)),
            "pass_s.tail": (tail_value, len(passes)),
            "peak_rss_mb": (res["peak_rss_mb"], 1),
        }
    missing = sorted(set(declared) - set(metrics))
    if missing:
        raise RuntimeError(f"BENCHMARK.json declares metrics this run does not measure: {missing}")
    metrics = {name: metrics[name] for name in declared}

    env_rec = res["env"]
    print(
        f"env: nproc={env_rec['nproc']} python={env_rec['python']} numpy={env_rec['numpy']} "
        f"scipy={env_rec['scipy']} blas_threads={env_rec['blas_threads']} "
        f"workload={args.workload} workload_seed={args.seed} trace={args.trace}"
    )
    print(f"{'metric':28s} {'value':>14s} {'unit':6s} samples")
    for name, (value, n) in metrics.items():
        print(f"{name:28s} {value:14.6g} {declared[name]:6s} {n}")
    fail_frac = failed / res["attempted"]
    print(f"{'fail_frac':28s} {fail_frac:14.6g} {'ratio':6s} {res['attempted']} jobs")
    print(f"pass_s.tail is p{pct:.1f} of {len(passes)} passes" + (" (the maximum: fewer than 11 passes)" if pct == 100.0 else ""))
    print(f"mc checks: {len(missed)} missed of {len(checked)} distinct (seed, experiment, check)")
    for reason in implausible:
        print(f"IMPLAUSIBLE for 3-SE checks: {reason}")
    print(f"output digest at seed {args.seed}: {digest}")
    for line in res["failures"] + res["mismatches"]:
        print(f"FAILED: {line}")
    detail = {
        "workload": args.workload,
        "env": env_rec,
        "pass_s": passes,
        "seeds": res["seeds"],
        "tail_percentile": pct,
        "fail_frac": fail_frac,
        "mc_checks": len(checked),
        "mc_missed": [f"seed {seed} {experiment}:{check}" for seed, experiment, check in sorted(missed)],
        "mc_implausible": implausible,
        "setup_s": [s["setup_s"] for s in setups],
        "digest": digest,
        "job_digests": res["digests"],
        "failures": res["failures"],
        "mismatches": res["mismatches"],
    }
    if args.trace:
        detail["traced_pass_s"] = res["traced_pass_s"]
        detail["spans"] = res["spans"]
    print("detail: " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": declared[k]} for k, (v, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
