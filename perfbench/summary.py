"""Every workload in one command: end-to-end table, spreads and the traced split.

Run from the root of a checkout:

    python3 perfbench/summary.py              # one seed per workload
    python3 perfbench/summary.py --seeds 10   # ten seeds: medians and spreads

For each workload of BENCHMARK.json it runs ``run.py`` once per seed, for
the file's ``run_seconds``, with tracing off and
prints every end-to-end metric (and fail_frac) with its unit and sample
count; with several seeds it adds the quartile spread of each metric as a
share of its median, next to a third of the metric's bound.  It then makes
one traced run per workload and prints the per-layer table, the span
coverage and whether the split the workloads were chosen for holds.  The
last line is a JSON record of every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from metrics import quartile_spread

HERE = Path(__file__).resolve().parent
SELF_KEYS = (
    "rng.self_s", "kernels.self_s", "lattice.self_s", "mollify.self_s", "fractional.self_s",
    "turbulence.solver_self_s", "turbulence.self_s", "report.self_s", "experiments.self_s", "trace.self_s",
)


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(next(line for line in lines if line.startswith("detail: "))[len("detail: "):])
    return {"seed": seed, "detail": detail, **json.loads(lines[-1])}


def split_checks(traced: dict) -> list[tuple[str, bool]]:
    """The per-layer split each workload was chosen for, as measured."""
    m = {w: {k: v["value"] for k, v in r["metrics"].items()} for w, r in traced.items()}
    out = []
    if "rates" in m:
        out.append(("rng.variates is 0 on rates", m["rates"]["rng.variates"] == 0))
        share = (m["rates"]["fractional.gagliardo_s"] + m["rates"]["kernels.self_s"]) / m["rates"]["trace.pass_s"]
        out.append((f"gagliardo_s + kernels.self_s is the majority on rates ({share:.1%})", share > 0.5))
    if "monte_carlo" in m:
        largest = max(SELF_KEYS, key=lambda k: m["monte_carlo"][k])
        out.append((f"rng.self_s is the largest self time on monte_carlo (largest: {largest})", largest == "rng.self_s"))
    steps = {w: m[w]["turbulence.solver_steps"] for w in m}
    out.append((f"turbulence.solver_steps nonzero only on memory ({steps})",
                all((v > 0) == (w == "memory") for w, v in steps.items())))
    return out


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=1, help="untraced runs per workload")
    ap.add_argument("--seed", type=int, default=1, help="first workload seed")
    args = ap.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = {w: [bench(w, args.seed + k, seconds, 0) for k in range(args.seeds)] for w in workloads}
    print(f"{'workload':12s} {'metric':12s} {'median':>10s} {'unit':5s} {'samples':>8s} {'spread':>7s} {'bound/3':>7s}")
    for w, rs in runs.items():
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in rs]
            n = sum(len(r["detail"]["pass_s"]) for r in rs) if name.startswith("pass_s") else len(rs)
            spread = f"{quartile_spread(values):7.3f}" if len(values) > 1 else "    n/a"
            print(f"{w:12s} {name:12s} {statistics.median(values):10.4f} {rs[0]['metrics'][name]['unit']:5s} "
                  f"{n:8d} {spread} {bounds[name] / 3:7.3f}")
        failed = sum(r["failed"] for r in rs)
        attempted = sum(r["attempted"] for r in rs)
        print(f"{w:12s} {'fail_frac':12s} {failed / attempted:10.4f} {'ratio':5s} {attempted:8d} jobs")
        pcts = sorted({r["detail"]["tail_percentile"] for r in rs})
        print(f"{w:12s} pass_s.tail percentiles {pcts}; "
              f"mc misses {sum(len(r['detail']['mc_missed']) for r in rs)} of "
              f"{sum(r['detail']['mc_checks'] for r in rs)} distinct checks; "
              f"correct {all(r['correct'] for r in rs)}")
        for r in rs:
            print(f"{w:12s} seed {r['seed']} digest {r['detail']['digest']}")

    traced = {w: bench(w, args.seed, seconds, 1) for w in workloads}
    names = sorted(traced[workloads[0]]["metrics"])
    print(f"\n{'per-layer (traced)':28s}" + "".join(f"{w:>14s}" for w in workloads))
    for name in names:
        print(f"{name:28s}" + "".join(f"{traced[w]['metrics'][name]['value']:14.6g}" for w in workloads))
    print("\ncoverage: layer self times + trace bookkeeping + unaccounted = traced pass")
    for w in workloads:
        m = {k: v["value"] for k, v in traced[w]["metrics"].items()}
        covered = sum(m[k] for k in SELF_KEYS)
        print(f"  {w:12s} self {covered:.4f} s of {m['trace.pass_s']:.4f} s; unaccounted "
              f"{m['trace.unaccounted_s']:.4f} s ({m['trace.unaccounted_s'] / m['trace.pass_s']:.2%}); "
              f"overhead {m['trace.overhead_frac']:+.2%}")
    print("\nsplit:")
    for text, holds in split_checks(traced):
        print(f"  [{'holds' if holds else 'DOES NOT HOLD'}] {text}")
    print(json.dumps({"runs": runs, "traced": traced}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
