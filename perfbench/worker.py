"""One workload in one fresh interpreter: set-up, a warm-up pass, timed passes.

Started by ``run.py`` from the root of a checkout, with ``PYTHONPATH=src``;
prints one JSON object on its last stdout line.

    python3 perfbench/worker.py --workload rates --seed 1 --seconds 25 --trace 0 --out DIR
    python3 perfbench/worker.py --workload rates --seed 1 --out DIR --setup-only

Pass i runs every job of the workload at seed ``--seed + i``; the warm-up
pass runs at ``--seed`` too, so its outputs must equal pass 0's byte for
byte.  With ``--trace 1`` each seed runs once untraced and once traced, in
alternating order, and the two must again agree byte for byte.  Between
passes the worker times the set-up of fresh interpreters (``--setup-only``
copies of itself, run one at a time), so that the set-up samples are spread
over the run like the passes.  ``--seconds`` is the time spent in passes;
the set-up samples come on top of it.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import CAPUTO_ALPHA, MC_CHECK_PREFIXES, WORKLOADS

MIN_PASSES = 3
SETUP_SAMPLES = 7  # fresh interpreters timed for setup_s, this one included


def blas_threads():
    """Thread count OpenBLAS reports in this process, or None if unknown."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line and "/" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class Runner:
    """Runs the jobs of one workload and keeps what the result needs."""

    def __init__(self, fracstoch, np, workload: str, out_dir: Path):
        self.fs = fracstoch
        self.np = np
        self.jobs = WORKLOADS[workload]
        self.out_dir = out_dir
        self.digests: dict[int, dict[str, str]] = {}
        self.mismatches: list[str] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.mc_checked: set[tuple[int, str, str]] = set()
        self.mc_missed: set[tuple[int, str, str]] = set()

    def configs(self, seed: int) -> list:
        parse = self.fs.config.parse_config
        flags = {"seed": seed, "out_dir": str(self.out_dir), "svg": True, "workers": 1}
        return [job if "caputo_l1" in job else parse(flags=dict(job, **flags)) for job in self.jobs]

    def run_pass(self, seed: int, tracer=None) -> float:
        """Run every job at ``seed``; returns the pass's wall time."""
        t0 = time.perf_counter()
        root = tracer.open("pass", "pass") if tracer else None
        for job in self.configs(seed):
            if tracer:
                tracer.draws.reset()
            name = "caputo_l1" if isinstance(job, dict) else job.experiment
            self.attempted += 1
            try:
                digest = self._caputo(job["caputo_l1"], seed) if isinstance(job, dict) else self._experiment(job)
            except Exception as exc:  # a job that raises is a failed job; the pass goes on
                self.failures.append(f"seed {seed} {name}: {type(exc).__name__}: {exc}")
                continue
            seen = self.digests.setdefault(seed, {}).setdefault(name, digest)
            if seen != digest:
                self.mismatches.append(f"seed {seed} {name}: {seen} != {digest}")
        if tracer:
            tracer.close(root)
        return time.perf_counter() - t0

    def _experiment(self, config) -> str:
        report = self.fs.experiments.run(config)
        failed = []
        for check in report.checks:
            if check.name.startswith(MC_CHECK_PREFIXES):
                key = (config.seed, config.experiment, check.name)
                self.mc_checked.add(key)
                if not check.passed:
                    self.mc_missed.add(key)
            elif not check.passed:
                failed.append(check.name)
        if failed:
            raise AssertionError(f"checks failed: {' '.join(failed)}")
        data = (self.out_dir / f"{config.experiment}.csv").read_bytes()
        return hashlib.sha256(data).hexdigest()

    def _caputo(self, steps: int, seed: int) -> str:
        """caputo_l1 on a Brownian path from ``seed``, checked at a few
        nodes against the L1 sum evaluated directly."""
        np = self.np
        rng = np.random.default_rng(seed)
        h = 1.0 / steps
        f = np.concatenate(([0.0], np.cumsum(rng.standard_normal(steps)) * math.sqrt(h)))
        out = self.fs.fractional.caputo_l1(f, self.fs.fractional.TimeGrid(0.0, 1.0, steps), CAPUTO_ALPHA)
        a = CAPUTO_ALPHA
        r = np.arange(steps, dtype=float)
        b = (r + 1.0) ** (1.0 - a) - r ** (1.0 - a)
        df = np.diff(f)
        scale = h ** (-a) / math.gamma(2.0 - a)
        for j in [steps, *rng.integers(1, steps, 7)]:
            terms = b[j - 1 :: -1] * df[:j]
            ref = float(np.sum(terms)) * scale
            if not abs(out[j] - ref) <= 1e-10 * float(np.sum(np.abs(terms))) * scale:
                raise AssertionError(f"caputo_l1 node {j}: {out[j]!r} != direct sum {ref!r}")
        return hashlib.sha256(np.ascontiguousarray(out, dtype="<f8").tobytes()).hexdigest()


def setup_sample(args) -> dict:
    """Set-up times of one fresh interpreter: a ``--setup-only`` copy of this worker."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--out", str(args.out), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=60)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    t0 = time.perf_counter()
    import numpy as np

    import fracstoch
    import fracstoch.config
    import fracstoch.experiments
    import fracstoch.fractional

    import_s = time.perf_counter() - t0
    runner = Runner(fracstoch, np, args.workload, args.out)
    runner.configs(args.seed)
    setup_s = time.perf_counter() - t0

    source = Path(fracstoch.__file__).resolve()
    if Path.cwd().resolve() / "src" not in source.parents:
        print(f"fracstoch imported from {source}, not from ./src", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"import_s": import_s, "setup_s": setup_s}))
        return 0
    setups = [{"import_s": import_s, "setup_s": setup_s}]

    runner.run_pass(args.seed)  # warm-up: timed in no metric
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    plain, traced, roots = [], [], []
    i = 0
    while True:
        seed = args.seed + i
        turns = (False,) if not tracer else (False, True) if i % 2 == 0 else (True, False)
        for traced_turn in turns:
            if traced_turn:
                tracer.install()
                roots.append(len(tracer.spans))
                try:
                    traced.append(runner.run_pass(seed, tracer))
                finally:
                    tracer.uninstall()
            else:
                plain.append(runner.run_pass(seed))
        i += 1
        elapsed = sum(plain) + sum(traced)
        # set-up samples due by now, in proportion to the time spent in passes
        due = 1 + math.ceil((SETUP_SAMPLES - 1) * elapsed / args.seconds)
        while len(setups) < min(due, SETUP_SAMPLES):
            setups.append(setup_sample(args))
        if i >= MIN_PASSES and elapsed + elapsed / i > args.seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample(args))

    result = dict(
        setups=setups,
        pass_s=plain,
        seeds=[args.seed + k for k in range(i)],
        digests={str(k): v for k, v in runner.digests.items()},
        attempted=runner.attempted,
        failures=runner.failures,
        mismatches=runner.mismatches,
        mc_checked=sorted(runner.mc_checked),
        mc_missed=sorted(runner.mc_missed),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env={
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": sys.modules["scipy"].__version__,
            "blas_threads": blas_threads(),
            "thread_caps": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
            "workload_seed": args.seed,
        },
    )
    if tracer:
        from metrics import self_times
        from spans import pass_metrics

        selfs = self_times(tracer.spans)
        ends = roots[1:] + [len(tracer.spans)]
        per_pass = [pass_metrics(tracer.spans, selfs, r, e, w) for r, e, w in zip(roots, ends, traced)]
        result["layers"] = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
        result["traced_pass_s"] = traced
        result["spans"] = len(tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
