"""Tracing of fracstoch from outside the package.

The traced run wraps the public functions (the names in ``__all__``) of
each layer module and rebinds every fracstoch module attribute that holds
the original, because ``experiments``, ``turbulence`` and ``lattice``
import by name and a wrapper on the defining module alone would miss
their calls.  Each wrapped call records a span (name, layer, start, end,
parent) plus counts taken from its arguments and result.  Spans stay in
memory until the run ends.  Work the tracer does for itself after a call
(counting distinct RNG keys) is recorded as a ``trace`` span so that it
does not land in any layer's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

import numpy as np

from metrics import ratio

LAYERS = ("rng", "kernels", "lattice", "mollify", "fractional", "turbulence", "report", "experiments")
EVALUATORS = ("eval_g", "eval_g_prime", "eval_M", "eval_Phi", "eval_Z")


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "counts")

    def __init__(self, name, layer, start, parent):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.counts = None


class DrawCounter:
    """Tells first draws of a (seed, label, replicate, *keys) tuple from repeats.

    Each (seed, label, number of key words) gets a boolean map over the
    bounding box of the keys seen so far, grown geometrically.  A call
    marks its broadcast keys and adds the change in set cells within its
    own bounding box, so keys repeated inside one call count once.
    ``reset`` starts a new scope (one job).
    """

    def __init__(self):
        self._maps = {}

    def reset(self) -> None:
        self._maps = {}

    def add(self, seed, label, replicate, *keys) -> int:
        """Mark one call's draws; returns how many were not drawn before."""
        words = [np.asarray(w, dtype=np.int64) for w in (replicate, *keys)]
        lo = [int(w.min()) for w in words]
        hi = [int(w.max()) + 1 for w in words]
        key = (int(seed), int(label), len(words))
        origin, grid = self._grown(key, lo, hi)
        box = tuple(slice(a - o, b - o) for a, b, o in zip(lo, hi, origin))
        before = int(np.count_nonzero(grid[box]))
        grid[tuple(w - o for w, o in zip(words, origin))] = True
        return int(np.count_nonzero(grid[box])) - before

    def _grown(self, key, lo, hi):
        old = self._maps.get(key)
        if old is not None:
            origin, grid = old
            end = [o + s for o, s in zip(origin, grid.shape)]
            if all(o <= a and b <= e for a, b, o, e in zip(lo, hi, origin, end)):
                return old
            # grow each axis that overflows to at least twice its old extent
            new_lo, new_hi = [], []
            for a, b, o, e in zip(lo, hi, origin, end):
                width = e - o
                new_lo.append(min(a, o - width) if a < o else o)
                new_hi.append(max(b, e + width) if b > e else e)
            new = np.zeros([b - a for a, b in zip(new_lo, new_hi)], dtype=bool)
            new[tuple(slice(o - a, e - a) for o, e, a in zip(origin, end, new_lo))] = grid
            self._maps[key] = (new_lo, new)
            return self._maps[key]
        self._maps[key] = (lo, np.zeros([b - a for a, b in zip(lo, hi)], dtype=bool))
        return self._maps[key]


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_rng(tracer, parent, args, kwargs, result):
    return {"variates": int(np.size(result)), "distinct": tracer.draws.add(*args, **kwargs)}


def _count_points(tracer, parent, args, kwargs, result):
    # counted at the outermost evaluator, so eval_Phi -> eval_M -> eval_g counts once
    if parent is not None and parent.name in EVALUATORS:
        return None
    x = np.asarray(_arg(args, kwargs, 1, "x"))
    return {"points": int(x.size)}


def _count_pairs(tracer, parent, args, kwargs, result):
    n = int(np.size(_arg(args, kwargs, 0, "f")))
    return {"pairs": n * (n - 1) // 2}


def _count_samples(tracer, parent, args, kwargs, result):
    return {"samples": int(np.size(_arg(args, kwargs, 0, "f")))}


def _count_solver(tracer, parent, args, kwargs, result):
    steps = int(_arg(args, kwargs, 2, "t_grid").steps)
    points = int(_arg(args, kwargs, 0, "u0").points)
    # the solver's complex history array: steps x (P/2 + 1) x 16 bytes
    return {"steps": steps, "history_bytes": steps * (points // 2 + 1) * 16}


def _count_bytes(tracer, parent, args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


COUNTERS = {
    ("rng", "standard_normals"): _count_rng,
    **{("kernels", name): _count_points for name in EVALUATORS},
    ("fractional", "gagliardo_seminorm"): _count_pairs,
    ("fractional", "caputo_l1"): _count_samples,
    ("turbulence", "frac_burgers_solve"): _count_solver,
    ("report", "write_csv"): _count_bytes,
    ("report", "write_svg"): _count_bytes,
}


class Tracer:
    """Records spans around calls into fracstoch's layers while installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.draws = DrawCounter()
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []

    def open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, layer, self.clock(), parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = self.clock()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")

    def wrap(self, layer: str, name: str, fn):
        count = COUNTERS.get((layer, name))
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.spans[tracer._stack[-1]] if tracer._stack else None
            index = tracer.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if count is not None:
                book = tracer.open("bookkeeping", "trace")
                try:
                    tracer.spans[index].counts = count(tracer, parent, args, kwargs, result)
                finally:
                    tracer.close(book)
            return result

        return traced

    def install(self) -> None:
        """Rebind every fracstoch module attribute that holds a layer's
        public function to a traced wrapper."""
        if self._rebound:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"fracstoch.{layer}")
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = (fn, self.wrap(layer, name, fn))
        modules = [m for n, m in list(sys.modules.items()) if n == "fracstoch" or n.startswith("fracstoch.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._rebound.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._rebound):
            setattr(module, attr, value)
        self._rebound = []


def pass_metrics(spans: list[Span], selfs: list[float], root: int, stop: int, wall_s: float) -> dict:
    """Per-layer figures for the spans root..stop-1 of one traced pass.

    ``selfs`` holds every span's self time; ``root`` is the pass's own
    span; ``wall_s`` is the pass time measured by the caller, against
    which the span coverage is checked.
    """
    own = range(root + 1, stop)
    dur = {i: spans[i].end - spans[i].start for i in own}

    def outermost(i):
        return spans[spans[i].parent].layer != spans[i].layer

    def total(key, indices=own):
        return sum((spans[i].counts or {}).get(key, 0) for i in indices)

    by_layer = {layer: 0.0 for layer in LAYERS + ("trace",)}
    named: dict[str, list[int]] = {}
    for i in own:
        by_layer[spans[i].layer] += selfs[i]
        named.setdefault(spans[i].name, []).append(i)

    rng_calls = len(named.get("standard_normals", []))
    variates = total("variates")
    points = total("points")
    lattice_outer = [i for i in own if spans[i].layer == "lattice" and outermost(i)]
    mollify_calls = sum(1 for i in own if spans[i].layer == "mollify" and outermost(i))
    solver = named.get("frac_burgers_solve", [])
    solve_s = sum(dur[i] for i in solver)
    solver_self = sum(selfs[i] for i in solver)
    steps = total("steps", solver)
    return {
        "rng.variates": variates,
        "rng.calls": rng_calls,
        "rng.self_s": by_layer["rng"],
        "rng.ns_per_variate": ratio(by_layer["rng"] * 1e9, variates),
        "rng.us_per_call": ratio(by_layer["rng"] * 1e6, rng_calls),
        "rng.useful_frac": ratio(total("distinct"), variates),
        "kernels.points": points,
        "kernels.self_s": by_layer["kernels"],
        "kernels.ns_per_point": ratio(by_layer["kernels"] * 1e9, points),
        "lattice.calls": len(lattice_outer),
        "lattice.self_s": by_layer["lattice"],
        "lattice.us_per_call": ratio(sum(dur[i] for i in lattice_outer) * 1e6, len(lattice_outer)),
        "mollify.calls": mollify_calls,
        "mollify.self_s": by_layer["mollify"],
        "fractional.gagliardo_pairs": total("pairs"),
        "fractional.gagliardo_s": sum(dur[i] for i in named.get("gagliardo_seminorm", [])),
        "fractional.caputo_samples": total("samples"),
        "fractional.caputo_s": sum(dur[i] for i in named.get("caputo_l1", [])),
        "fractional.self_s": by_layer["fractional"],
        "turbulence.solver_steps": steps,
        "turbulence.solve_s": solve_s,
        "turbulence.us_per_step": ratio(solve_s * 1e6, steps),
        "turbulence.history_bytes": max((total("history_bytes", [i]) for i in solver), default=0),
        "turbulence.self_s": by_layer["turbulence"] - solver_self,
        "turbulence.solver_self_s": solver_self,
        "report.bytes_written": total("bytes"),
        "report.self_s": by_layer["report"],
        "experiments.self_s": by_layer["experiments"],
        "trace.self_s": by_layer["trace"],
        "trace.pass_s": wall_s,
        "trace.unaccounted_s": wall_s - sum(by_layer.values()),
    }
