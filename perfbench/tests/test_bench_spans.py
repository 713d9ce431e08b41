"""Span bookkeeping: self time on nested spans, distinct-draw counting,
per-pass coverage and the rebinding of fracstoch's public functions."""

import importlib
import itertools
import sys

import numpy as np
import pytest

from metrics import self_times
from spans import DrawCounter, Tracer, pass_metrics


def fake_clock(times):
    it = iter(times)
    return lambda: float(next(it))


def test_self_time_subtracts_direct_children_only():
    # A [0, 10] holds B [1, 4] and C [5, 9]; C holds D [6, 7]
    tracer = Tracer(clock=fake_clock([0, 1, 4, 5, 6, 7, 9, 10]))
    a = tracer.open("A", "experiments")
    b = tracer.open("B", "rng")
    tracer.close(b)
    c = tracer.open("C", "mollify")
    d = tracer.open("D", "rng")
    tracer.close(d)
    tracer.close(c)
    tracer.close(a)
    assert self_times(tracer.spans) == [3.0, 3.0, 3.0, 1.0]
    assert [s.parent for s in tracer.spans] == [-1, 0, 0, 2]


def test_spans_must_close_in_order():
    tracer = Tracer(clock=fake_clock(range(10)))
    outer = tracer.open("outer", "lattice")
    tracer.open("inner", "kernels")
    with pytest.raises(RuntimeError):
        tracer.close(outer)


def test_draw_counter_counts_repeated_keys_once():
    draws = DrawCounter()
    reps, cells = np.arange(3)[:, None], np.arange(4)[None, :]
    assert draws.add(1, 2, reps, cells) == 12
    assert draws.add(1, 2, reps, cells) == 0  # the same noise redrawn
    assert draws.add(1, 2, reps, np.arange(2, 6)[None, :]) == 6  # cells 4, 5 are new
    assert draws.add(1, 2, 5, np.array([7, 7, 7])) == 1  # repeats inside one call
    assert draws.add(1, 2, -4, np.array([-9])) == 1  # grows the box downwards
    assert draws.add(1, 2, reps, cells) == 0  # earlier marks survive growth
    assert draws.add(2, 2, reps, cells) == 12  # another seed is another stream
    assert draws.add(1, 2, 0, 0, 0) == 1  # another key count is another stream
    draws.reset()
    assert draws.add(1, 2, reps, cells) == 12


def test_useful_frac_from_wrapped_rng_calls():
    def standard_normals(seed, label, replicate, *keys):
        return np.zeros(np.broadcast_shapes(*(np.shape(k) for k in (replicate, *keys))))

    tracer = Tracer()
    rng = tracer.wrap("rng", "standard_normals", standard_normals)
    root = tracer.open("pass", "pass")
    for _ in range(4):  # one replicate-mean field redrawn per n, as in dissipation
        rng(42, 0x2E, np.arange(10)[:, None], np.arange(8)[None, :])
    rng(42, 0x2E, 3, np.arange(8))
    tracer.close(root)
    wall = tracer.spans[root].end - tracer.spans[root].start
    m = pass_metrics(tracer.spans, self_times(tracer.spans), root, len(tracer.spans), wall)
    assert m["rng.calls"] == 5
    assert m["rng.variates"] == 4 * 80 + 8
    assert m["rng.useful_frac"] == pytest.approx(80 / 328)


def test_pass_metrics_coverage_and_outermost_counts():
    tracer = Tracer(clock=fake_clock(itertools.count()))
    root = tracer.open("pass", "pass")                   # 0
    run = tracer.open("run", "experiments")              # 1
    lat = tracer.open("apply_expectation", "lattice")    # 2
    inner = tracer.open("kernel_moment", "lattice")      # 3
    tracer.close(inner)                                  # 4
    tracer.close(lat)                                    # 5
    tracer.close(run)                                    # 6
    tracer.close(root)                                   # 7
    spans = tracer.spans
    m = pass_metrics(spans, self_times(spans), root, len(spans), wall_s=8.0)
    assert m["lattice.calls"] == 1  # the nested lattice call is not another call
    assert m["lattice.self_s"] == 3.0
    assert m["lattice.us_per_call"] == 3e6
    assert m["experiments.self_s"] == 2.0
    assert m["trace.unaccounted_s"] == 3.0  # the pass span's own time and the gap to wall


def test_install_rebinds_every_importer_and_uninstall_restores():
    fracstoch = importlib.import_module("fracstoch")
    import fracstoch.experiments  # noqa: F401
    rng, turb, lat = (sys.modules[f"fracstoch.{m}"] for m in ("rng", "turbulence", "lattice"))
    originals = (rng.standard_normals, turb.standard_normals, lat.eval_Phi, fracstoch.caputo_l1)
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = (rng.standard_normals, turb.standard_normals, lat.eval_Phi, fracstoch.caputo_l1)
        assert all(w is not o and w.__wrapped__ is o for w, o in zip(wrapped, originals))
        assert rng.standard_normals is turb.standard_normals
        turb.standard_normals(1, 2, 3, np.arange(4))
        assert [s.name for s in tracer.spans] == ["standard_normals", "bookkeeping"]
        assert tracer.spans[0].counts == {"variates": 4, "distinct": 4}
    finally:
        tracer.uninstall()
    assert (rng.standard_normals, turb.standard_normals, lat.eval_Phi, fracstoch.caputo_l1) == originals
