"""Each job draws every (seed, label, replicate, cell) key once.

The counter RNG makes a redraw give the same bits, so a repeat is pure
waste: the kernels, noise levels and smoothing resolutions of a job share
one draw of each key, and the Burgers solver draws its whole forcing
table before the time loop.  In the same spirit, the lattice rate job
evaluates all its points in one batched call per (alpha, n).
"""

import numpy as np
import pytest

from fracstoch import experiments, rng, turbulence
from fracstoch.config import parse_config
from fracstoch.experiments import HOLDER_ALPHAS, run
from fracstoch.fields import Field, PeriodicGrid
from fracstoch.fractional import TimeGrid
from fracstoch.rng import NoiseModel


def _counting(real, log):
    def counting(seed, label, replicate, *keys):
        out = real(seed, label, replicate, *keys)
        words = np.broadcast_arrays(*(np.asarray(w) for w in (replicate, *keys)))
        log["calls"] += 1
        log["variates"] += out.size
        log["keys"].update((seed, label) + k for k in zip(*(w.ravel().tolist() for w in words)))
        return out

    return counting


@pytest.fixture
def draw_log(monkeypatch):
    log = {"calls": 0, "variates": 0, "keys": set()}
    monkeypatch.setattr(rng, "standard_normals", _counting(rng.standard_normals, log))
    return log


@pytest.mark.parametrize(
    "flags",
    [
        {"experiment": "variance_scaling", "replicates": 60},
        {"experiment": "mse", "replicates": 100},
        # the fewest replicates a sample variance takes
        {"experiment": "variance_scaling", "replicates": 2},
    ],
)
def test_monte_carlo_jobs_draw_each_key_once(draw_log, flags):
    run(parse_config(flags=dict(flags, points=1024, n_list="4,8,16,32", seed=3)))
    assert draw_log["variates"] > 0
    assert draw_log["variates"] == len(draw_log["keys"])


def test_dissipation_draws_no_variate(draw_log):
    # dissipation smooths the expectation field only: nothing is drawn, whatever replicates says
    flags = {"experiment": "dissipation", "replicates": 60}
    run(parse_config(flags=dict(flags, points=1024, n_list="4,8,16,32", seed=3)))
    assert draw_log["calls"] == 0


def test_forced_burgers_draws_its_forcing_once(monkeypatch):
    # the solver imports standard_normals by name, so patch it where it is used
    log = {"calls": 0, "variates": 0, "keys": set()}
    monkeypatch.setattr(turbulence, "standard_normals", _counting(turbulence.standard_normals, log))
    grid = PeriodicGrid(2.0 * np.pi, 32)
    u0 = Field(0.1 * np.sin(grid.coords()), grid.spacing)
    params = turbulence.FracFlowParams(0.5, s=0.8, nu=0.05)
    steps = 200
    noise = NoiseModel(sigma=0.1, base_seed=5)
    turbulence.frac_burgers_solve(u0, params, TimeGrid(0.0, 0.25, steps), noise)
    assert log["calls"] == 1  # the lane axis is last, so each coefficient pair is one hash
    # four forced modes, two lanes per step
    assert log["variates"] == len(log["keys"]) == steps * 4 * 2


def test_unforced_burgers_draws_nothing(monkeypatch):
    # no noise model and a zero-sigma one are the same unforced solve, bit for bit
    log = {"calls": 0, "variates": 0, "keys": set()}
    monkeypatch.setattr(turbulence, "standard_normals", _counting(turbulence.standard_normals, log))
    grid = PeriodicGrid(2.0 * np.pi, 32)
    u0 = Field(0.1 * np.sin(grid.coords()), grid.spacing)
    params = turbulence.FracFlowParams(0.5, s=0.8, nu=0.05)
    t_grid = TimeGrid(0.0, 0.25, 200)
    bare = turbulence.frac_burgers_solve(u0, params, t_grid)
    zero = turbulence.frac_burgers_solve(u0, params, t_grid, NoiseModel(sigma=0.0, base_seed=7))
    assert log["calls"] == 0
    assert len(bare) == len(zero) == 201
    assert np.array_equal(bare, zero)


def test_kantorovich_rates_makes_one_lattice_call_per_alpha_and_n(monkeypatch):
    calls = []
    real = experiments.apply_expectation

    def counting(f, x, n, params):
        calls.append(np.shape(x))
        return real(f, x, n, params)

    # the runner imports apply_expectation by name, so patch it where it is used
    monkeypatch.setattr(experiments, "apply_expectation", counting)
    config = parse_config(flags={"experiment": "kantorovich_rates"})
    experiments.run_kantorovich_rates(config)
    assert len(calls) == len(HOLDER_ALPHAS) * len(config.n_list) == 12
    assert all(shape == (48, 1) for shape in calls)
