"""Each Monte-Carlo job draws every (seed, label, replicate, cell) key once.

The counter RNG makes a redraw give the same bits, so a repeat is pure
waste: the kernels, noise levels and smoothing resolutions of a job share
one draw of each key.
"""

import numpy as np
import pytest

from fracstoch import rng
from fracstoch.config import parse_config
from fracstoch.experiments import run


@pytest.fixture
def draw_log(monkeypatch):
    real = rng.standard_normals
    log = {"variates": 0, "keys": set()}

    def counting(seed, label, replicate, *keys):
        out = real(seed, label, replicate, *keys)
        words = np.broadcast_arrays(*(np.asarray(w) for w in (replicate, *keys)))
        log["variates"] += out.size
        log["keys"].update((seed, label) + k for k in zip(*(w.ravel().tolist() for w in words)))
        return out

    monkeypatch.setattr(rng, "standard_normals", counting)
    return log


@pytest.mark.parametrize(
    "flags",
    [
        {"experiment": "dissipation", "replicates": 60},
        {"experiment": "variance_scaling", "replicates": 60},
        {"experiment": "mse", "replicates": 100},
    ],
)
def test_monte_carlo_jobs_draw_each_key_once(draw_log, flags):
    run(parse_config(flags=dict(flags, points=1024, n_list="4,8,16,32", seed=3)))
    assert draw_log["variates"] > 0
    assert draw_log["variates"] == len(draw_log["keys"])
