import math

import numpy as np
import pytest

from fracstoch import lattice
from fracstoch.fields import PeriodicGrid, sample_on_grid
from fracstoch.kernels import KernelParams
from fracstoch.mollify import ScaledKernel, _point_window, make_bump, stochastic_samples_at
from fracstoch.rng import (
    LABEL_CELL_MULTIPLIER,
    LABEL_WHITE_NOISE,
    NoiseModel,
    standard_normals,
)


def test_determinism_and_key_sensitivity():
    a = standard_normals(42, LABEL_CELL_MULTIPLIER, 3, 5)
    b = standard_normals(42, LABEL_CELL_MULTIPLIER, 3, 5)
    assert float(a) == float(b)
    assert float(standard_normals(43, LABEL_CELL_MULTIPLIER, 3, 5)) != float(a)
    assert float(standard_normals(42, LABEL_WHITE_NOISE, 3, 5)) != float(a)
    assert float(standard_normals(42, LABEL_CELL_MULTIPLIER, 4, 5)) != float(a)
    assert float(standard_normals(42, LABEL_CELL_MULTIPLIER, 3, 6)) != float(a)


def test_shape_and_order_independence():
    # the draw for (replicate, k) must not depend on how the batch is shaped
    reps = np.arange(6)[:, None]
    ks = np.arange(11)[None, :]
    block = standard_normals(7, LABEL_CELL_MULTIPLIER, reps, ks)
    for r in range(6):
        row = standard_normals(7, LABEL_CELL_MULTIPLIER, r, np.arange(11))
        assert np.array_equal(block[r], row)
    single = standard_normals(7, LABEL_CELL_MULTIPLIER, 4, 9)
    assert float(single) == block[4, 9]


def test_negative_indices_are_valid_keys():
    ks = np.array([-5, -1, 0, 1, 5])
    vals = standard_normals(1, LABEL_CELL_MULTIPLIER, 0, ks)
    assert np.all(np.isfinite(vals))
    assert len(np.unique(vals)) == len(ks)


def test_moments_roughly_standard_normal():
    reps = np.arange(500)[:, None]
    ks = np.arange(400)[None, :]
    z = standard_normals(123, LABEL_WHITE_NOISE, reps, ks).ravel()
    n = z.size
    assert abs(z.mean()) < 4.0 / np.sqrt(n)
    assert abs(z.var() - 1.0) < 6.0 / np.sqrt(n)
    assert abs(np.mean(z**3)) < 10.0 / np.sqrt(n)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(sigma=-0.1)
    with pytest.raises(ValueError):
        NoiseModel(sigma=float("nan"))
    with pytest.raises(ValueError):
        NoiseModel(sigma=float("inf"))
    nm = NoiseModel(sigma=0.2, base_seed=9)
    assert float(nm.white_noise(0, 3)) == float(nm.white_noise(0, 3))
    assert float(nm.white_noise(0, 3)) != float(nm.cell_multipliers(0, 3))


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def test_one_noise_model_drives_both_operators():
    # each operator draws from the stream of the method it calls
    nm = NoiseModel(sigma=0.3, base_seed=11)
    reps = np.arange(6)

    g, p = lattice.GridSpec(n=10), KernelParams()
    ks, terms = lattice._terms(np.sin, np.array([[0.37]]), g, p)
    w = standard_normals(11, LABEL_CELL_MULTIPLIER, reps[:, None], ks[0, 0])
    direct = np.sum((1.0 + 0.3 * w) * terms[0], axis=-1)
    assert np.array_equal(_bits(lattice.sample(np.sin, 0.37, g, p, nm, reps)), _bits(direct))

    u = sample_on_grid(PeriodicGrid(2 * np.pi, 1024), np.sin)
    kernel = ScaledKernel(make_bump(), 8)
    cells, vals = _point_window(u, kernel, 300)
    xi = standard_normals(11, LABEL_WHITE_NOISE, reps[:, None], cells[None, :])
    direct = float(np.sum(vals) * u.spacing) + 0.3 * math.sqrt(u.spacing) * (xi @ vals)
    got = stochastic_samples_at(u, [kernel], nm, reps.size, 300)[0]
    assert np.array_equal(_bits(got), _bits(direct))
