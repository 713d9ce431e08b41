import math
import multiprocessing
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracstoch import lattice, rng
from fracstoch.fields import PeriodicGrid, sample_on_grid
from fracstoch.kernels import KernelParams
from fracstoch.mollify import ScaledKernel, _point_window, stochastic_samples_at
from fracstoch.rng import (
    LABEL_CELL_MULTIPLIER,
    LABEL_FORCING,
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


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _whole_array_draw(seed, label, replicate, *keys):
    # the unblocked v2 rule on the full broadcast array: every element hashed
    # alone from (..., k(j-1), kj >> 1), then component kj & 1 of the pair
    *lead, last = (rng._u64(k) for k in keys)
    h = rng._mix(rng._u64(seed) ^ rng._u64(label))
    h = rng._mix(h ^ rng._u64(replicate))
    z = rng._pair(h, [*lead, last >> np.uint64(1)])
    return np.where(last & np.uint64(1), z[..., 1], z[..., 0])[()]


@pytest.mark.parametrize(
    "replicate,keys",
    [
        (3, (5,)),  # 0-d
        (3, (np.arange(-35000, 35000),)),  # 1-D, two blocks of 2^16 rows
        (np.arange(300)[:, None], (np.arange(400)[None, :],)),  # 163 rows per block
        (np.arange(3)[:, None], (np.arange(70000)[None, :],)),  # a row wider than a block
        (np.arange(200)[:, None, None], (np.arange(20)[:, None], np.arange(30), 1)),
        (np.arange(0)[:, None], (np.arange(5),)),  # empty
        (np.arange(3)[:, None, None], (np.arange(0)[:, None], np.arange(5))),  # empty inner axis
    ],
)
def test_row_blocks_do_not_change_the_bits(replicate, keys):
    got = standard_normals(9, LABEL_WHITE_NOISE, replicate, *keys)
    ref = _whole_array_draw(9, LABEL_WHITE_NOISE, replicate, *keys)
    assert type(got) is type(ref) and np.shape(got) == np.shape(ref)
    assert np.array_equal(_bits(got), _bits(ref))


# two bulk draw shapes: 488 replicate rows over all 4096 cells, and a
# _point_fluctuations chunk over a 327-cell window wrapped mod 4096
MONTE_CARLO_DRAWS = {
    "mean_white_noise": (np.arange(488)[:, None], np.arange(4096)),
    "point_window": (np.arange(4096)[:, None], (np.arange(3837, 4164) % 4096)[None, :]),
}


@pytest.mark.parametrize("replicate,cells", MONTE_CARLO_DRAWS.values(), ids=MONTE_CARLO_DRAWS)
def test_pooled_draw_equals_the_serial_draw(monkeypatch, replicate, cells):
    # the bits depend neither on the threads nor on which thread fills a block;
    # three threads on a short switch interval interleave the blocks finely
    pooled = _bits(standard_normals(9, LABEL_WHITE_NOISE, replicate, cells))
    interval = sys.getswitchinterval()
    with ThreadPoolExecutor(3) as three:
        monkeypatch.setattr(rng, "_executor", lambda: three)
        sys.setswitchinterval(1e-5)
        try:
            shuffled = standard_normals(9, LABEL_WHITE_NOISE, replicate, cells)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(_bits(shuffled), pooled)
    monkeypatch.setattr(rng, "_executor", lambda: None)
    assert np.array_equal(_bits(standard_normals(9, LABEL_WHITE_NOISE, replicate, cells)), pooled)


def _redraw(args, want):
    assert rng._pool is None, "the child kept its parent's pool"
    assert np.array_equal(_bits(standard_normals(*args)), _bits(want))


def test_a_forked_child_draws_after_a_pooled_draw(monkeypatch):
    # a child has none of its parent's threads; it must start its own pool
    # (or draw serially) instead of waiting on the parent's forever
    args = (9, LABEL_WHITE_NOISE, np.arange(64)[:, None], np.arange(4096))  # 4 blocks
    with ThreadPoolExecutor(2) as pool:
        monkeypatch.setattr(rng, "_pool", pool)
        want = standard_normals(*args)
        child = multiprocessing.get_context("fork").Process(target=_redraw, args=(args, want))
        child.start()
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            child.join()
            pytest.fail("the forked child did not finish its draw within 60 s")
    assert child.exitcode == 0


def test_multi_block_draw_equals_its_row_draws():
    block = standard_normals(9, LABEL_WHITE_NOISE, np.arange(300)[:, None], np.arange(400))
    for r in range(300):
        row = standard_normals(9, LABEL_WHITE_NOISE, r, np.arange(400))
        assert np.array_equal(_bits(block[r]), _bits(row))


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(-(2**63), 2**64 - 1),
    rep0=st.integers(0, 5000),
    reps=st.integers(1, 3),
    start=st.integers(-40, 40),
    length=st.integers(0, 21),
    period=st.sampled_from([None, 2, 8, 64, 7]),
    picks=st.none() | st.lists(st.integers(0, 20), max_size=21),
)
def test_any_draw_equals_its_scalar_draws(seed, rep0, reps, start, length, period, picks):
    # a replicate column x a last-key window, as the mollifier draws it: any
    # start (negative, odd), any length, wrapped mod P or not; picks reorders
    # and repeats the window's words, so partners sit apart or are missing
    cells = np.arange(start, start + length)
    if period:
        cells %= period
    if picks is not None and length:
        cells = cells[np.array(picks, dtype=int) % length]
    col = np.arange(rep0, rep0 + reps)
    got = standard_normals(seed, LABEL_WHITE_NOISE, col[:, None], cells[None, :])
    want = [[standard_normals(seed, LABEL_WHITE_NOISE, int(r), int(k)) for k in cells] for r in col]
    assert np.array_equal(_bits(got), _bits(np.reshape(want, got.shape)))


def test_each_pair_is_hashed_once_per_row(monkeypatch):
    # words 2m and 2m + 1 share one hash per row wherever they sit on the last
    # axis and however often they repeat; the count is of hashed elements
    hashed = []
    pair = rng._pair

    def counting(h, words, *rest):
        hashed.append(math.prod(np.broadcast_shapes(np.shape(h), *map(np.shape, words))))
        return pair(h, words, *rest)

    monkeypatch.setattr(rng, "_pair", counting)
    for cells, count in [([0, 5, 1, 4], 4), ([6, 7, 6, 7], 2), (list(range(3, 11)), 10)]:
        hashed.clear()
        got = standard_normals(9, LABEL_WHITE_NOISE, np.arange(2)[:, None], np.array(cells))
        assert sum(hashed) == count, cells
        want = [[standard_normals(9, LABEL_WHITE_NOISE, r, k) for k in cells] for r in range(2)]
        assert np.array_equal(_bits(got), _bits(np.array(want)))


def test_lattice_mesh_draw_equals_its_scalar_draws():
    # (replicate, k1 column, k2 row), the sparse mesh lattice._noisy_weights draws
    reps, k1, k2 = np.arange(3), np.arange(-3, 4), np.array([-5, -4, 2, 3, 3, 8, -5, 1])
    mesh = np.meshgrid(k1, k2, indexing="ij", sparse=True)
    got = NoiseModel(base_seed=5).cell_multipliers(reps[:, None, None], *mesh)
    want = [[[standard_normals(5, LABEL_CELL_MULTIPLIER, r, a, b) for b in k2] for a in k1] for r in reps]
    assert np.array_equal(_bits(got), _bits(np.array(want)))


def test_a_variate_does_not_depend_on_its_partner():
    # -4 and -3 are one pair on uint64 words; -3 and -2 are not
    h = rng._mix(rng._mix(rng._u64(3) ^ rng._u64(LABEL_WHITE_NOISE)) ^ rng._u64(5))
    pair = np.array(rng._pair(h, [rng._u64(-4) >> np.uint64(1)]))
    ks = np.array([-4, -3, -2])
    together = standard_normals(3, LABEL_WHITE_NOISE, 5, ks)
    alone = [standard_normals(3, LABEL_WHITE_NOISE, 5, k) for k in ks]
    assert np.array_equal(_bits(together[:2]), _bits(pair))
    assert np.array_equal(_bits(together), _bits(np.array(alone)))
    tail = standard_normals(3, LABEL_WHITE_NOISE, 5, ks[1:])
    assert np.array_equal(_bits(together[1:]), _bits(tail))
    # no partners: words 0 and 1 under different replicates, an even word and
    # an odd word that is not its successor, neighbours that pair in one row only
    cases = [
        (np.arange(4), np.array([0, 1, 0, 1])),
        (5, np.array([0, 3, 4, 5])),
        (5, np.array([[0, 1], [1, 2]])),
    ]
    for reps, ks in cases:
        got = standard_normals(3, LABEL_WHITE_NOISE, reps, ks)
        words = zip(*(w.ravel() for w in np.broadcast_arrays(reps, ks)))
        alone = [standard_normals(3, LABEL_WHITE_NOISE, r, k) for r, k in words]
        assert np.array_equal(_bits(got.ravel()), _bits(np.array(alone)))


def test_lane_axis_draw_equals_the_single_lane_draws():
    # the burgers forcing: one call with the lane axis last, against one call per lane
    steps, modes = np.arange(1, 301)[:, None], np.arange(1, 5)[None, :]
    both = standard_normals(42, LABEL_FORCING, steps[..., None], modes[..., None], np.arange(2))
    for lane in (0, 1):
        one = standard_normals(42, LABEL_FORCING, steps, modes, lane)
        assert np.array_equal(_bits(both[..., lane]), _bits(one))


def test_a_draw_needs_a_key():
    with pytest.raises(ValueError, match="key"):
        standard_normals(42, LABEL_WHITE_NOISE, np.arange(3))


def test_trig_free_sine_is_within_its_bound():
    # theta = 2 pi u2 from the smallest angle 2 pi 2^-53, through angles near
    # pi and 2 pi, where cos rounds to +-1, to a uniform sweep
    u1 = math.exp(-0.5)  # r = 1 up to rounding
    near = np.concatenate([np.arange(1, 20001) * 2.0**-53 * k for k in (1, 997, 1e6)])
    u2 = np.concatenate([near, 0.5 - near, 0.5 + near, 1.0 - near, np.linspace(0, 1, 100001)[1:]])
    r = math.sqrt(-2.0 * math.log(u1))
    theta = 2.0 * np.pi * u2
    out = [np.empty(u2.shape) for _ in range(3)]
    z0, z1 = rng._box_muller(np.full(u2.shape, u1), u2.copy(), out)  # overwrites both inputs
    assert np.array_equal(z0, r * np.cos(theta))
    assert np.max(np.abs(z1 - r * np.sin(theta))) <= 1.1e-8


def test_words_must_be_integers():
    # int truncation would alias (0.9, 3.7) onto the draw of (0, 3)
    with pytest.raises(TypeError, match="integers"):
        standard_normals(1, 2, 0.9, 3.7)
    with pytest.raises(TypeError, match="integers"):
        standard_normals(1, 2, 0, np.arange(4.0))
    assert np.isfinite(standard_normals(1, 2, np.int32(0), np.uint8(3)))


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
    # a seed is one unsigned 64-bit word: 2^64 would alias seed 0, and -1 seed 2^64 - 1
    for seed in (2**64, -1, -(2**63), -(2**63) - 1):
        with pytest.raises(ValueError, match="base_seed must fit one 64-bit word"):
            NoiseModel(base_seed=seed)
    for seed in (2**64 - 1, 0):
        NoiseModel(base_seed=seed).white_noise(0, 3)
    nm = NoiseModel(sigma=0.2, base_seed=9)
    assert float(nm.white_noise(0, 3)) == float(nm.white_noise(0, 3))
    assert float(nm.white_noise(0, 3)) != float(nm.cell_multipliers(0, 3))


@pytest.mark.parametrize("sigma", [0.05, 0.2, 1.0])
@pytest.mark.parametrize("measure", [1.0, 2 * math.pi / 4096, 0.25])
def test_increments_follow_the_ito_law(sigma, measure):
    # the law sigma^2 |c| is written here independently of the code under test
    nm = NoiseModel(sigma=sigma, base_seed=5)
    cells = 2**16
    dw = nm.increment_scale(measure) * nm.white_noise(0, np.arange(cells))
    law = sigma**2 * measure
    se = law * math.sqrt(2.0 / (cells - 1))
    assert abs(float(np.var(dw, ddof=1)) - law) < 5 * se
    # the closed forms' sigma^2 |c| and the draws' (sigma sqrt|c|)^2 agree to rounding
    assert nm.increment_variance(measure) == pytest.approx(nm.increment_scale(measure) ** 2, rel=1e-15)


@pytest.mark.parametrize("sigma", [0.05, 0.1, 0.2, 1 / 3, 0.7])
def test_unit_measure_keeps_sigma_bit_for_bit(sigma):
    # the lattice reads each cell as unit measure, and its pinned bits rely on this
    nm = NoiseModel(sigma=sigma)
    assert nm.increment_scale(1.0).hex() == float(sigma).hex()
    assert nm.increment_variance(1.0).hex() == float(sigma**2).hex()


def test_draw_peaks_near_its_output_size():
    # the blocked draw keeps its hash temporaries to one row block per thread
    tracemalloc.start()
    try:
        out = standard_normals(42, LABEL_WHITE_NOISE, np.arange(488)[:, None], np.arange(4096))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * out.nbytes


def test_one_noise_model_drives_both_operators():
    # each operator draws from the stream of the method it calls
    nm = NoiseModel(sigma=0.3, base_seed=11)
    reps = np.arange(6)

    n, p = 10, KernelParams()
    ks, terms = lattice._terms(np.sin, np.array([[0.37]]), n, p)
    w = standard_normals(11, LABEL_CELL_MULTIPLIER, reps[:, None], ks[0, 0])
    direct = np.sum((1.0 + 0.3 * w) * terms[0], axis=-1)
    assert np.array_equal(_bits(lattice.sample(np.sin, 0.37, n, p, nm, reps)), _bits(direct))

    u = sample_on_grid(PeriodicGrid(2 * np.pi, 1024), np.sin)
    kernel = ScaledKernel(8)
    cells, vals = _point_window(u, kernel, 300)
    xi = standard_normals(11, LABEL_WHITE_NOISE, reps[:, None], cells[None, :])
    direct = float(np.sum(vals) * u.spacing) + 0.3 * math.sqrt(u.spacing) * (xi @ vals)
    got = stochastic_samples_at(u, [kernel], nm, reps.size, 300)[0]
    assert np.array_equal(_bits(got), _bits(direct))
