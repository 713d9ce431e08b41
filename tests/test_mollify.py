import math
import tracemalloc

import numpy as np
import pytest

from fracstoch import mollify as mollify_module
from fracstoch.fields import Field, PeriodicGrid, sample_on_grid
from fracstoch.mollify import (
    MseParts,
    ScaledKernel,
    c_phi,
    mollify,
    mse_decomposition,
    stochastic_samples_at,
    variance_quadrature,
)
from fracstoch.rng import NoiseModel

# 40-digit quadrature constants for the unit bump (frozen oracles)
BUMP_C_1D = 2.2522836210435810
BUMP_PHI0_1D = 0.8285688398691052
C_PHI_05_1D = 0.5402691222292717


@pytest.fixture(scope="module")
def grid():
    return PeriodicGrid(2 * np.pi, 4096)


@pytest.fixture(scope="module")
def u_sin(grid):
    return sample_on_grid(grid, np.sin)


def test_make_bump_contracts():
    # the unit bump is the n = 1 kernel
    bump = ScaledKernel(1)
    assert mollify_module._bump_norm() == pytest.approx(BUMP_C_1D, abs=1e-10)
    assert float(bump(0.0)) == pytest.approx(BUMP_PHI0_1D, abs=1e-10)
    assert float(bump(1.0)) == 0.0
    assert float(bump(-1.0)) == 0.0
    assert float(bump(1.0001)) == 0.0


def test_bump_reuses_one_read_only_legendre_rule():
    # the normalization of an uncached build, bit for bit, on every call
    x, w = np.polynomial.legendre.leggauss(160)
    expected = (1.0 / float(np.sum(w * mollify_module._bump_profile(x)))).hex()
    mollify_module._bump_norm.cache_clear()
    assert [mollify_module._bump_norm().hex() for _ in range(3)] == [expected] * 3
    nodes, weights = mollify_module._legendre_rule(160)
    assert mollify_module._legendre_rule(160)[0] is nodes
    for a in (nodes, weights):
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_scaled_kernel_evaluation():
    bump = ScaledKernel(1)
    k = ScaledKernel(8)
    assert float(k(0.0)) == pytest.approx(8.0 * float(bump(0.0)), rel=1e-14)
    assert float(k(0.2)) == pytest.approx(8.0 * float(bump(1.6)), rel=1e-14)
    assert k.support_radius == 0.125
    assert k.mass == 1.0
    kg = ScaledKernel(8, gamma=0.5)
    assert kg.mass == pytest.approx(8.0**-0.5)
    assert float(kg(0.0)) == pytest.approx(8.0**0.5 * float(bump(0.0)), rel=1e-14)
    with pytest.raises(ValueError):
        ScaledKernel(0)
    with pytest.raises(ValueError):
        ScaledKernel(4, gamma=-0.1)
    # a mass n^-gamma that underflows would divide by zero in every stencil
    for gamma in (400.0, math.inf):
        with pytest.raises(ValueError, match="gamma"):
            ScaledKernel(8, gamma=gamma)


def test_mollify_reproduces_constants(grid):
    u = sample_on_grid(grid, lambda x: np.full_like(x, 2.5))
    for n in (4, 16, 64):
        out = mollify(u, ScaledKernel(n))
        assert np.max(np.abs(out.values - 2.5)) < 1e-12


def test_mollify_rejects_coarse_grid():
    u = Field(np.zeros(64), spacing=2 * np.pi / 64)
    with pytest.raises(ValueError, match="too coarse"):
        mollify(u, ScaledKernel(64))
    with pytest.raises(ValueError, match="too coarse"):
        variance_quadrature(u, ScaledKernel(16), NoiseModel(sigma=0.1), 3)


def test_mollify_smooth_rate(grid, u_sin):
    errs = []
    ns = (4, 8, 16, 32)
    for n in ns:
        out = mollify(u_sin, ScaledKernel(n))
        errs.append(np.max(np.abs(out.values - u_sin.values)))
    A = np.vstack([np.log(ns), np.ones(len(ns))]).T
    slope = np.linalg.lstsq(A, np.log(errs), rcond=None)[0][0]
    assert slope == pytest.approx(-2.0, abs=0.2)


def test_mollify_gamma_scaling_identity(u_sin):
    out0 = mollify(u_sin, ScaledKernel(8))
    outg = mollify(u_sin, ScaledKernel(8, gamma=0.5))
    assert np.allclose(outg.values, 8.0**-0.5 * out0.values, rtol=1e-12, atol=1e-15)


def _wrapped_sum(values, u, kernel):
    """Direct periodic sum  sum_k raw_k values[(i - off_k) mod P], row i."""
    off, raw = mollify_module._stencil(u, kernel)
    cells = (np.arange(u.points)[:, None] - off[None, :]) % u.points
    return values[cells] @ raw


# (points, spacing, n): power-of-two grids, a grid of 24 points, and a
# stencil of 21 offsets folded onto 16 points
WRAP_CASES = [
    (4096, 2 * np.pi / 4096, 8),
    (4096, 2 * np.pi / 4096, 64),
    (16, 0.1, 1),
]


@pytest.mark.parametrize("points,spacing,n", WRAP_CASES)
def test_mollify_matches_direct_wrapped_sum(points, spacing, n):
    u = Field(np.random.default_rng(points + n).standard_normal(points), spacing)
    k = ScaledKernel(n)
    direct = _wrapped_sum(u.values, u, k) * spacing
    assert np.max(np.abs(mollify(u, k).values - direct)) <= 1e-14


@pytest.mark.parametrize("points,spacing,n", WRAP_CASES)
def test_stochastic_samples_are_mean_plus_weighted_noise_sum(points, spacing, n):
    # dZ_j = h + sigma h^{1/2} xi_j: the mean smoother plus sigma sqrt(h) sum_j u_j xi_j raw_j
    u = Field(np.random.default_rng(points + n).standard_normal(points), spacing)
    k = ScaledKernel(n)
    nm = NoiseModel(sigma=0.5, base_seed=5)
    xi = nm.white_noise(np.arange(4)[:, None], np.arange(points))
    noise_sums = np.array([_wrapped_sum(u.values * row, u, k) for row in xi])
    direct = mollify(u, k).values + 0.5 * math.sqrt(spacing) * noise_sums
    # the first, middle and last cells, each window wrapped where it leaves the grid
    for index in (0, points // 2, points - 1):
        samples = stochastic_samples_at(u, [k], nm, 4, index)[0]
        assert np.max(np.abs(samples - direct[:, index])) <= 1e-12


def test_c_phi_values():
    assert c_phi(0.5) == pytest.approx(C_PHI_05_1D, abs=1e-10)
    assert c_phi(1e-9) == pytest.approx(1.0, abs=1e-5)
    assert c_phi(1.0) < 1.0


@pytest.mark.parametrize("alpha", [1.5, 1e6, math.inf])
def test_c_phi_refuses_alpha_above_one(alpha):
    # a Hoelder exponent lies in (0, 1]; far above it the quadrature returned NaN
    with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\]"):
        c_phi(alpha)


def test_monte_carlo_mean_and_variance(u_sin):
    nm = NoiseModel(sigma=0.5, base_seed=5)
    k = ScaledKernel(8)
    R = 10_000
    draws = stochastic_samples_at(u_sin, [k], nm, R, 700)[0]
    det = mollify(u_sin, k).values[700]
    se = np.std(draws, ddof=1) / math.sqrt(R)
    assert abs(np.mean(draws) - det) <= 3 * se
    cf = variance_quadrature(u_sin, k, nm, 700)
    se_var = cf * math.sqrt(2.0 / (R - 1))
    assert abs(np.var(draws, ddof=1) - cf) <= 3 * se_var


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize(
    "head,tail,chunk", [(0, 32, 4096), (20, 12, 4096), (7, 37, 10), (20, 37, 10)]
)
def test_shared_window_matches_single_kernel_draws(monkeypatch, u_sin, head, tail, chunk):
    # nested windows n = 4..32 read one draw of head + tail replicates: each
    # row must equal that kernel's own draw over the same replicates, bit for bit
    monkeypatch.setattr(mollify_module, "_REPLICATE_CHUNK", chunk)
    nm = NoiseModel(sigma=0.5, base_seed=5)
    kernels = [ScaledKernel(n) for n in (4, 8, 16, 32)]
    replicates = head + tail
    shared = stochastic_samples_at(u_sin, kernels, nm, replicates, 700)
    assert shared.shape == (len(kernels), replicates)
    for k, row in zip(kernels, shared):
        alone = stochastic_samples_at(u_sin, [k], nm, replicates, 700)[0]
        assert np.array_equal(_bits(row), _bits(alone))
    # a longer draw starts with the shorter one along chunk boundaries (the
    # BLAS matvec may round a row differently when a call holds other rows)
    if head and head % chunk == 0:
        first = stochastic_samples_at(u_sin, kernels, nm, head, 700)
        assert np.array_equal(_bits(shared[:, :head]), _bits(first))


def test_pointwise_draw_holds_one_noise_chunk_at_a_time(u_sin):
    # 20000 replicates over the n = 4 window (327 cells) come in five
    # chunks of 4096 x 327 float64 (10.2 MiB); each must be released
    # before the next one is drawn
    kernels = [ScaledKernel(n) for n in (4, 8, 16, 32)]
    nm = NoiseModel(sigma=0.1, base_seed=11)
    chunk_bytes = mollify_module._REPLICATE_CHUNK * 327 * 8
    tracemalloc.start()
    try:
        stochastic_samples_at(u_sin, kernels, nm, 20000, 819)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * chunk_bytes, f"peak {peak / 2**20:.1f} MiB"


def test_mse_table_matches_single_calls(u_sin):
    kernels = [ScaledKernel(8), ScaledKernel(16, gamma=0.5), ScaledKernel(32)]
    noises = [NoiseModel(sigma=sg, base_seed=5) for sg in (0.1, 0.3)]
    table = mse_decomposition(u_sin, 1.2, kernels, noises, 300)
    for k, row in zip(kernels, table):
        assert mse_decomposition(u_sin, 1.2, [k], noises, 300) == [row]
        for nm, parts in zip(noises, row):
            assert mse_decomposition(u_sin, 1.2, [k], [nm], 300) == [[parts]]
    other_seed = NoiseModel(sigma=0.1, base_seed=6)
    with pytest.raises(ValueError, match="share"):
        mse_decomposition(u_sin, 1.2, kernels, [noises[0], other_seed], 300)


def test_variance_growth_with_n(u_sin):
    nm = NoiseModel(sigma=0.5, base_seed=5)
    ns = (4, 8, 16, 32)
    vs = [variance_quadrature(u_sin, ScaledKernel(n), nm, 700) for n in ns]
    A = np.vstack([np.log(ns), np.ones(len(ns))]).T
    slope = np.linalg.lstsq(A, np.log(vs), rcond=None)[0][0]
    assert slope == pytest.approx(1.0, abs=0.3)


def test_empty_kernel_or_noise_sequences_are_rejected(u_sin):
    nm = NoiseModel(sigma=0.3, base_seed=5)
    k = ScaledKernel(8)
    with pytest.raises(ValueError, match="kernels"):
        stochastic_samples_at(u_sin, [], nm, 4, 3)
    with pytest.raises(ValueError, match="kernels"):
        mse_decomposition(u_sin, 1.2, [], [nm], 100)
    with pytest.raises(ValueError, match="noises"):
        mse_decomposition(u_sin, 1.2, [k], [], 100)


def test_mse_decomposition(u_sin):
    nm = NoiseModel(sigma=0.3, base_seed=5)
    parts = mse_decomposition(u_sin, 1.2, [ScaledKernel(16)], [nm], 4000)[0][0]
    assert isinstance(parts, MseParts)
    assert abs(parts.mse - parts.bias_sq - parts.variance) <= 3 * parts.mse_se
    # sigma = 0: variance collapses (down to np.var mean-roundoff), mse = bias^2
    nm0 = NoiseModel(sigma=0.0, base_seed=5)
    p0 = mse_decomposition(u_sin, 1.2, [ScaledKernel(16)], [nm0], 200)[0][0]
    assert p0.variance < 1e-30
    assert p0.mse == pytest.approx(p0.bias_sq, rel=1e-12)
    with pytest.raises(ValueError):
        mse_decomposition(u_sin, 1.2, [ScaledKernel(16)], [nm], 50)


def test_mse_constant_field(grid):
    u = sample_on_grid(grid, lambda x: np.full_like(x, 3.0))
    nm = NoiseModel(sigma=0.2, base_seed=5)
    parts = mse_decomposition(u, 1.0, [ScaledKernel(16)], [nm], 2000)[0][0]
    assert parts.bias_sq < 1e-20
    # mse and variance differ only by the 1/R mean-estimation term
    assert parts.mse == pytest.approx(parts.variance, rel=0.01)


def test_mse_tradeoff_bias_down_variance_up(u_sin):
    nm = NoiseModel(sigma=0.3, base_seed=5)
    parts = [
        mse_decomposition(u_sin, 1.2, [ScaledKernel(n)], [nm], 4000)[0][0]
        for n in (8, 16, 32, 64)
    ]
    biases = [p.bias_sq for p in parts]
    variances = [p.variance for p in parts]
    assert all(b < a for a, b in zip(biases, biases[1:]))
    assert all(b > a for a, b in zip(variances, variances[1:]))


def test_scaled_kernel_unit_mass_every_n():
    # int phi_n = 1 for gamma = 0 at every n, by independent quadrature
    x, w = np.polynomial.legendre.leggauss(200)
    for n in (1, 4, 16, 64):
        k = ScaledKernel(n)
        r = k.support_radius
        nodes = r * x
        mass = float(np.sum(r * w * k(nodes)))
        assert mass == pytest.approx(1.0, abs=1e-8)

