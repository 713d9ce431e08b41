import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfcx

from fracstoch.fields import Field, PeriodicGrid, sample_on_grid
from fracstoch.fractional import (
    TimeGrid,
    caputo_l1,
    frac_laplacian,
    gagliardo_seminorm,
    mittag_leffler,
)
from fracstoch.turbulence import FracFlowParams

# frozen 40-digit mpmath series values for the Mittag-Leffler oracle
ML_ORACLE = {
    (0.5, -1.0): 0.4275835761558070,
    (0.3, -2.0): 0.2902322261678754,
    (0.7, -0.5): 0.6051475920595643,
    (0.5, -3.0): 0.1790011511813900,
}


def test_frac_order_rejects_endpoints():
    tg = TimeGrid(0.0, 1.0, 4)
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError, match="alpha must lie strictly in"):
            FracFlowParams(bad)
        with pytest.raises(ValueError, match="alpha must lie strictly in"):
            caputo_l1(tg.nodes(), tg, bad)
    # the order is stored as the float it was checked as
    assert type(FracFlowParams(np.float32(0.5)).alpha) is float


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0.0, 16)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 1)
    g = TimeGrid(0.0, 2.0, 8)
    assert g.h == 0.25
    assert g.nodes()[-1] == pytest.approx(2.0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Field(np.zeros(8), math.inf),
        lambda: Field(np.zeros(8), math.nan),
        lambda: Field(np.full(8, np.nan), 0.1),
        lambda: Field(np.array([0.0] * 7 + [-math.inf]), 0.1),
        lambda: PeriodicGrid(math.inf, 8),
        lambda: TimeGrid(0.0, math.inf, 4),
        lambda: TimeGrid(-math.inf, 1.0, 4),
        lambda: TimeGrid(math.nan, 1.0, 4),
        lambda: caputo_l1(np.array([0.0, math.nan, 1.0]), TimeGrid(0.0, 1.0, 2), 0.5),
    ],
    ids=[
        "field_inf_spacing",
        "field_nan_spacing",
        "field_nan_values",
        "field_inf_value",
        "grid_inf_length",
        "time_inf_end",
        "time_inf_start",
        "time_nan_start",
        "caputo_nan_sample",
    ],
)
def test_non_finite_inputs_are_rejected(build):
    with pytest.raises(ValueError, match="finite"):
        build()


def test_field_values_must_be_1d():
    with pytest.raises(ValueError, match="1D"):
        Field(np.zeros((8, 8)), 0.25)


@pytest.mark.parametrize("points", [4, 24])
def test_field_takes_periodic_grid_sizes_only(points):
    # the PeriodicGrid rule: a power of two, at least 8
    with pytest.raises(ValueError, match="power of two >= 8"):
        Field(np.sin(2 * np.pi * np.arange(points) / points), 2 * np.pi / points)


def test_periodic_grid_names_points_given_a_float():
    with pytest.raises(ValueError, match="points must be an integer"):
        PeriodicGrid(1.0, 16.0)


def test_field_is_frozen():
    # the grid rule is checked once, at construction, so it must hold after it
    f = Field(np.zeros(16), 0.1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.values = np.zeros(24)
    assert f.points == 16


def test_mittag_leffler_mpmath_table():
    assert mittag_leffler(0.42, 0.0) == 1.0
    for (a, z), ref in ML_ORACLE.items():
        assert mittag_leffler(a, z) == pytest.approx(ref, abs=1e-13)


def test_mittag_leffler_alpha_to_one_limit():
    zs = np.linspace(-5.0, 0.0, 21)
    errs = [abs(mittag_leffler(1 - 1e-8, z) - math.exp(z)) for z in zs]
    assert max(errs) < 1e-8


def test_mittag_leffler_half_is_erfcx():
    # E_{1/2}(z) = erfcx(-z), far past where a power series cancels
    zs = -np.geomspace(1e-3, 1e4, 200)
    got = np.array([mittag_leffler(0.5, z) for z in zs])
    np.testing.assert_allclose(got, erfcx(-zs), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.7])
def test_mittag_leffler_large_z_expansion(alpha):
    # E_a(z) ~ sum_k (-1)^(k+1) |z|^-k / Gamma(1 - a k); three terms leave
    # an O(|z|^-4) remainder, about 1e-12 relative at z = -1e4
    z = -1e4
    ref = sum((-1) ** (k + 1) * abs(z) ** -k / math.gamma(1 - alpha * k) for k in (1, 2, 3))
    assert mittag_leffler(alpha, z) == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("alpha", [0.05, 0.5, 0.999])
def test_mittag_leffler_is_positive_and_decreasing(alpha):
    # E_a(-x) is completely monotone in x for a in (0, 1]
    vals = np.array([mittag_leffler(alpha, z) for z in -np.geomspace(1e-3, 1e3, 300)])
    assert np.all(vals > 0.0)
    assert np.all(np.diff(vals) < 0.0)


def test_mittag_leffler_rejections():
    with pytest.raises(ValueError):
        mittag_leffler(0.5, 0.1)
    for z in (math.nan, -math.inf, math.inf):
        with pytest.raises(ValueError, match="needs a finite z"):
            mittag_leffler(0.5, z)


def test_caputo_constant_is_zero():
    g = TimeGrid(0.0, 1.0, 64)
    out = caputo_l1(np.full(65, 7.0), g, 0.5)
    assert np.max(np.abs(out)) == 0.0


def test_caputo_closed_forms():
    g = TimeGrid(0.0, 1.0, 512)
    t = g.nodes()
    # f = t is reproduced exactly (piecewise-linear interpolation is f itself)
    d1 = caputo_l1(t, g, 0.5)
    assert d1[0] == 0.0
    assert d1[-1] == pytest.approx(1.0 / math.gamma(1.5), abs=1e-13)
    assert 1.0 / math.gamma(1.5) == pytest.approx(1.1283791670955126, abs=1e-12)
    d2 = caputo_l1(t**2, g, 0.5)
    assert d2[-1] == pytest.approx(2.0 / math.gamma(2.5), abs=1e-3)
    assert 2.0 / math.gamma(2.5) == pytest.approx(1.5045055561273502, abs=1e-12)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
def test_caputo_l1_order(alpha):
    errs = []
    steps_list = (64, 128, 256, 512, 1024)
    for steps in steps_list:
        g = TimeGrid(0.0, 1.0, steps)
        t = g.nodes()
        exact = 2.0 * t[1:] ** (2 - alpha) / math.gamma(3 - alpha)
        errs.append(np.max(np.abs(caputo_l1(t**2, g, alpha)[1:] - exact)))
    A = np.vstack([np.log(steps_list), np.ones(len(steps_list))]).T
    slope = np.linalg.lstsq(A, np.log(errs), rcond=None)[0][0]
    assert abs(slope + (2 - alpha)) <= 0.2


@pytest.mark.parametrize("alpha", [0.3, 0.7])
def test_caputo_l1_large_m_matches_direct_sum(alpha):
    m = 1 << 15
    g = TimeGrid(0.0, 1.0, m)
    t = g.nodes()
    exact = t[1:] ** (1 - alpha) / math.gamma(2 - alpha)
    assert np.max(np.abs(caputo_l1(2.0 * t - 1.0, g, alpha)[1:] - 2.0 * exact)) < 1e-12
    rng = np.random.default_rng(7)
    f = np.concatenate(([0.0], np.cumsum(rng.standard_normal(m)) * math.sqrt(g.h)))
    out = caputo_l1(f, g, alpha)
    r = np.arange(m, dtype=float)
    b = (r + 1.0) ** (1.0 - alpha) - r ** (1.0 - alpha)
    df = np.diff(f)
    scale = g.h ** (-alpha) / math.gamma(2.0 - alpha)
    for j in [1, 2, m, *rng.integers(3, m, 5)]:
        terms = b[j - 1 :: -1] * df[:j]
        ref = float(np.sum(terms)) * scale
        assert abs(out[j] - ref) <= 1e-10 * float(np.sum(np.abs(terms))) * scale


def test_caputo_l1_peak_memory_at_large_m():
    # the weights' spectrum is gone before the last inverse FFT: the peak is
    # about 4.0 MiB at m = 2^16 (5.0 MiB while the spectrum was held)
    g = TimeGrid(0.0, 1.0, 1 << 16)
    f = np.sin(g.nodes())
    tracemalloc.start()
    try:
        caputo_l1(f, g, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * 2**20


def test_caputo_input_validation():
    g = TimeGrid(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        caputo_l1(np.ones(3), g, 0.5)  # wrong node count
    with pytest.raises(ValueError):
        caputo_l1(np.ones(1), g, 0.5)


def test_gagliardo_examples():
    x = np.arange(1024) / 1023.0  # [0, 1] at spacing 1/1023
    assert gagliardo_seminorm(Field(np.full(1024, 3.0), 1 / 1023.0), 0.5) == 0.0
    assert gagliardo_seminorm(Field(x, 1 / 1023.0), 0.5) == pytest.approx(1.0, abs=1e-12)
    x2 = -1.0 + np.arange(1024) / 512.0  # [-1, 1) with 0 on the grid
    v = gagliardo_seminorm(Field(np.abs(x2) ** 0.5, 1 / 512.0), 0.5)
    assert v >= 1.0 - 1e-9


def _gagliardo_all_pairs(u, a):
    """Reference: every pair i < j, one row i at a time, over the same (L h)^a."""
    f = u.values
    reach = np.array([(lag * u.spacing) ** a for lag in range(1, u.points)])
    best = 0.0
    for i in range(u.points - 1):
        best = max(best, float(np.max(np.abs(f[i + 1 :] - f[i]) / reach[: u.points - 1 - i])))
    return best


@pytest.mark.parametrize("kind", ["random", "constant", "kink"])
def test_gagliardo_lag_scan_equals_all_pairs(kind):
    rng = np.random.default_rng(11)
    for _ in range(25):
        grid = PeriodicGrid(float(rng.uniform(0.1, 10.0)), 2 ** int(rng.integers(3, 10)))
        a = float(rng.uniform(0.05, 0.99))
        if kind == "random":
            u = Field(rng.standard_normal(grid.points), grid.spacing)
        elif kind == "constant":
            u = sample_on_grid(grid, lambda x: np.full_like(x, -1.5))
        else:
            k = 2.0 * np.pi * float(rng.uniform(0.5, 3.0)) / grid.length
            u = sample_on_grid(grid, lambda x: np.abs(np.sin(k * x)) ** a)
        assert gagliardo_seminorm(u, a).hex() == _gagliardo_all_pairs(u, a).hex()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_gagliardo_rejects_non_finite_samples(bad):
    # the seminorm reads a Field, and a Field refuses non-finite samples
    f = np.sin(7 * PeriodicGrid(1.0, 256).coords())
    f[150] = bad
    with pytest.raises(ValueError, match="finite"):
        Field(f, 1.0 / 256)


@pytest.fixture(scope="module")
def unit_grid():
    return PeriodicGrid(1.0, 128)


@given(c=st.sampled_from([0.5, 2.0, 4.0, -8.0, 0.25]))
@settings(max_examples=10, deadline=None)
def test_gagliardo_scale_covariance_exact_for_pow2(unit_grid, c):
    u = sample_on_grid(unit_grid, lambda x: np.sin(3 * x) + 0.3 * x)
    assert gagliardo_seminorm(u.copy_with(c * u.values), 0.4) == abs(c) * gagliardo_seminorm(u, 0.4)


@given(c=st.floats(0.1, 10.0))
@settings(max_examples=30, deadline=None)
def test_gagliardo_scale_covariance_general(unit_grid, c):
    u = sample_on_grid(unit_grid, lambda x: np.sin(3 * x))
    assert gagliardo_seminorm(u.copy_with(c * u.values), 0.4) == pytest.approx(
        c * gagliardo_seminorm(u, 0.4), rel=1e-12
    )


@pytest.fixture(scope="module")
def pgrid():
    return PeriodicGrid(2 * np.pi, 256)


def test_frac_laplacian_eigenfunction(pgrid):
    u = sample_on_grid(pgrid, lambda x: np.sin(3 * x))
    out = frac_laplacian(u, 0.7)
    expected = 3.0**1.4 * np.sin(3 * pgrid.coords())
    assert np.max(np.abs(out.values - expected)) < 1e-10


def test_frac_laplacian_kills_constants(pgrid):
    u = sample_on_grid(pgrid, lambda x: np.full_like(x, 4.2))
    assert np.max(np.abs(frac_laplacian(u, 0.5).values)) == 0.0


def test_frac_laplacian_linearity_over_modes(pgrid):
    u = sample_on_grid(pgrid, lambda x: np.sin(x) + np.sin(4 * x))
    out = frac_laplacian(u, 0.5)
    x = pgrid.coords()
    assert np.max(np.abs(out.values - (np.sin(x) + 4 * np.sin(4 * x)))) < 1e-10


def test_frac_laplacian_matches_classical_at_s1(pgrid):
    u = sample_on_grid(pgrid, lambda x: np.sin(x) + np.sin(4 * x))
    x = pgrid.coords()
    classical = np.sin(x) + 16.0 * np.sin(4 * x)
    assert np.max(np.abs(frac_laplacian(u, 1.0).values - classical)) < 1e-10


def test_frac_laplacian_composition(pgrid):
    u = sample_on_grid(pgrid, lambda x: np.sin(x) + 0.5 * np.cos(5 * x))
    once = frac_laplacian(frac_laplacian(u, 0.3), 0.45)
    combined = frac_laplacian(u, 0.75)
    assert np.max(np.abs(once.values - combined.values)) < 1e-10


def test_frac_laplacian_rejects_bad_grids():
    with pytest.raises(ValueError):
        frac_laplacian(Field(np.zeros(24), 0.1), 0.5)  # not a power of two
    with pytest.raises(ValueError):
        PeriodicGrid(1.0, 24)


@pytest.mark.parametrize("s", [0.0, -0.5, math.nan, math.inf])
def test_frac_laplacian_refuses_s_off_the_positive_reals(pgrid, s):
    # s = inf raised numpy's "invalid value" in the symbol |xi|^{2s}
    u = sample_on_grid(pgrid, np.sin)
    with pytest.raises(ValueError, match="^s must be positive and finite"):
        frac_laplacian(u, s)
