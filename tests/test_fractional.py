import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracstoch.fields import PeriodicGrid, sample_on_grid
from fracstoch.fractional import (
    FracOrder,
    TimeGrid,
    caputo_l1,
    frac_laplacian,
    gagliardo_seminorm,
    gamma_fn,
    mittag_leffler,
)

# frozen 40-digit mpmath series values for the Mittag-Leffler oracle
ML_ORACLE = {
    (0.5, -1.0): 0.4275835761558070,
    (0.3, -2.0): 0.2902322261678754,
    (0.7, -0.5): 0.6051475920595643,
    (0.5, -3.0): 0.1790011511813900,
}


def test_frac_order_rejects_endpoints():
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            FracOrder(bad)
    assert FracOrder(0.5).alpha == 0.5


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0.0, 16)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 1)
    g = TimeGrid(0.0, 2.0, 8)
    assert g.h == 0.25
    assert g.nodes()[-1] == pytest.approx(2.0)


def test_gamma_identities():
    assert gamma_fn(1.0) == 1.0
    assert gamma_fn(5.0) == 24.0
    assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    # recursion and reflection sanity at non-special points
    for x in (0.3, 1.7, 4.2):
        assert gamma_fn(x + 1.0) == pytest.approx(x * gamma_fn(x), rel=1e-13)
    x = 0.27
    assert gamma_fn(x) * gamma_fn(1 - x) == pytest.approx(math.pi / math.sin(math.pi * x), rel=1e-13)
    with pytest.raises(ValueError):
        gamma_fn(0.0)
    with pytest.raises(ValueError):
        gamma_fn(-1.3)


def test_mittag_leffler_series_oracle():
    assert mittag_leffler(0.42, 0.0) == 1.0
    for (a, z), ref in ML_ORACLE.items():
        assert mittag_leffler(a, z) == pytest.approx(ref, abs=1e-10)


def test_mittag_leffler_alpha_to_one_limit():
    zs = np.linspace(-5.0, 0.0, 21)
    errs = [abs(mittag_leffler(1 - 1e-8, z) - math.exp(z)) for z in zs]
    assert max(errs) < 1e-8


def test_mittag_leffler_rejections():
    with pytest.raises(ValueError):
        mittag_leffler(0.5, 0.1)
    with pytest.raises(ValueError):
        mittag_leffler(0.5, -80.0)  # cancellation would exceed the error budget


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


def test_caputo_input_validation():
    g = TimeGrid(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        caputo_l1(np.ones(3), g, 0.5)  # wrong node count
    with pytest.raises(ValueError):
        caputo_l1(np.ones(1), g, 0.5)


def test_gagliardo_examples():
    x = np.linspace(0.0, 1.0, 801)
    assert gagliardo_seminorm(np.full_like(x, 3.0), x, 0.5) == 0.0
    assert gagliardo_seminorm(x, x, 0.5) == pytest.approx(1.0, abs=1e-12)
    x2 = np.linspace(-1.0, 1.0, 801)
    v = gagliardo_seminorm(np.abs(x2) ** 0.5, x2, 0.5)
    assert v >= 1.0 - 1e-9


def _gagliardo_all_pairs(f, x, a):
    """Reference: every pair i < j with x_i != x_j, one row i at a time."""
    best = 0.0
    for i in range(f.size - 1):
        num = np.abs(f[i + 1 :] - f[i])
        den = np.abs(x[i + 1 :] - x[i])
        keep = den > 0
        if keep.any():
            best = max(best, float(np.max(num[keep] / den[keep] ** a)))
    return best


@pytest.mark.parametrize("layout", ["sorted", "unsorted", "duplicated", "grid"])
def test_gagliardo_lag_scan_equals_all_pairs(layout):
    rng = np.random.default_rng(11)
    for case in range(25):
        P = 2 if case == 0 else int(rng.integers(3, 120))
        x = rng.uniform(-3.0, 3.0, P)
        if layout == "sorted":
            x = np.sort(x)
        elif layout == "duplicated":
            x = np.round(x, 1)
        elif layout == "grid":
            x = np.linspace(0.0, 2 * np.pi, P, endpoint=False)
        f = np.abs(np.sin(x)) ** 0.4 if case % 2 else rng.standard_normal(P)
        if case % 7 == 3:
            f = np.full(P, -1.5)
        a = float(rng.uniform(0.05, 0.99))
        assert gagliardo_seminorm(f, x, a).hex() == _gagliardo_all_pairs(f, x, a).hex()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_gagliardo_rejects_non_finite_samples(bad):
    x = np.linspace(0.0, 1.0, 200)
    f = np.sin(7 * x)
    f[150] = bad
    with pytest.raises(ValueError, match="finite"):
        gagliardo_seminorm(f, x, 0.5)
    x[150] = bad
    with pytest.raises(ValueError, match="finite"):
        gagliardo_seminorm(np.sin(7 * np.linspace(0.0, 1.0, 200)), x, 0.5)


@given(c=st.sampled_from([0.5, 2.0, 4.0, -8.0, 0.25]))
@settings(max_examples=10, deadline=None)
def test_gagliardo_scale_covariance_exact_for_pow2(c):
    x = np.linspace(0.0, 1.0, 101)
    f = np.sin(3 * x) + 0.3 * x
    assert gagliardo_seminorm(c * f, x, 0.4) == abs(c) * gagliardo_seminorm(f, x, 0.4)


@given(c=st.floats(0.1, 10.0))
@settings(max_examples=30, deadline=None)
def test_gagliardo_scale_covariance_general(c):
    x = np.linspace(0.0, 1.0, 101)
    f = np.sin(3 * x)
    assert gagliardo_seminorm(c * f, x, 0.4) == pytest.approx(
        c * gagliardo_seminorm(f, x, 0.4), rel=1e-12
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
    from fracstoch.fields import Field

    with pytest.raises(ValueError):
        frac_laplacian(Field(np.zeros(24), 0.1), 0.5)  # not a power of two
    with pytest.raises(ValueError):
        PeriodicGrid(1.0, 24)
