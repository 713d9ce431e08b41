import math

import numpy as np
import pytest
from scipy.integrate import fixed_quad

from fracstoch.fields import kink_field
from fracstoch.kernels import KernelParams, TailBoundWarning
from fracstoch.lattice import (
    apply_expectation,
    kernel_moment,
    multi_indices,
    sample,
    variance_closed_form,
    voronovskaya_remainder,
)
from fracstoch.rng import NoiseModel

P1 = KernelParams()


# independent kernel route: g_{q,lam}(x) = tanh(lam x - ln(q)/2)
def _phi_oracle(q, lam, x):
    def m(qq, y):
        c = math.log(qq) / 2.0
        return 0.25 * (np.tanh(lam * (y + 1) - c) - np.tanh(lam * (y - 1) - c))

    return 0.5 * (m(q, x) + m(1.0 / q, x))


def _expectation_oracle(f, x, n, q=1.0, lam=1.0, K=200):
    total = 0.0
    for k in range(-K, K + 1):
        avg, _ = fixed_quad(f, k / n, (k + 1) / n, n=30)
        total += n * avg * _phi_oracle(q, lam, n * x - k)
    return total


def test_resolution_must_be_at_least_one():
    nm = NoiseModel(sigma=0.3, base_seed=1)
    calls = [
        lambda: apply_expectation(np.sin, 0.37, 0, P1),
        lambda: apply_expectation(np.sin, np.array([[0.3], [0.4]]), 0, P1),
        lambda: sample(np.sin, 0.37, 0, P1, nm, 0),
        lambda: variance_closed_form(np.sin, 0.37, 0, P1, nm),
        lambda: kernel_moment((1,), 0.37, 0, P1),
        lambda: voronovskaya_remainder(np.sin, {(1,): np.cos}, 0.37, 0, P1),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="n must be >= 1"):
            call()


def test_multi_index():
    assert set(multi_indices(2, 2)) == {(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), }


def test_expectation_reproduces_constants():
    val = apply_expectation(lambda t: np.full_like(t, 2.5), 0.41, 16, P1)
    assert val == pytest.approx(2.5, abs=1e-10)


def test_expectation_matches_brute_force_oracle():
    n = 100
    got = apply_expectation(lambda t: t, 0.37, n, P1)
    ref = _expectation_oracle(lambda t: t, 0.37, n)
    assert got == pytest.approx(ref, abs=1e-12)
    assert got == pytest.approx(0.37 + 1.0 / 200.0, abs=1e-6)  # bias is +1/(2n)

    p2 = KernelParams(q=2.0, lam=1.5)
    got2 = apply_expectation(np.sin, 0.37, 8, p2)
    ref2 = _expectation_oracle(np.sin, 0.37, 8, q=2.0, lam=1.5)
    assert got2 == pytest.approx(ref2, abs=1e-12)


def test_expectation_error_decreases_for_sin():
    errs = []
    for n in (8, 16, 32, 64):
        errs.append(abs(apply_expectation(np.sin, 0.37, n, P1) - math.sin(0.37)))
    assert all(b < a for a, b in zip(errs, errs[1:]))


@pytest.mark.parametrize("a", [0.3, 0.5, 0.7])
def test_batched_expectation_equals_single_points_1d(a):
    f = kink_field(a)
    xs = np.concatenate([np.linspace(0.0, 2 * np.pi, 48, endpoint=False), [-0.3, 7.1]])
    for n in (8, 16, 32, 64):
        batch = apply_expectation(f, xs[:, None], n, P1)
        single = np.array([apply_expectation(f, x, n, P1) for x in xs])
        assert batch.shape == xs.shape
        assert np.array_equal(batch.view(np.uint64), single.view(np.uint64))


def test_batched_expectation_equals_single_points_2d():
    def f(s, t):
        return np.sin(s) * np.cos(2 * t) + np.abs(s - t) ** 0.4

    pts = np.random.default_rng(3).uniform(0.0, 3.0, (17, 2))
    for n in (4, 16):
        batch = apply_expectation(f, pts, n, P1)
        single = np.array([apply_expectation(f, p, n, P1) for p in pts])
        assert np.array_equal(batch.view(np.uint64), single.view(np.uint64))
    assert isinstance(apply_expectation(f, pts[0], 16, P1), float)


def test_batched_expectation_rejects_a_non_finite_window():
    def f(t):
        return np.where(t > 5.0, np.nan, t)

    xs = np.array([[0.2], [1.0], [5.3]])
    n = 10
    # only the last point's window reaches t > 5
    assert np.all(np.isfinite(apply_expectation(f, xs[:2], n, P1)))
    with pytest.raises(ValueError, match="NaN or infinite"):
        apply_expectation(f, xs, n, P1)


@pytest.mark.parametrize("x", [np.inf, -np.inf, np.nan, 1e300, 2.0**49])
def test_points_off_the_float_lattice_are_rejected(x):
    # from n x = 2^52 on, cell midpoints k + 1/2 are not floats, and for inf,
    # NaN or 1e300 the int cast of round(n x) overflows and zeroes every weight
    n = 8
    nm = NoiseModel(sigma=0.3, base_seed=1)
    calls = [
        lambda: apply_expectation(np.sin, x, n, P1),
        lambda: apply_expectation(np.sin, np.array([[0.3], [x]]), n, P1),
        lambda: sample(np.sin, x, n, P1, nm, 0),
        lambda: variance_closed_form(np.sin, x, n, P1, nm),
        lambda: kernel_moment((1,), x, n, P1),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="2\\*\\*52"):
            call()
    assert math.isfinite(apply_expectation(np.sin, 2.0**48, n, P1))


def test_sample_sigma_zero_equals_expectation():
    n = 10
    nm = NoiseModel(sigma=0.0, base_seed=1)
    assert sample(np.sin, 0.37, n, P1, nm, 5) == apply_expectation(np.sin, 0.37, n, P1)


def test_sample_deterministic():
    n = 10
    nm = NoiseModel(sigma=0.3, base_seed=1)
    a = sample(np.sin, 0.37, n, P1, nm, 5)
    b = sample(np.sin, 0.37, n, P1, nm, 5)
    assert a == b
    assert sample(np.sin, 0.37, n, P1, nm, 6) != a


def test_sample_offset_tiles_stream():
    n = 10
    nm = NoiseModel(sigma=0.3, base_seed=1)
    full = sample(np.sin, 0.37, n, P1, nm, np.arange(20))
    tail = sample(np.sin, 0.37, n, P1, nm, np.arange(12, 20))
    assert np.array_equal(full[12:], tail)


_SHORT = KernelParams(trunc_radius=1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: apply_expectation(np.sin, 0.37, 8, _SHORT),
        lambda: sample(np.sin, 0.37, 8, _SHORT, NoiseModel(sigma=0.1), 0),
        lambda: variance_closed_form(np.sin, 0.37, 8, _SHORT, NoiseModel(sigma=0.1)),
        lambda: kernel_moment((0,), 0.37, 8, _SHORT),
        lambda: voronovskaya_remainder(
            np.sin, {(1,): np.cos, (2,): lambda t: -np.sin(t)}, 0.37, 8, _SHORT
        ),
    ],
    ids=[
        "apply_expectation",
        "sample",
        "variance_closed_form",
        "kernel_moment",
        "voronovskaya_remainder",
    ],
)
def test_every_entry_point_warns_on_a_truncated_sum(call):
    with pytest.warns(TailBoundWarning) as record:
        call()
    # stacklevel points the warning at the caller, not at lattice.py
    assert [w.filename for w in record] == [__file__]


def test_non_finite_callable_is_rejected():
    n = 10
    nm = NoiseModel(sigma=0.3, base_seed=1)
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError, match="NaN or infinite"):
            apply_expectation(lambda t: np.log(t - 0.5), 0.37, n, P1)
    # NaN or inf in cells that carry kernel weight, however small
    with pytest.raises(ValueError, match="NaN or infinite"):
        sample(lambda t: np.where(t < 0.2, np.nan, t), 0.37, n, P1, nm, np.arange(4))
    with pytest.raises(ValueError, match="NaN or infinite"):
        variance_closed_form(lambda t: np.where(t > 0.6, np.inf, t), 0.37, n, P1, nm)


def test_monte_carlo_mean_matches_expectation():
    n = 10
    nm = NoiseModel(sigma=0.25, base_seed=7)
    vals = sample(np.sin, 0.37, n, P1, nm, np.arange(10_000))
    det = apply_expectation(np.sin, 0.37, n, P1)
    se = np.std(vals, ddof=1) / math.sqrt(len(vals))
    assert abs(np.mean(vals) - det) <= 3 * se


def test_monte_carlo_variance_matches_closed_form():
    n = 10
    nm = NoiseModel(sigma=0.25, base_seed=7)
    vals = sample(np.sin, 0.37, n, P1, nm, np.arange(10_000))
    cf = variance_closed_form(np.sin, 0.37, n, P1, nm)
    se = cf * math.sqrt(2.0 / (len(vals) - 1))
    assert abs(np.var(vals, ddof=1) - cf) <= 3 * se


def test_variance_closed_form_special_cases():
    n = 10
    assert variance_closed_form(np.sin, 0.37, n, P1, NoiseModel(sigma=0.0)) == 0.0
    # f == 1: cell averages are 1, so the sum is sigma^2 sum Z^2
    from fracstoch.kernels import axis_window, eval_Phi

    v = variance_closed_form(lambda t: np.full_like(t, 1.0), 0.37, n, P1, NoiseModel(sigma=0.5))
    ks = 4 + axis_window(P1, 1e-17)
    z2 = float(np.sum(eval_Phi(P1, 10 * 0.37 - ks) ** 2))
    assert v == pytest.approx(0.25 * z2, rel=1e-12)


def test_linearity_fixed_noise():
    n = 10
    nm = NoiseModel(sigma=0.3, base_seed=11)
    f, h = np.sin, np.cos
    combo = sample(lambda t: 2.0 * f(t) + 0.5 * h(t), 0.37, n, P1, nm, 4)
    parts = 2.0 * sample(f, 0.37, n, P1, nm, 4) + 0.5 * sample(h, 0.37, n, P1, nm, 4)
    # float addition inside the integrand reorders rounding, so machine-eps
    # agreement is the honest contract here
    assert combo == pytest.approx(parts, rel=1e-13)
    # pure power-of-two scaling commutes with every FP operation exactly
    doubled = sample(lambda t: 2.0 * f(t), 0.37, n, P1, nm, 4)
    assert doubled == 2.0 * sample(f, 0.37, n, P1, nm, 4)


def test_kernel_moments_examples():
    n = 10
    assert kernel_moment((0,), 0.5, n, P1) == pytest.approx(1.0, abs=1e-10)
    assert kernel_moment((1,), 0.5, n, P1) == pytest.approx(0.05, abs=1e-10)
    assert kernel_moment((2,), 0.37, n, P1) > 0


@pytest.mark.parametrize("beta", [(-2,), (-1,)])
def test_kernel_moment_rejects_negative_indices(beta):
    # the closed-form cell mean of (t - x)^p needs p >= 0; p = -1 divides by p + 1 = 0
    with pytest.raises(ValueError, match="beta"):
        kernel_moment(beta, 0.3, 8, KernelParams())


def test_kernel_moment_rejects_non_integral_indices():
    # int(1.5) would be 1: the (1,) moment returned for a beta that has none;
    # True is not the index 1, as no count in the package takes a bool
    for beta in ((1.5,), (True,), np.array([True]), (True, 1), ("1",)):
        x = (0.3, 0.6)[: len(beta)]
        with pytest.raises(ValueError, match="integral"):
            kernel_moment(beta, x, 8, P1)
    same = kernel_moment((1.0,), 0.3, 8, P1), kernel_moment((1,), 0.3, 8, P1)
    assert np.array_equal(np.array(same[0]).view(np.uint64), np.array(same[1]).view(np.uint64))
    # an integral beta whose monomials or product overflow is refused by name;
    # a large one whose moment is finite still returns it
    for beta in ((1e300,), (2000,), (440, 440)):
        with pytest.raises(ValueError, match="beta .* overflows"):
            kernel_moment(beta, (0.3, 0.6)[: len(beta)], 8, P1)
    assert kernel_moment((400,), 0.3, 8, P1) == pytest.approx(5.76e138, rel=1e-3)


def test_sample_rejects_a_non_integer_replicate():
    # a float replicate would be truncated onto replicate 1's draw
    nm = NoiseModel(sigma=0.3, base_seed=1)
    with pytest.raises(TypeError, match="integers"):
        sample(np.sin, 0.37, 10, P1, nm, 1.5)
    with pytest.raises(TypeError, match="integers"):
        sample(np.sin, 0.37, 10, P1, nm, np.array([0.0, 1.0]))


def test_the_point_fixes_the_dimension():
    with pytest.raises(ValueError, match="beta must have 2"):
        kernel_moment((1,), (0.25, 0.5), 8, P1)
    # a single-point operator takes a float or N coordinates, nothing else
    for bad in ([], [[0.3, 0.6]], np.zeros((1, 1, 1))):
        with pytest.raises(ValueError, match="shape"):
            variance_closed_form(np.sin, bad, 8, P1, NoiseModel())


def test_kernel_moment_against_quadrature_oracle():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(4, 20))
        x = float(rng.uniform(0.0, 1.0))
        p_ord = int(rng.integers(0, 4))
        got = kernel_moment((p_ord,), x, n, P1)
        total = 0.0
        for k in range(round(n * x) - 40, round(n * x) + 41):
            avg, _ = fixed_quad(lambda t: (t - x) ** p_ord, k / n, (k + 1) / n, n=20)
            total += n * avg * _phi_oracle(1.0, 1.0, n * x - k)
        assert got == pytest.approx(total, abs=1e-10)


def test_kernel_moment_2d_factorizes():
    m11 = kernel_moment((1, 1), (0.25, 0.5), 8, P1)
    m1a = kernel_moment((1,), 0.25, 8, P1)
    m1b = kernel_moment((1,), 0.5, 8, P1)
    assert m11 == pytest.approx(m1a * m1b, rel=1e-12)


def test_shift_compatibility():
    n = 10
    shifted = apply_expectation(lambda t: np.sin(t - 0.1), 0.37, n, P1)
    moved = apply_expectation(np.sin, 0.37 - 0.1, n, P1)
    assert shifted == pytest.approx(moved, abs=1e-10)


def test_voronovskaya_polynomial_exactness():
    n = 8
    ones = lambda t: np.full_like(np.asarray(t, dtype=float), 1.0)
    r1 = voronovskaya_remainder(
        lambda t: 3.0 * t - 1.0, {(1,): lambda t: 3.0 * ones(t)}, 0.37, n, P1
    )
    assert abs(r1) < 1e-10
    r2 = voronovskaya_remainder(
        lambda t: t**2,
        {(1,): lambda t: 2.0 * t, (2,): lambda t: 2.0 * ones(t)},
        0.37,
        n,
        P1,
    )
    assert abs(r2) < 1e-10


def test_voronovskaya_sin_higher_order_decays_faster():
    derivs = {
        1: {(1,): np.cos},
        2: {(1,): np.cos, (2,): lambda t: -np.sin(t)},
    }
    rem = {m: [] for m in (1, 2)}
    for n in (8, 16, 32, 64):
        for m in (1, 2):
            rem[m].append(abs(voronovskaya_remainder(np.sin, derivs[m], 0.5, n, P1)))
    # every doubling shrinks the m=2 remainder by more than the m=1 one
    for i in range(3):
        assert rem[2][i + 1] / rem[2][i] < rem[1][i + 1] / rem[1][i]


def test_voronovskaya_missing_derivative():
    # the order is the largest |beta| among the keys, at least 1
    with pytest.raises(KeyError, match=r"\(1,\)"):
        voronovskaya_remainder(np.sin, {}, 0.5, 8, P1)
    with pytest.raises(KeyError, match=r"\(1,\)"):
        voronovskaya_remainder(np.sin, {(2,): np.sin}, 0.5, 8, P1)
