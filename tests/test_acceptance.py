"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see every verdict.
All stochastic checks ride on counter-based streams with pinned seeds, so
each verdict is reproducible bit for bit.
"""

import math

import numpy as np
import pytest

from fracstoch.cli import main as cli_main
from fracstoch.fields import Field, PeriodicGrid, kink_field, lacunary_field, sample_on_grid
from fracstoch.fractional import (
    TimeGrid,
    caputo_l1,
    frac_laplacian,
    gagliardo_seminorm,
    mittag_leffler,
)
from fracstoch.kernels import KernelParams, eval_M, eval_Phi, eval_Z, partition_sum
from fracstoch.lattice import apply_expectation, sample, variance_closed_form, voronovskaya_remainder
from fracstoch.mollify import (
    ScaledKernel,
    c_phi,
    mollify,
    mse_decomposition,
    stochastic_samples_at,
)
from fracstoch.report import fit_slope
from fracstoch.rng import NoiseModel
from fracstoch.turbulence import (
    FracFlowParams,
    dissipation_convergence,
    energy_dissipation,
    frac_burgers_solve,
    synth_velocity,
)

SEED = 42
P1 = KernelParams()


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def fine_grid():
    return PeriodicGrid(2 * np.pi, 16384)


def test_criterion_01_partition_of_unity():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for q in (0.5, 1.0, 2.0):
        for lam in (0.5, 1.0, 2.0):
            params = KernelParams(q=q, lam=lam, trunc_radius=40)
            xs = rng.uniform(-3.0, 3.0, 100)
            worst = max(worst, float(np.max(np.abs(partition_sum(params, xs) - 1.0))))
    _verdict(1, "partition_of_unity", worst < 1e-10, f"max |sum Phi(x-k) - 1| = {worst:.3e}")


def test_criterion_02_symmetry_positivity():
    rng = np.random.default_rng(SEED)
    xs = rng.uniform(-8.0, 8.0, 10_000)
    pts = rng.uniform(-8.0, 8.0, (10_000, 2))
    even = float(np.max(np.abs(eval_Phi(P1, xs) - eval_Phi(P1, -xs))))
    pos = min(
        float(np.min(eval_Phi(P1, xs))),
        float(np.min(eval_M(P1, xs))),
        float(np.min(eval_Z(P1, pts))),
    )
    _verdict(
        2,
        "symmetry_positivity",
        even <= 1e-14 and pos > 0.0,
        f"max evenness dev = {even:.3e}, min kernel value = {pos:.3e}",
    )


_TEST_FUNCS = {
    "const": lambda t: np.full_like(np.asarray(t, dtype=float), 1.3),
    "linear": lambda t: t,
    "quadratic": lambda t: t**2,
    "sin": np.sin,
    "gaussian": lambda t: np.exp(-0.5 * t**2),
}


def test_criterion_03_expectation_identity():
    noise = NoiseModel(sigma=0.1, base_seed=SEED)
    worst = 0.0
    detail = []
    ok = True
    for fname, f in _TEST_FUNCS.items():
        for n in (8, 32):
            draws = sample(f, 0.37, n, P1, noise, np.arange(10_000))
            det = apply_expectation(f, 0.37, n, P1)
            se = float(np.std(draws, ddof=1)) / math.sqrt(draws.size)
            z = abs(float(np.mean(draws)) - det) / se if se > 0 else 0.0
            worst = max(worst, z)
            ok = ok and z <= 3.0
            if z > 3.0:
                detail.append(f"{fname},n={n}: z={z:.2f}")
    _verdict(3, "expectation_identity", ok, f"max |mean-E|/SE = {worst:.2f} (<= 3) {detail}")


def test_criterion_04_variance_identity():
    noise = NoiseModel(sigma=0.1, base_seed=SEED)
    worst = 0.0
    ok = True
    for fname, f in _TEST_FUNCS.items():
        for n in (8, 32):
            draws = sample(f, 0.37, n, P1, noise, np.arange(10_000))
            cf = variance_closed_form(f, 0.37, n, P1, noise)
            se = cf * math.sqrt(2.0 / (draws.size - 1))
            z = abs(float(np.var(draws, ddof=1)) - cf) / se if se > 0 else 0.0
            worst = max(worst, z)
            ok = ok and z <= 3.0
    _verdict(4, "variance_identity", ok, f"max |var-closed|/SE = {worst:.2f} (<= 3)")


def test_criterion_05_voronovskaya():
    ones = lambda *cs: np.broadcast_arrays(*cs)[0] * 0.0 + 1.0
    polys = [
        (lambda t: 3.0 * t - 1.0, {(1,): lambda t: 3.0 * ones(t)}, (0.37,)),
        (
            lambda t: t**2 - t,
            {(1,): lambda t: 2.0 * t - 1.0, (2,): lambda t: 2.0 * ones(t)},
            (0.37,),
        ),
        (
            lambda x, y: 1.0 + x - 2.0 * y,
            {(1, 0): ones, (0, 1): lambda x, y: -2.0 * ones(x, y)},
            (0.3, 0.6),
        ),
        (
            lambda x, y: x**2 - x * y + y**2,
            {
                (1, 0): lambda x, y: 2.0 * x - y,
                (0, 1): lambda x, y: -x + 2.0 * y,
                (2, 0): lambda x, y: 2.0 * ones(x, y),
                (1, 1): lambda x, y: -ones(x, y),
                (0, 2): lambda x, y: 2.0 * ones(x, y),
            },
            (0.3, 0.6),
        ),
    ]
    worst = 0.0
    for f, derivs, x in polys:
        worst = max(worst, abs(voronovskaya_remainder(f, derivs, x, 8, P1)))

    d_sin = {1: {(1,): np.cos}, 2: {(1,): np.cos, (2,): lambda t: -np.sin(t)}}
    ns = (8, 16, 32, 64)
    rem = {m: [] for m in (1, 2)}
    for n in ns:
        for m in (1, 2):
            rem[m].append(abs(voronovskaya_remainder(np.sin, d_sin[m], 0.5, n, P1)))
    s1, _ = fit_slope(list(zip(ns, rem[1])))
    s2, _ = fit_slope(list(zip(ns, rem[2])))
    ratios_ok = all(
        rem[2][i + 1] / rem[2][i] < rem[1][i + 1] / rem[1][i] for i in range(len(ns) - 1)
    )
    _verdict(
        5,
        "voronovskaya",
        worst < 1e-10 and s2 < s1 and ratios_ok,
        f"poly remainder {worst:.2e}; sin slopes m=1 {s1:.2f}, m=2 {s2:.2f}",
    )


def test_criterion_06_consistency_rate(fine_grid):
    ns = (8, 16, 32, 64, 128)
    ok = True
    details = []
    xs_eval = np.linspace(0.0, 2 * np.pi, 48, endpoint=False)
    for a in (0.3, 0.5, 0.7):
        f = kink_field(a)
        u = sample_on_grid(fine_grid, f)
        sem = gagliardo_seminorm(Field(u.values[::4], 4.0 * u.spacing), a)
        cp = c_phi(a)
        sup_errs = []
        bound_ok = True
        for n in ns:
            err = float(np.max(np.abs(mollify(u, ScaledKernel(n)).values - u.values)))
            sup_errs.append(err)
            bound_ok = bound_ok and err <= sem * cp * n ** (-a)
        slope_m, _ = fit_slope(list(zip(ns, sup_errs)))

        lat_errs = []
        for n in ns:
            lat = apply_expectation(f, xs_eval[:, None], n, P1)
            lat_errs.append(float(np.max(np.abs(lat - f(xs_eval)))))
        slope_l, _ = fit_slope(list(zip(ns, lat_errs)))

        this_ok = (
            -a - 0.2 <= slope_m <= -a + 0.2 and -a - 0.2 <= slope_l <= -a + 0.2 and bound_ok
        )
        ok = ok and this_ok
        details.append(
            f"a={a}: mollifier {slope_m:.3f}, lattice {slope_l:.3f}, bound {'ok' if bound_ok else 'VIOLATED'}"
        )
    _verdict(6, "consistency_rate", ok, "; ".join(details))


def test_criterion_07_variance_growth():
    grid = PeriodicGrid(2 * np.pi, 4096)
    u = sample_on_grid(grid, np.sin)
    noise = NoiseModel(sigma=0.1, base_seed=SEED)
    ns = (4, 8, 16, 32)
    variances = []
    for n in ns:
        draws = stochastic_samples_at(u, [ScaledKernel(n)], noise, 10_000, 819)[0]
        variances.append(float(np.var(draws, ddof=1)))
    slope, _ = fit_slope(list(zip(ns, variances)))

    # lattice-operator variance versus n: measured and reported only
    lat = [variance_closed_form(np.sin, 0.37, n, P1, noise) for n in ns]
    slope_lat, _ = fit_slope(list(zip(ns, lat)))
    _verdict(
        7,
        "variance_growth",
        abs(slope - 1.0) <= 0.3,
        f"mollifier slope {slope:.3f} (target 1 +/- 0.3); "
        f"lattice slope {slope_lat:.3f} (reported, not asserted)",
    )


def test_criterion_08_mse_additivity():
    grid = PeriodicGrid(2 * np.pi, 4096)
    u = sample_on_grid(grid, np.sin)
    cell = round(1.2 / u.spacing)
    ok = True
    worst = 0.0
    for n in (8, 16, 32, 64):
        for sigma in (0.05, 0.1, 0.2):
            noise = NoiseModel(sigma=sigma, base_seed=SEED)
            parts = mse_decomposition(u, [ScaledKernel(n)], [noise], 2000, cell)[0][0]
            gap = abs(parts.mse - parts.bias_sq - parts.variance)
            ratio = gap / (3.0 * parts.mse_se) if parts.mse_se > 0 else 0.0
            worst = max(worst, ratio)
            ok = ok and gap <= 3.0 * parts.mse_se
    _verdict(8, "mse_additivity", ok, f"12-point grid, max gap/(3 SE) = {worst:.3f}")


def test_criterion_09_caputo_order():
    steps_list = (64, 128, 256, 512, 1024)
    ok = True
    details = []
    for a in (0.3, 0.5, 0.7):
        errs = []
        lin_worst = 0.0
        for steps in steps_list:
            g = TimeGrid(0.0, 1.0, steps)
            t = g.nodes()
            e_lin = float(
                np.max(np.abs(caputo_l1(t, g, a)[1:] - t[1:] ** (1 - a) / math.gamma(2 - a)))
            )
            e_quad = float(
                np.max(
                    np.abs(caputo_l1(t**2, g, a)[1:] - 2 * t[1:] ** (2 - a) / math.gamma(3 - a))
                )
            )
            lin_worst = max(lin_worst, e_lin)
            errs.append(max(e_lin, e_quad))
        slope, _ = fit_slope(list(zip(steps_list, errs)))
        target = -(2.0 - a)
        this_ok = abs(slope - target) <= 0.2 and lin_worst < 1e-12
        ok = ok and this_ok
        details.append(f"a={a}: slope {slope:.3f} (target {target:.2f}), t exact to {lin_worst:.1e}")
    _verdict(9, "caputo_l1_order", ok, "; ".join(details))


def test_criterion_10_fractional_laplacian():
    g = PeriodicGrid(2 * np.pi, 256)
    u = sample_on_grid(g, lambda x: np.sin(3 * x))
    eig = float(
        np.max(np.abs(frac_laplacian(u, 0.7).values - 3.0**1.4 * np.sin(3 * g.coords())))
    )
    mixed = sample_on_grid(g, lambda x: np.sin(x) + 0.5 * np.cos(5 * x))
    comp = float(
        np.max(
            np.abs(
                frac_laplacian(frac_laplacian(mixed, 0.3), 0.45).values
                - frac_laplacian(mixed, 0.75).values
            )
        )
    )
    _verdict(
        10,
        "fractional_laplacian",
        eig < 1e-10 and comp < 1e-10,
        f"eigenfunction dev {eig:.2e}, composition dev {comp:.2e}",
    )


def test_criterion_11_fractional_relaxation():
    g = PeriodicGrid(2 * np.pi, 16)
    u0 = sample_on_grid(g, np.sin)
    params = FracFlowParams(0.6, s=0.75, nu=0.5)
    traj = frac_burgers_solve(u0, params, TimeGrid(0.0, 1.0, 256), nonlinear=False)
    amp = float(-2.0 * np.fft.rfft(traj[-1])[1].imag / 16)
    exact = mittag_leffler(0.6, -0.5)
    err = abs(amp - exact)
    _verdict(11, "fractional_relaxation", err <= 1e-3, f"|amp - E_alpha| = {err:.2e} at 256 steps")


def test_criterion_12_dissipation_convergence():
    params = FracFlowParams(0.5, s=0.6, nu=0.1)
    grid = PeriodicGrid(2 * np.pi, 4096)
    k = 3
    u = sample_on_grid(grid, lambda x: np.sin(k * x))
    eps_exact = 0.1 * k ** (2 * 0.6) * math.pi
    eps = energy_dissipation(u, params)
    exact_ok = abs(eps - eps_exact) <= 1e-8

    kernels = [ScaledKernel(n) for n in (8, 16, 32, 64)]
    gaps = dissipation_convergence(u, params, kernels)
    dec_ok = all(b < a for a, b in zip(gaps, gaps[1:]))

    u2 = synth_velocity(grid, exponent=6.0, modes=5, seed=SEED)
    gaps2 = dissipation_convergence(u2, params, kernels)
    dec2_ok = all(b < a for a, b in zip(gaps2, gaps2[1:]))
    _verdict(
        12,
        "dissipation_convergence",
        exact_ok and dec_ok and dec2_ok,
        f"|eps - nu k^2s pi| = {abs(eps - eps_exact):.1e}; gaps strictly decreasing: "
        f"{dec_ok and dec2_ok}",
    )


def test_criterion_13_l2_convergence(fine_grid):
    u = sample_on_grid(fine_grid, np.sin)
    h = fine_grid.spacing
    ns_smooth = (8, 16, 32, 64)
    errs = [
        math.sqrt(float(np.sum((mollify(u, ScaledKernel(n)).values - u.values) ** 2)) * h)
        for n in ns_smooth
    ]
    slope_sm, _ = fit_slope(list(zip(ns_smooth, errs)))
    ok = abs(slope_sm + 2.0) <= 0.3
    details = [f"smooth {slope_sm:.3f}"]

    ns = (8, 16, 32, 64, 128)
    for a in (0.3, 0.5, 0.7):
        ua = sample_on_grid(fine_grid, lacunary_field(a, seed=SEED))
        errs = [
            math.sqrt(
                float(np.sum((mollify(ua, ScaledKernel(n)).values - ua.values) ** 2)) * h
            )
            for n in ns
        ]
        slope, _ = fit_slope(list(zip(ns, errs)))
        ok = ok and (-a - 0.2 <= slope <= -a + 0.2)
        details.append(f"a={a}: {slope:.3f}")
    _verdict(13, "l2_convergence", ok, "; ".join(details))


def test_criterion_14_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["variance_scaling", "--seed", str(SEED), "--replicates", "2000", "--n-list", "4,8,16,32"]
    assert cli_main(args + ["--out", str(a)]) == 0
    assert cli_main(args + ["--out", str(b)]) == 0
    rerun_ok = (a / "variance_scaling.csv").read_bytes() == (b / "variance_scaling.csv").read_bytes()
    _verdict(14, "determinism", rerun_ok, f"rerun identical: {rerun_ok}")
