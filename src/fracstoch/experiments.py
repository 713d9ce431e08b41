"""Experiment runners behind the CLI: one function per experiment name.

Each runner reads its inputs from a :class:`~fracstoch.config.RunConfig`,
whose kept layer objects it uses as they were validated, produces an
:class:`~fracstoch.report.ExperimentReport` with data rows, fitted slopes
and named tolerance checks, and leaves file output to :func:`run`.  All
randomness flows through the counter-based streams of :mod:`fracstoch.rng`,
so a report is a pure function of its config.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .fields import Field, PeriodicGrid, kink_field, lacunary_field, sample_on_grid
from .fractional import TimeGrid, caputo_l1, gagliardo_seminorm, mittag_leffler
from .kernels import TailBoundWarning, eval_M, eval_Phi, eval_Z, partition_sum
from .lattice import apply_expectation, variance_closed_form, voronovskaya_remainder
from .mollify import (
    ScaledKernel,
    c_phi,
    mollify,
    mse_decomposition,
    stochastic_samples_at,
    variance_quadrature,
)
from .report import ExperimentReport, fit_slope, write_csv, write_field_csv, write_svg
from .turbulence import (
    FracFlowParams,
    _dissipation_rows,
    _snapshot_steps,
    dissipation_convergence,
    energy_dissipation,
    frac_burgers_solve,
    l2_convergence,
    synth_velocity,
)

if TYPE_CHECKING:
    from .config import RunConfig

__all__ = ["run", "RUNNERS"]

HOLDER_ALPHAS = (0.3, 0.5, 0.7)
CAPUTO_STEPS = (64, 128, 256, 512, 1024)


def _slope_row(report: ExperimentReport, param: str, metric: str, ns, errs) -> float:
    slope, half = fit_slope(list(zip(ns, errs)))
    report.add(param, max(ns), f"{metric}_slope", slope, half)
    return slope


def _series(report: ExperimentReport, param: str, metric: str, ns, values) -> float:
    """One row per n, then the slope row; returns the slope."""
    for n, v in zip(ns, values):
        report.add(param, n, metric, v)
    return _slope_row(report, param, metric, ns, values)


# ---------------------------------------------------------------------------
# kernel


def run_kernel(config: RunConfig) -> ExperimentReport:
    """Partition-of-unity, symmetry and positivity diagnostics on evenly spaced points; no seed."""
    report = ExperimentReport("kernel")
    grid_q = sorted({0.5, 1.0, 2.0, config.q})
    grid_lam = sorted({0.5, 1.0, 2.0, config.lam})
    worst = 0.0
    xs = np.linspace(-3.0, 3.0, 100)
    for q in grid_q:
        for lam in grid_lam:
            params = replace(config.kernel, q=q, lam=lam)
            devs = np.abs(partition_sum(params, xs) - 1.0)
            worst = float(np.max([worst, devs.max()]))
            for x, dev in zip(xs, devs):
                report.add(f"q={q},lam={lam}", float(x), "partition_abs_dev", float(dev))
    # a strict bound x < b is the inclusive bound x <= nextafter(b, 0)
    report.check("partition_of_unity", worst, hi=math.nextafter(1e-10, 0.0))

    params = config.kernel
    xs = np.linspace(-8.0, 8.0, 10_000)
    even_dev = float(np.max(np.abs(eval_Phi(params, xs) - eval_Phi(params, -xs))))
    min_phi = float(np.min(eval_Phi(params, xs)))
    min_m = float(np.min(eval_M(params, xs)))
    pts = np.moveaxis(np.mgrid[-8.0:8.0:100j, -8.0:8.0:100j], 0, -1)  # 100 x 100 points
    min_z = float(np.min(eval_Z(params, pts)))
    report.add("configured", 0.0, "evenness_max_dev", even_dev)
    report.add("configured", 0.0, "min_Phi", min_phi)
    report.add("configured", 0.0, "min_M", min_m)
    report.add("configured", 0.0, "min_Z", min_z)
    report.check("evenness", even_dev, hi=1e-14)
    # x > 0 is x >= ulp(0.0), the smallest positive float
    report.check("positivity", np.min([min_phi, min_m, min_z]), lo=math.ulp(0.0))

    # truncation study: deviation is pure tail loss, shrinking exponentially in K
    xs = np.linspace(-1.0, 1.0, 50)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TailBoundWarning)
        for K in (1, 2, 5, 10, 20, config.trunc_radius):
            pk = replace(config.kernel, trunc_radius=K)
            dev = float(np.max(np.abs(partition_sum(pk, xs) - 1.0)))
            report.add("truncation", K, "partition_abs_dev_max", dev)
    return report


# ---------------------------------------------------------------------------
# caputo


def run_caputo(config: RunConfig) -> ExperimentReport:
    """L1-scheme accuracy against closed-form Caputo derivatives of t, t^2."""
    report = ExperimentReport("caputo")
    for a in HOLDER_ALPHAS:
        per_steps, lin_errs = [], []
        for steps in CAPUTO_STEPS:
            grid = TimeGrid(0.0, 1.0, steps)
            t = grid.nodes()
            exact1 = t[1:] ** (1.0 - a) / math.gamma(2.0 - a)
            exact2 = 2.0 * t[1:] ** (2.0 - a) / math.gamma(3.0 - a)
            e1 = float(np.max(np.abs(caputo_l1(t, grid, a)[1:] - exact1)))
            e2 = float(np.max(np.abs(caputo_l1(t**2, grid, a)[1:] - exact2)))
            report.add(f"alpha={a},f=t", steps, "max_err", e1)
            report.add(f"alpha={a},f=t^2", steps, "max_err", e2)
            per_steps.append(float(np.max([e1, e2])))
            lin_errs.append(e1)
        slope = _slope_row(report, f"alpha={a}", "max_err", CAPUTO_STEPS, per_steps)
        report.check(f"l1_order_alpha={a}", abs(slope + (2.0 - a)), hi=0.2)
        # the telescoping weights reproduce affine f: strict, as nextafter(b, 0)
        exact_hi = math.nextafter(1e-12, 0.0)
        report.check(f"l1_exact_on_linear_alpha={a}", np.max(lin_errs), hi=exact_hi)
    return report


# ---------------------------------------------------------------------------
# kantorovich_rates


def run_kantorovich_rates(config: RunConfig) -> ExperimentReport:
    """Sup-norm consistency rate of the lattice operator on Hoelder fields."""
    report = ExperimentReport("kantorovich_rates")
    params = config.kernel
    xs = np.linspace(0.0, 2.0 * np.pi, 48, endpoint=False)
    for a in HOLDER_ALPHAS:
        f = kink_field(a)
        fx = f(xs)
        errs = [
            float(np.max(np.abs(apply_expectation(f, xs[:, None], n, params) - fx)))
            for n in config.n_list
        ]
        slope = _series(report, f"alpha={a}", "sup_err", config.n_list, errs)
        report.check(f"holder_rate_alpha={a}", slope, -a - 0.2, -a + 0.2)
    return report


# ---------------------------------------------------------------------------
# variance_scaling


def run_variance_scaling(config: RunConfig) -> ExperimentReport:
    """Noise variance versus resolution for both stochastic operators.

    The mollifier variance must grow like n^N (asserted); the lattice
    operator's closed-form variance is measured and reported only, since
    the claimed sigma^2/n^N decay is not what the closed form sums to.
    """
    report = ExperimentReport("variance_scaling")
    u = sample_on_grid(config.grid, np.sin)
    noise = config.noise
    index = config.points // 5
    # one noise draw serves every n: row k holds the draws for n_list[k]
    draws = stochastic_samples_at(u, config.smoothers, noise, config.replicates, index)
    mc_vars = []
    for n, kernel, row in zip(config.n_list, config.smoothers, draws):
        mc = float(np.var(row, ddof=1))
        cf = variance_quadrature(u, kernel, noise, index)
        mc_vars.append(mc)
        se = cf * math.sqrt(2.0 / (config.replicates - 1))
        report.add("mollifier", n, "mc_variance", mc, se)
        report.add("mollifier", n, "closed_form_variance", cf)
        report.mc_check(f"variance_identity_n={n}", mc, cf, se)
    slope = _slope_row(report, "mollifier", "mc_variance", config.n_list, mc_vars)
    report.check("mollifier_variance_growth", abs(slope - 1.0), hi=0.3)

    lat_vars = [variance_closed_form(np.sin, 0.37, n, config.kernel, noise) for n in config.n_list]
    # slope recorded for inspection only; no growth law is asserted here
    _series(report, "lattice", "closed_form_variance", config.n_list, lat_vars)
    return report


# ---------------------------------------------------------------------------
# voronovskaya


def run_voronovskaya(config: RunConfig) -> ExperimentReport:
    """Taylor-expansion remainder: exact on polynomials, decaying for sin."""
    report = ExperimentReport("voronovskaya")
    params = config.kernel

    cases = {
        "poly_deg1_m1_N1": (
            lambda t: 2.0 * t + 1.0,
            {(1,): lambda t: 2.0},
            (0.37,),
        ),
        "poly_deg2_m2_N1": (
            lambda t: t**2 - 0.5 * t + 3.0,
            {(1,): lambda t: 2.0 * t - 0.5, (2,): lambda t: 2.0},
            (0.37,),
        ),
        "poly_deg1_m1_N2": (
            lambda x, y: 1.0 + 2.0 * x - y,
            {(1, 0): lambda x, y: 2.0, (0, 1): lambda x, y: -1.0},
            (0.3, 0.6),
        ),
        "poly_deg2_m2_N2": (
            lambda x, y: 2.0 + x - y + x**2 - x * y + y**2,
            {
                (1, 0): lambda x, y: 1.0 + 2.0 * x - y,
                (0, 1): lambda x, y: -1.0 - x + 2.0 * y,
                (2, 0): lambda x, y: 2.0,
                (1, 1): lambda x, y: -1.0,
                (0, 2): lambda x, y: 2.0,
            },
            (0.3, 0.6),
        ),
    }
    worst = 0.0
    for name, (f, derivs, x) in cases.items():
        r = abs(voronovskaya_remainder(f, derivs, x, 8, params))
        worst = float(np.max([worst, r]))
        report.add(name, 8, "abs_remainder", r)
    # strict bound, as nextafter(b, 0)
    report.check("polynomial_exactness", worst, hi=math.nextafter(1e-10, 0.0))

    d_sin = {
        1: {(1,): np.cos},
        2: {(1,): np.cos, (2,): lambda t: -np.sin(t)},
    }
    slopes = {}
    for m in (1, 2):
        errs = [abs(voronovskaya_remainder(np.sin, d_sin[m], 0.5, n, params)) for n in config.n_list]
        slopes[m] = _series(report, f"sin_m={m}", "abs_remainder", config.n_list, errs)
    report.check("higher_order_decays_faster", slopes[2], hi=slopes[1] - 0.5)
    return report


# ---------------------------------------------------------------------------
# mollifier_rates


def run_mollifier_rates(config: RunConfig) -> ExperimentReport:
    """Hoelder sup rates, the seminorm bound, and the smooth n^-2 rate."""
    report = ExperimentReport("mollifier_rates")
    grid = config.grid

    for a in HOLDER_ALPHAS:
        u = sample_on_grid(grid, kink_field(a))
        sem = gagliardo_seminorm(Field(u.values[::4], 4.0 * u.spacing), a)
        cp = c_phi(a)
        errs, excess = [], []
        for n, kernel in zip(config.n_list, config.smoothers):
            err = float(np.max(np.abs(mollify(u, kernel).values - u.values)))
            errs.append(err)
            rhs = sem * cp * float(n) ** (-a)
            excess.append(err - rhs)
            report.add(f"alpha={a}", n, "sup_err", err)
            report.add(f"alpha={a}", n, "seminorm_bound", rhs)
        slope = _slope_row(report, f"alpha={a}", "sup_err", config.n_list, errs)
        report.check(f"holder_rate_alpha={a}", slope, -a - 0.2, -a + 0.2)
        # sup err <= |f|_alpha C_phi n^-alpha at every n
        report.check(f"seminorm_bound_alpha={a}", np.max(excess), hi=0.0)

    u = sample_on_grid(grid, np.sin)
    errs = [float(np.max(np.abs(mollify(u, k).values - u.values))) for k in config.smoothers]
    slope = _series(report, "smooth", "sup_err", config.n_list, errs)
    report.check("smooth_rate", abs(slope + 2.0), hi=0.3)
    return report


# ---------------------------------------------------------------------------
# mse


# mse smooths at every n of n_list and sweeps gamma at n = MSE_GAMMA_N
MSE_GAMMA_N = 16
# the burgers demo runs config.steps steps on [0, BURGERS_HORIZON] and
# reports every BURGERS_STORE_EVERY-th step and the last
BURGERS_HORIZON = 0.25
BURGERS_STORE_EVERY = 16


def run_mse(config: RunConfig) -> ExperimentReport:
    """Bias/variance/MSE decomposition over an (n, sigma) grid."""
    report = ExperimentReport("mse")
    u = sample_on_grid(config.grid, np.sin)
    index = round(1.2 / u.spacing)  # the cell nearest x = 1.2 < 2 pi
    sigmas = [0.5 * config.sigma, config.sigma, 2.0 * config.sigma]
    gammas = (0.0, 0.25, 0.5, 0.75)
    kernels = [*config.smoothers, *(ScaledKernel(MSE_GAMMA_N, gamma=g) for g in gammas)]
    noises = [replace(config.noise, sigma=sg) for sg in sigmas]
    # one noise draw serves every (kernel, sigma) pair
    table = mse_decomposition(u, kernels, noises, config.replicates, index)
    for n, kernel, row in zip(config.n_list, config.smoothers, table):
        for sg, parts in zip(sigmas, row):
            tag = f"n={n},sigma={sg}"
            report.add(tag, n, "bias_sq", parts.bias_sq)
            report.add(tag, n, "variance", parts.variance)
            report.add(tag, n, "mse", parts.mse, parts.mse_se)
            excess = parts.mse - parts.bias_sq
            report.add(tag, n, "additivity_gap", abs(excess - parts.variance), parts.mse_se)
            report.mc_check(f"additivity_{tag}", excess, parts.variance, parts.mse_se)
        # the noise law at the configured sigma: both sides scale as sigma^2,
        # so the other two sigmas would repeat the same statistic
        cf = variance_quadrature(u, kernel, config.noise, index)
        se = cf * math.sqrt(2.0 / (config.replicates - 1))
        report.mc_check(f"variance_identity_n={n}", row[1].variance, cf, se)

    # gamma trade-off at the configured sigma: measured, no assertion
    # (renormalization open question)
    best = None
    for gamma, row in zip(gammas, table[len(config.smoothers) :]):
        parts = row[1]  # sigmas[1] is config.sigma
        report.add(f"gamma={gamma}", MSE_GAMMA_N, "mse", parts.mse, parts.mse_se)
        if best is None or parts.mse < best[1]:
            best = (gamma, parts.mse)
    report.add(f"gamma_opt={best[0]}", MSE_GAMMA_N, "mse_min", best[1])
    return report


# ---------------------------------------------------------------------------
# burgers


def run_burgers(config: RunConfig) -> ExperimentReport:
    """Fractional Burgers proxy: oracles plus a short forced demo run."""
    report = ExperimentReport("burgers")

    zero_grid = PeriodicGrid(2.0 * np.pi, 32)
    z0 = Field(np.zeros(32), zero_grid.spacing)
    fp = FracFlowParams(0.5, s=0.8, nu=0.05)
    traj = frac_burgers_solve(z0, fp, TimeGrid(0.0, 1.0, 64))
    zmax = float(np.abs(traj).max())
    report.add("zero_data", 64, "max_abs", zmax)
    report.check("zero_fixed_point", zmax, hi=0.0)

    def mode_amp(row: np.ndarray, k: int) -> float:
        return float(-2.0 * np.fft.rfft(row)[k].imag / row.size)

    g16 = PeriodicGrid(2.0 * np.pi, 16)
    u0 = sample_on_grid(g16, np.sin)
    ml_pars = FracFlowParams(0.6, s=0.75, nu=0.5)
    traj = frac_burgers_solve(u0, ml_pars, TimeGrid(0.0, 1.0, 256), nonlinear=False)
    exact = mittag_leffler(ml_pars.alpha, -ml_pars.nu)
    ml_err = abs(mode_amp(traj[-1], 1) - exact)
    report.add("linear_mode", 256, "mittag_leffler_err", ml_err)
    report.check("mittag_leffler_oracle", ml_err, hi=1e-3)

    cl_pars = FracFlowParams(1.0 - 1e-6, s=1.0, nu=0.3)
    traj = frac_burgers_solve(u0, cl_pars, TimeGrid(0.0, 1.0, 256), nonlinear=False)
    cl_err = abs(mode_amp(traj[-1], 1) - math.exp(-0.3))
    report.add("classical_limit", 256, "exp_decay_err", cl_err)
    report.check("classical_limit", cl_err, hi=1e-2)

    demo_grid = PeriodicGrid(2.0 * np.pi, 64)
    u0 = synth_velocity(demo_grid, exponent=4.0, modes=6, seed=config.seed)
    u0 = Field(0.3 * u0.values, u0.spacing)
    t_grid = config.t_grid
    traj = frac_burgers_solve(
        u0, config.flow, t_grid, config.noise, store_every=BURGERS_STORE_EVERY
    )
    energy = np.mean(traj**2, axis=1)
    dissipation = _dissipation_rows(traj, u0.length, config.flow)
    for m, e, eps in zip(_snapshot_steps(t_grid.steps, BURGERS_STORE_EVERY), energy, dissipation):
        t = m * t_grid.h
        report.add("demo", t, "energy", float(e))
        report.add("demo", t, "dissipation", float(eps))
    report.check("demo_finished", len(traj), lo=1)
    report.final_field = u0.copy_with(traj[-1])
    return report


# ---------------------------------------------------------------------------
# dissipation


def run_dissipation(config: RunConfig) -> ExperimentReport:
    """Dissipation gaps |eps_n - eps| per n, plus the closed-form single-mode check.

    The gaps of a single mode and of a smooth synthetic field must fall
    strictly in n.
    """
    fp = config.flow
    k = 3
    u = sample_on_grid(config.grid, lambda x: np.sin(k * x))
    gaps = dissipation_convergence(u, fp, config.smoothers)
    report = ExperimentReport("dissipation")
    eps = energy_dissipation(u, fp)
    report.add("exact", 0, "epsilon", eps)
    for n, gap in zip(config.n_list, gaps):
        report.add("deterministic", n, "dissipation_gap", gap)
    eps_exact = fp.nu * float(k) ** (2.0 * fp.s) * math.pi
    report.add("exact", k, "epsilon_closed_form_err", abs(eps - eps_exact))
    report.check("single_mode_epsilon", abs(eps - eps_exact), hi=1e-8)
    # strictly decreasing: every step gaps[i+1] - gaps[i] < 0, i.e. <= -ulp(0.0);
    # initial= lets a one-element n_list pass, as all() over no pairs does
    rise = np.max(np.diff(gaps), initial=-math.inf)
    report.check("gap_strictly_decreasing", rise, hi=-math.ulp(0.0))

    u2 = synth_velocity(config.grid, exponent=6.0, modes=5, seed=config.seed)
    gaps2 = dissipation_convergence(u2, fp, config.smoothers)
    for n, g in zip(config.n_list, gaps2):
        report.add("synthetic_smooth", n, "dissipation_gap", g)
    rise = np.max(np.diff(gaps2), initial=-math.inf)
    report.check("synthetic_gap_strictly_decreasing", rise, hi=-math.ulp(0.0))
    return report


# ---------------------------------------------------------------------------
# l2


def run_l2(config: RunConfig) -> ExperimentReport:
    """L2 convergence of the smoothed field: smooth and Hoelder rates."""
    grid = config.grid
    u = sample_on_grid(grid, np.sin)
    report = ExperimentReport("l2")
    errs = l2_convergence(u, config.smoothers)
    slope = _series(report, "smooth", "l2_error", config.n_list, errs)
    report.check("smooth_rate", abs(slope + 2.0), hi=0.3)

    for a in HOLDER_ALPHAS:
        ua = sample_on_grid(grid, lacunary_field(a, seed=config.seed))
        errs = l2_convergence(ua, config.smoothers)
        slope = _series(report, f"alpha={a}", "l2_error", config.n_list, errs)
        report.check(f"holder_rate_alpha={a}", slope, -a - 0.2, -a + 0.2)

    uc = sample_on_grid(grid, lambda x: np.full_like(x, 2.5))
    worst = float(np.max(l2_convergence(uc, config.smoothers)))
    report.add("constant", max(config.n_list), "l2_error_max", worst)
    report.check("constant_reproduced", worst, hi=1e-12)
    return report


RUNNERS = {
    "kernel": run_kernel,
    "caputo": run_caputo,
    "kantorovich_rates": run_kantorovich_rates,
    "variance_scaling": run_variance_scaling,
    "voronovskaya": run_voronovskaya,
    "mollifier_rates": run_mollifier_rates,
    "mse": run_mse,
    "burgers": run_burgers,
    "dissipation": run_dissipation,
    "l2": run_l2,
}


def run(config: RunConfig) -> ExperimentReport:
    """Dispatch to the configured experiment and write any requested files.

    Output files: <experiment>.csv (always, when out_dir is set),
    <experiment>_config.json (config echo), <experiment>.svg (with svg),
    and for the burgers run burgers_final.csv, the final field as rows x,u.
    """
    report = RUNNERS[config.experiment](config)
    if config.out_dir:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_csv(report, out / f"{config.experiment}.csv")
        with open(out / f"{config.experiment}_config.json", "w", encoding="utf-8") as fh:
            json.dump(config.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        if config.svg:
            write_svg(report, out / f"{config.experiment}.svg")
        if report.final_field is not None:
            write_field_csv(report.final_field, out / "burgers_final.csv")
    return report
