import math
import tracemalloc

import numpy as np
import pytest

from fracstoch import mollify, turbulence
from fracstoch.fields import Field, PeriodicGrid, sample_on_grid
from fracstoch.fractional import (
    TimeGrid,
    _l1_history_sum,
    _l1_weights,
    _symbol,
    _wavenumbers,
    frac_laplacian,
    mittag_leffler,
)
from fracstoch.rng import LABEL_FORCING, NoiseModel, standard_normals
from fracstoch.turbulence import (
    FracFlowParams,
    SolverDivergence,
    _l1_stability_bound,
    dissipation_convergence,
    energy_dissipation,
    frac_burgers_solve,
    l2_convergence,
    synth_velocity,
)


def _bumps(*ns):
    return [mollify.ScaledKernel(n) for n in ns]


def _mode_amp(row, k):
    # coefficient of sin(kx) in the sampled field
    return float(-2.0 * np.fft.rfft(row)[k].imag / row.size)


def test_flow_params_validation():
    with pytest.raises(ValueError):
        FracFlowParams(0.5, s=0.0)
    with pytest.raises(ValueError):
        FracFlowParams(0.5, s=1.6)
    with pytest.raises(ValueError):
        FracFlowParams(0.5, nu=0.0)
    with pytest.raises(ValueError):
        FracFlowParams(0.5, nu=float("inf"))


def test_synth_velocity_deterministic_and_bounded_modes():
    g = PeriodicGrid(2 * np.pi, 128)
    u1 = synth_velocity(g, exponent=4.0, modes=6, seed=3)
    u2 = synth_velocity(g, exponent=4.0, modes=6, seed=3)
    assert np.array_equal(u1.values, u2.values)
    with pytest.raises(ValueError):
        synth_velocity(g, exponent=4.0, modes=64, seed=0)
    with pytest.raises(ValueError):
        synth_velocity(g, exponent=4.0, modes=1, seed=0)
    # True does not run as seed 1, and a float or negative seed is refused by name
    for bad in (True, 1.0, -1):
        with pytest.raises(ValueError, match="^seed must be"):
            synth_velocity(g, exponent=4.0, modes=6, seed=bad)


def test_synth_velocity_steep_spectrum_concentrates_energy():
    g = PeriodicGrid(2 * np.pi, 128)
    u = synth_velocity(g, exponent=8.0, modes=8, seed=5)
    p = np.abs(np.fft.rfft(u.values)[1:9]) ** 2
    assert p[0] / p.sum() > 0.9


def test_zero_data_zero_forcing_is_fixed_point():
    g = PeriodicGrid(2 * np.pi, 32)
    z = Field(np.zeros(32), g.spacing)
    fp = FracFlowParams(0.5, s=0.8, nu=0.05)
    traj = frac_burgers_solve(z, fp, TimeGrid(0.0, 1.0, 64))
    assert np.abs(traj).max() == 0.0


def test_linear_mode_matches_mittag_leffler():
    g = PeriodicGrid(2 * np.pi, 16)
    u0 = sample_on_grid(g, np.sin)
    fp = FracFlowParams(0.6, s=0.75, nu=0.5)
    traj = frac_burgers_solve(u0, fp, TimeGrid(0.0, 1.0, 256), nonlinear=False)
    exact = mittag_leffler(0.6, -0.5)
    assert abs(_mode_amp(traj[-1], 1) - exact) < 1e-3


def test_linear_mode_matches_mittag_leffler_over_many_blocks():
    # 2 to 8 history blocks: a wrong far-memory term breaks the first-order L1 rate
    g = PeriodicGrid(2 * np.pi, 16)
    u0 = sample_on_grid(g, np.sin)
    fp = FracFlowParams(0.6, s=0.75, nu=0.5)
    exact = mittag_leffler(0.6, -0.5)
    errs = []
    for steps in (1024, 2048, 4096):
        traj = frac_burgers_solve(u0, fp, TimeGrid(0.0, 1.0, steps), nonlinear=False)
        errs.append(abs(_mode_amp(traj[-1], 1) - exact))
    assert errs[-1] <= 1e-5
    assert all(1.7 <= e0 / e1 <= 2.3 for e0, e1 in zip(errs, errs[1:]))


def _direct_l1_solve(u0, params, t_grid, noise):
    """Snapshots of the solver's scheme with the whole L1 history summed directly."""
    P, a, h, steps = u0.points, params.alpha, t_grid.h, t_grid.steps
    xi_w = _wavenumbers(P, u0.length)
    mask = np.arange(P // 2 + 1) < turbulence._dealias_cut(P)
    diss = params.nu * _symbol(xi_w, params.s)
    gh = math.gamma(2.0 - a) * h**a
    r = np.arange(1, steps, dtype=float)
    bw = (r + 1.0) ** (1.0 - a) - r ** (1.0 - a)  # b_1 .. b_{steps-1}
    u_hat = np.fft.rfft(u0.values)
    keys = (np.arange(1, steps + 1)[:, None], np.arange(1, 5)[None, :])
    ar = standard_normals(noise.base_seed, LABEL_FORCING, *keys, 0)
    br = standard_normals(noise.base_seed, LABEL_FORCING, *keys, 1)
    forcing = noise.sigma * math.sqrt(h) * 0.5 * P * (ar - 1j * br)
    history = np.zeros((steps, u_hat.size), dtype=complex)
    out = [u0.values]
    for m in range(1, steps + 1):
        # the solver's product: contiguous reversed real weights on real columns
        memory = (bw[: m - 1][::-1].copy() @ history[: m - 1].view(float)).view(complex)
        u_phys = np.fft.irfft(u_hat, n=P)
        ux = np.fft.irfft(1j * xi_w * u_hat, n=P)
        rhs = -diss * u_hat - np.where(mask, np.fft.rfft(u_phys * ux), 0.0)
        d = -memory + gh * rhs
        if noise.sigma > 0:
            d[1:5] += forcing[m - 1]
        history[m - 1] = d
        u_hat = u_hat + d
        out.append(np.fft.irfft(u_hat, n=P))
    return out


@pytest.mark.parametrize("sigma", [0.0, 0.05], ids=["unforced", "forced"])
@pytest.mark.parametrize("alpha", [0.3, 0.7])
def test_blocked_history_equals_direct_sum(monkeypatch, alpha, sigma):
    g = PeriodicGrid(2 * np.pi, 16)
    u0 = synth_velocity(g, exponent=4.0, modes=4, seed=3)
    u0 = Field(0.3 * u0.values, u0.spacing)
    fp = FracFlowParams(alpha, s=0.8, nu=0.02)
    noise = NoiseModel(sigma=sigma, base_seed=5)
    # 115 and 837 steps end inside the pushes of blocks 16 .. 31 and 12 .. 15
    cases = {
        1: (7, 130),
        7: (7, 64, 700, 115),
        64: (64, 700, 1025, 837),
        512: (512, 700, 1025, 1500),
    }
    for block, step_counts in cases.items():
        monkeypatch.setattr(turbulence, "_BLOCK", block)
        for steps in step_counts:
            tg = TimeGrid(0.0, 0.5, steps)
            ref = _direct_l1_solve(u0, fp, tg, noise)
            got = frac_burgers_solve(u0, fp, tg, noise)
            assert len(got) == len(ref)
            for f, want in zip(got, ref):
                if steps <= block:
                    assert np.array_equal(f, want), (block, steps)
                else:
                    err = np.max(np.abs(f - want))
                    assert err <= 1e-12 * np.max(np.abs(want)), (block, steps, err)


@pytest.mark.parametrize("c,steps", [(1, 40), (2, 40), (4, 27), (6, 40), (8, 40)])
def test_far_memory_push_adds_the_direct_sum(c, steps):
    # the push at block c with B = 4: blocks c-w .. c-1 onto the rows of
    # blocks c .. c+w-1 (cut at steps), w the lowest set bit of c
    B = 4
    w = (c & -c) * B
    start = c * B
    end = min(start + w, steps)
    b = _l1_weights(0.4, steps)
    rng = np.random.default_rng(c)
    history = rng.standard_normal((steps, 5)) + 1j * rng.standard_normal((steps, 5))
    want = history.copy()
    for k in range(start, end):
        want[k] += b[k - start + w : k - start : -1] @ history[start - w : start]
    src, dst = history[start - w : start], history[start:end]
    _l1_history_sum(b, src.view(float), w, w + end - start, dst.view(float))
    assert np.allclose(history, want, rtol=0.0, atol=1e-13)
    assert np.array_equal(history[:start], want[:start])
    assert np.array_equal(history[end:], want[end:])


def test_far_memory_convolves_each_history_row_log_times(monkeypatch):
    # dyadic pushes: each of log2(steps/B) levels convolves steps/2 source rows
    rows = []

    def counted(b, x, lo, hi, out):
        rows.append(len(x))
        _l1_history_sum(b, x, lo, hi, out)

    monkeypatch.setattr(turbulence, "_BLOCK", 8)
    monkeypatch.setattr(turbulence, "_l1_history_sum", counted)
    u0 = sample_on_grid(PeriodicGrid(2 * np.pi, 16), np.sin)
    frac_burgers_solve(u0, FracFlowParams(0.5, nu=0.01), TimeGrid(0.0, 1.0, 1024))
    assert sum(rows) == 512 * 7  # the whole closed history at each block start was 65 024


def test_history_memory_stays_bounded():
    # the 8192-step history is 4.3 MB; a full-horizon far-memory array would add ~35 MB
    g = PeriodicGrid(2 * np.pi, 64)
    u0 = synth_velocity(g, exponent=4.0, modes=6, seed=3)
    u0 = Field(0.3 * u0.values, u0.spacing)
    fp = FracFlowParams(0.5, s=0.8, nu=0.1)
    noise = NoiseModel(sigma=0.1, base_seed=42)
    tracemalloc.start()
    try:
        traj = frac_burgers_solve(u0, fp, TimeGrid(0.0, 1.0, 8192), noise, store_every=16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10e6, f"traced peak {peak / 1e6:.1f} MB"
    assert traj.shape == (513, 64)


@pytest.mark.parametrize("nonlinear", [False, True], ids=["linear", "nonlinear"])
def test_snapshot_rows_follow_the_stride_rule(nonlinear):
    # row i is step min(i k, steps); 100 steps is a multiple of none of 3, 7, 105
    g = PeriodicGrid(2 * np.pi, 16)
    u0 = synth_velocity(g, exponent=4.0, modes=4, seed=3)
    u0 = Field(0.3 * u0.values, u0.spacing)
    fp = FracFlowParams(0.5, s=0.8, nu=0.05)
    tg = TimeGrid(0.0, 0.5, 100)
    noise = NoiseModel(sigma=0.05, base_seed=5)
    every = frac_burgers_solve(u0, fp, tg, noise, nonlinear=nonlinear)
    assert np.array_equal(every[0], u0.values)
    for k in (1, 3, 7, tg.steps, tg.steps + 5):
        traj = frac_burgers_solve(u0, fp, tg, noise, nonlinear=nonlinear, store_every=k)
        assert traj.dtype == np.float64 and traj.flags.owndata
        assert traj.shape == (1 + math.ceil(tg.steps / k), 16), k
        rows = [min(i * k, tg.steps) for i in range(len(traj))]
        assert np.array_equal(traj, every[rows]), k


def test_classical_limit_exponential_decay():
    g = PeriodicGrid(2 * np.pi, 16)
    u0 = sample_on_grid(g, np.sin)
    fp = FracFlowParams(1.0 - 1e-6, s=1.0, nu=0.3)
    traj = frac_burgers_solve(u0, fp, TimeGrid(0.0, 1.0, 256), nonlinear=False)
    assert abs(_mode_amp(traj[-1], 1) - math.exp(-0.3)) < 1e-2


def test_step_restriction_guard():
    g = PeriodicGrid(2 * np.pi, 256)
    u0 = sample_on_grid(g, np.sin)
    fp = FracFlowParams(0.3, s=1.0, nu=1.0)
    with pytest.raises(ValueError, match="step restriction"):
        frac_burgers_solve(u0, fp, TimeGrid(0.0, 1.0, 16))


@pytest.mark.parametrize("store_every", [0, -3])
def test_solver_rejects_store_every_below_one_before_any_work(store_every, monkeypatch):
    def no_draw(*args):
        raise AssertionError("forcing drawn before the arguments were checked")

    monkeypatch.setattr(turbulence, "standard_normals", no_draw)
    u0 = sample_on_grid(PeriodicGrid(2 * np.pi, 16), np.sin)
    fp = FracFlowParams(0.5)
    noise = NoiseModel(sigma=0.1, base_seed=0)
    with pytest.raises(ValueError, match="store_every must be >= 1"):
        frac_burgers_solve(u0, fp, TimeGrid(0.0, 1.0, 8), noise, store_every=store_every)


@pytest.mark.parametrize("store_every", [1.5, np.nan])
def test_solver_rejects_fractional_store_every(store_every):
    # 1.5 would keep every third step and NaN only the two ends
    u0 = sample_on_grid(PeriodicGrid(2 * np.pi, 16), np.sin)
    with pytest.raises(ValueError, match="store_every must be an integer"):
        frac_burgers_solve(u0, FracFlowParams(0.5), TimeGrid(0.0, 1.0, 64), store_every=store_every)


def test_solver_takes_nonlinear_and_store_every_by_keyword_only():
    # positionally, a stride of 16 would land in nonlinear and keep all 65 snapshots
    u0 = sample_on_grid(PeriodicGrid(2 * np.pi, 16), np.sin)
    with pytest.raises(TypeError):
        frac_burgers_solve(u0, FracFlowParams(0.5), TimeGrid(0.0, 1.0, 64), None, 16)


def test_step_guard_covers_the_top_mode():
    # a guard h^a nu k^2s / Gamma(2-a) at the dealiased k = P/3 scores this
    # case 0.49, yet the P/2 - 1 mode makes the run diverge at step 154
    a, s, P = 0.3, 1.5, 32
    tg = TimeGrid(0.0, 1.0, 3000)
    g = PeriodicGrid(2 * np.pi, P)
    x = g.coords()
    u0 = Field(np.sin(x) + 1e-6 * np.sin((P // 2 - 1) * x), g.spacing)
    nu = 0.49 * math.gamma(2 - a) / (tg.h**a * (P // 3) ** (2 * s))
    with pytest.raises(ValueError, match="step restriction"):
        frac_burgers_solve(u0, FracFlowParams(a, s=s, nu=nu), tg)
    # at Gamma(2-a) h^a nu (P/2)^2s = 0.95, inside the L1 bound 1.316, it stays bounded
    nu = 0.95 / (math.gamma(2 - a) * tg.h**a * (P / 2) ** (2 * s))
    traj = frac_burgers_solve(u0, FracFlowParams(a, s=s, nu=nu), tg, store_every=3000)
    assert abs(np.fft.rfft(traj[-1])[P // 2 - 1]) * 2 / P < 1e-6
    assert np.max(np.abs(traj[-1])) < 1.0


@pytest.mark.parametrize(
    "alpha,bound", [(0.2, 1.2112), (0.3, 1.3156), (0.5, 1.5204), (0.8, 1.8146), (0.95, 1.9545)]
)
def test_l1_stability_bound_values(alpha, bound):
    # 4 (1 - 2^{2-a}) zeta(a - 1), as scipy.special.zeta gives it
    assert _l1_stability_bound(alpha) == pytest.approx(bound, abs=1e-4)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
def test_l1_stability_bound_is_where_the_alternating_mode_turns(alpha):
    # the scalar L1 recurrence d_m = -z u_{m-1} - sum_{j>=1} b_j d_{m-j}
    steps = 2048
    b = _l1_weights(alpha, steps)

    def run(z):
        d, u = np.zeros(steps), np.ones(steps + 1)
        for m in range(steps):
            d[m] = -z * u[m] - b[m:0:-1] @ d[:m]
            u[m + 1] = u[m] + d[m]
        return u

    bound = _l1_stability_bound(alpha)
    assert np.max(np.abs(run(0.99 * bound))) <= 1.0
    u = run(1.05 * bound)
    assert abs(u[-1]) > 1e20
    assert np.all(u[-10:-1] * u[-9:] < 0)  # the (-1)^m mode grows


def test_step_guard_accepts_stiffness_inside_the_l1_bound():
    # the top mode at 0.99 and 1.01 times the bound: runs, then is refused
    a, s, P = 0.5, 1.0, 16
    tg = TimeGrid(0.0, 1.0, 256)
    u0 = sample_on_grid(PeriodicGrid(2 * np.pi, P), lambda x: np.cos((P // 2) * x))
    unit = math.gamma(2 - a) * tg.h**a * (P / 2) ** (2 * s)
    bound = _l1_stability_bound(a)
    fp = FracFlowParams(a, s=s, nu=0.99 * bound / unit)
    traj = frac_burgers_solve(u0, fp, tg, nonlinear=False)
    assert np.max(np.abs(traj[-1])) < 1.0
    with pytest.raises(ValueError, match="step restriction"):
        frac_burgers_solve(u0, FracFlowParams(a, s=s, nu=1.01 * bound / unit), tg)


def test_divergence_detector():
    g = PeriodicGrid(2 * np.pi, 64)
    # huge amplitude makes the explicit advection blow up quickly
    u0 = Field(200.0 * np.sin(3 * g.coords()), g.spacing)
    fp = FracFlowParams(0.6, s=0.8, nu=0.05)
    with pytest.raises(SolverDivergence):
        frac_burgers_solve(u0, fp, TimeGrid(0.0, 1.0, 512))


def test_trajectories_reproducible_with_forcing():
    g = PeriodicGrid(2 * np.pi, 64)
    u0 = synth_velocity(g, exponent=4.0, modes=6, seed=3)
    u0 = Field(0.3 * u0.values, u0.spacing)
    fp = FracFlowParams(0.6, s=0.8, nu=0.05)
    tg = TimeGrid(0.0, 0.25, 256)
    t1 = frac_burgers_solve(u0, fp, tg, NoiseModel(sigma=0.05, base_seed=11))
    t2 = frac_burgers_solve(u0, fp, tg, NoiseModel(sigma=0.05, base_seed=11))
    assert np.array_equal(t1, t2)
    t3 = frac_burgers_solve(u0, fp, tg, NoiseModel(sigma=0.05, base_seed=12))
    assert not np.array_equal(t1[-1], t3[-1])


@pytest.mark.parametrize("P", [2**j for j in range(3, 13)])
def test_pocketfft_kernels_equal_np_fft_bit_for_bit(P):
    # the solver calls numpy's private pocketfft gufuncs, so a numpy release
    # that changes them fails here by name, not only through the burgers pins
    rng = np.random.default_rng(P)
    for shape in ((P,), (2, P)):
        x = rng.standard_normal(shape)
        s = rng.standard_normal(shape[:-1] + (P // 2 + 1,)) + 1j * rng.standard_normal(
            shape[:-1] + (P // 2 + 1,)
        )
        spec, back = np.empty(s.shape, dtype=complex), np.empty(shape)
        turbulence._rfft(x, 1.0, out=spec)
        turbulence._irfft(s, 1.0 / P, out=back)
        where = f"at P = {P}, shape {shape}, numpy {np.__version__}"
        assert spec.tobytes() == np.fft.rfft(x).tobytes(), f"rfft differs {where}"
        assert back.tobytes() == np.fft.irfft(s, n=P).tobytes(), f"irfft differs {where}"


def test_time_loop_makes_no_np_fft_call(monkeypatch):
    # 500 steps stay in the first block, so no far-memory push (which keeps
    # np.fft) runs: every transform of the forced, nonlinear solve is a gufunc
    grid = PeriodicGrid(2.0 * np.pi, 32)
    u0 = Field(0.1 * np.sin(grid.coords()), grid.spacing)
    params = FracFlowParams(0.5, s=0.8, nu=0.05)
    t_grid = TimeGrid(0.0, 0.25, 500)
    noise = NoiseModel(sigma=0.1, base_seed=5)
    ref = frac_burgers_solve(u0, params, t_grid, noise)

    def refuse(*args, **kwargs):
        raise AssertionError("the Burgers step called an np.fft wrapper")

    monkeypatch.setattr(np.fft, "rfft", refuse)
    monkeypatch.setattr(np.fft, "irfft", refuse)
    got = frac_burgers_solve(u0, params, t_grid, noise)
    assert len(got) == len(ref) == 501
    assert np.array_equal(got, ref)


def test_energy_dissipation_eigenfunction():
    g = PeriodicGrid(2 * np.pi, 256)
    u = sample_on_grid(g, lambda x: np.sin(3 * x))
    fp = FracFlowParams(0.5, s=0.6, nu=0.1)
    assert energy_dissipation(u, fp) == pytest.approx(0.1 * 3**1.2 * math.pi, abs=1e-10)


def test_energy_dissipation_constant_and_additivity():
    g = PeriodicGrid(2 * np.pi, 256)
    fp = FracFlowParams(0.5, s=0.6, nu=0.1)
    const = sample_on_grid(g, lambda x: np.full_like(x, 3.3))
    assert energy_dissipation(const, fp) == 0.0
    u1 = sample_on_grid(g, np.sin)
    u4 = sample_on_grid(g, lambda x: np.sin(4 * x))
    both = sample_on_grid(g, lambda x: np.sin(x) + np.sin(4 * x))
    assert energy_dissipation(both, fp) == pytest.approx(
        energy_dissipation(u1, fp) + energy_dissipation(u4, fp), rel=1e-12
    )


def test_energy_dissipation_parseval_consistency():
    # spatial quadrature of |(-Lap)^{s/2} u|^2 equals the spectral sum
    g = PeriodicGrid(2 * np.pi, 512)
    u = synth_velocity(g, exponent=3.0, modes=10, seed=2)
    fp = FracFlowParams(0.5, s=0.7, nu=0.4)
    half = frac_laplacian(u, fp.s / 2.0)
    spatial = fp.nu * float(np.sum(half.values**2) * u.spacing)
    assert energy_dissipation(u, fp) == pytest.approx(spatial, abs=1e-10)


def test_dissipation_positive_iff_nonconstant():
    g = PeriodicGrid(2 * np.pi, 128)
    fp = FracFlowParams(0.5, s=0.8, nu=0.2)
    u = synth_velocity(g, exponent=2.0, modes=4, seed=9)
    assert energy_dissipation(u, fp) > 0


def test_dissipation_convergence_decreasing():
    g = PeriodicGrid(2 * np.pi, 4096)
    u = sample_on_grid(g, lambda x: np.sin(3 * x))
    fp = FracFlowParams(0.5, s=0.6, nu=0.1)
    gaps, mc_gaps = dissipation_convergence(u, fp, _bumps(8, 16, 32, 64))
    assert mc_gaps == []
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_dissipation_convergence_rejects_negative_replicates():
    u = sample_on_grid(PeriodicGrid(2 * np.pi, 256), np.sin)
    nm = NoiseModel(sigma=0.1, base_seed=1)
    with pytest.raises(ValueError, match="replicates must be >= 0, got -3"):
        dissipation_convergence(u, FracFlowParams(0.5), _bumps(8, 16), nm, -3)


def test_dissipation_convergence_checks_kernels_before_drawing(monkeypatch):
    def no_draw(*args):
        raise AssertionError("noise drawn before the kernels were checked")

    monkeypatch.setattr(turbulence, "mean_white_noise", no_draw)
    u = sample_on_grid(PeriodicGrid(2 * np.pi, 256), np.sin)
    fp = FracFlowParams(0.5)
    with pytest.raises(ValueError, match="kernels must be a non-empty sequence"):
        dissipation_convergence(u, fp, [], NoiseModel(sigma=0.1, base_seed=1), 10)


def test_dissipation_convergence_constant_field_is_exact():
    g = PeriodicGrid(2 * np.pi, 2048)
    u = sample_on_grid(g, lambda x: np.full_like(x, 1.0))
    fp = FracFlowParams(0.5, s=0.6, nu=0.1)
    gaps, _ = dissipation_convergence(u, fp, _bumps(8, 16))
    assert max(gaps) == 0.0


def test_dissipation_monte_carlo_column_approaches_deterministic():
    g = PeriodicGrid(2 * np.pi, 2048)
    u = sample_on_grid(g, lambda x: np.sin(3 * x))
    fp = FracFlowParams(0.5, s=0.6, nu=0.1)
    nm = NoiseModel(sigma=0.3, base_seed=9)
    [det], [mc1] = dissipation_convergence(u, fp, _bumps(8), noise=nm, replicates=1)
    _, [mcN] = dissipation_convergence(u, fp, _bumps(8), noise=nm, replicates=10_000)
    assert abs(mcN - det) < abs(mc1 - det)


def test_dissipation_gaps_match_the_public_smoothers():
    g = PeriodicGrid(2 * np.pi, 2048)
    u = sample_on_grid(g, lambda x: np.sin(3 * x))
    fp = FracFlowParams(0.5, s=0.6, nu=0.1)
    nm = NoiseModel(sigma=0.3, base_seed=9)
    kernels = _bumps(8, 16, 32, 64)
    gaps, mc_gaps = dissipation_convergence(u, fp, kernels, noise=nm, replicates=10)
    eps = energy_dissipation(u, fp)
    xi = mollify.mean_white_noise(u, nm, 10)
    for kernel, gap, mc_gap in zip(kernels, gaps, mc_gaps):
        assert gap == abs(energy_dissipation(mollify.mollify(u, kernel), fp) - eps)
        mc = mollify.stochastic_mollify(u, kernel, nm, xi)
        assert mc_gap == abs(energy_dissipation(mc, fp) - eps)


def test_l2_convergence_smooth_slope():
    g = PeriodicGrid(2 * np.pi, 4096)
    u = sample_on_grid(g, np.sin)
    errs = l2_convergence(u, _bumps(8, 16, 32, 64))
    A = np.vstack([np.log([8, 16, 32, 64]), np.ones(4)]).T
    slope = np.linalg.lstsq(A, np.log(errs), rcond=None)[0][0]
    assert slope == pytest.approx(-2.0, abs=0.3)


def test_l2_convergence_constant_zero():
    g = PeriodicGrid(2 * np.pi, 2048)
    u = sample_on_grid(g, lambda x: np.full_like(x, 2.0))
    assert max(l2_convergence(u, _bumps(8, 16))) < 1e-12
    with pytest.raises(ValueError, match="kernels must be a non-empty sequence"):
        l2_convergence(u, [])
