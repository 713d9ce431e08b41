import math
import struct
import tracemalloc

import numpy as np
import pytest

from fracstoch import mollify, turbulence
from fracstoch.fields import Field, PeriodicGrid, sample_on_grid
from fracstoch.fractional import (
    FracOrder,
    TimeGrid,
    _symbol,
    _wavenumbers,
    frac_laplacian,
    mittag_leffler,
)
from fracstoch.rng import LABEL_FORCING, NoiseModel, standard_normals
from fracstoch.turbulence import (
    FracFlowParams,
    SolverDivergence,
    SpectrumSpec,
    dissipation_convergence,
    energy_dissipation,
    frac_burgers_solve,
    l2_convergence,
    load_field_binary,
    save_field_binary,
    save_field_csv,
    synth_velocity,
)


def _mode_amp(field, k):
    # coefficient of sin(kx) in the sampled field
    return float(-2.0 * np.fft.rfft(field.values)[k].imag / field.points)


def test_flow_params_validation():
    with pytest.raises(ValueError):
        FracFlowParams(FracOrder(0.5), s=0.0)
    with pytest.raises(ValueError):
        FracFlowParams(FracOrder(0.5), s=1.6)
    with pytest.raises(ValueError):
        FracFlowParams(FracOrder(0.5), nu=0.0)
    with pytest.raises(ValueError):
        FracFlowParams(FracOrder(0.5), sigma_f=-1.0)
    with pytest.raises(ValueError):
        FracFlowParams(FracOrder(0.5), sigma_f=float("nan"))
    with pytest.raises(ValueError):
        FracFlowParams(FracOrder(0.5), nu=float("inf"))
    with pytest.raises(ValueError):
        FracFlowParams(FracOrder(0.5), sigma_f=float("inf"))


def test_synth_velocity_deterministic_and_bounded_modes():
    g = PeriodicGrid(2 * np.pi, 128)
    spec = SpectrumSpec(exponent=4.0, modes=6, seed=3)
    u1 = synth_velocity(spec, g)
    u2 = synth_velocity(spec, g)
    assert np.array_equal(u1.values, u2.values)
    with pytest.raises(ValueError):
        synth_velocity(SpectrumSpec(modes=64, seed=0), g)
    with pytest.raises(ValueError):
        SpectrumSpec(modes=1)


def test_synth_velocity_steep_spectrum_concentrates_energy():
    g = PeriodicGrid(2 * np.pi, 128)
    u = synth_velocity(SpectrumSpec(exponent=8.0, modes=8, seed=5), g)
    p = np.abs(np.fft.rfft(u.values)[1:9]) ** 2
    assert p[0] / p.sum() > 0.9


def test_zero_data_zero_forcing_is_fixed_point():
    g = PeriodicGrid(2 * np.pi, 32)
    z = Field(np.zeros(32), g.spacing)
    fp = FracFlowParams(FracOrder(0.5), s=0.8, nu=0.05)
    traj = frac_burgers_solve(z, fp, TimeGrid(0.0, 1.0, 64))
    assert max(float(np.max(np.abs(f.values))) for f in traj) == 0.0


def test_linear_mode_matches_mittag_leffler():
    g = PeriodicGrid(2 * np.pi, 16)
    u0 = sample_on_grid(g, np.sin)
    fp = FracFlowParams(FracOrder(0.6), s=0.75, nu=0.5)
    traj = frac_burgers_solve(u0, fp, TimeGrid(0.0, 1.0, 256), nonlinear=False)
    exact = mittag_leffler(0.6, -0.5)
    assert abs(_mode_amp(traj[-1], 1) - exact) < 1e-3


def test_linear_mode_matches_mittag_leffler_over_many_blocks():
    # 2 to 8 history blocks: a wrong far-memory term breaks the first-order L1 rate
    g = PeriodicGrid(2 * np.pi, 16)
    u0 = sample_on_grid(g, np.sin)
    fp = FracFlowParams(FracOrder(0.6), s=0.75, nu=0.5)
    exact = mittag_leffler(0.6, -0.5)
    errs = []
    for steps in (1024, 2048, 4096):
        traj = frac_burgers_solve(u0, fp, TimeGrid(0.0, 1.0, steps), nonlinear=False)
        errs.append(abs(_mode_amp(traj[-1], 1) - exact))
    assert errs[-1] <= 1e-5
    assert all(1.7 <= e0 / e1 <= 2.3 for e0, e1 in zip(errs, errs[1:]))


def _direct_l1_solve(u0, params, t_grid, noise_seed=0):
    """Snapshots of the solver's scheme with the whole L1 history summed directly."""
    P, a, h, steps = u0.points, params.alpha.alpha, t_grid.h, t_grid.steps
    xi_w = _wavenumbers(P, u0.length)
    mask = np.arange(P // 2 + 1) < turbulence._dealias_cut(P)
    diss = params.nu * _symbol(xi_w, params.s)
    gh = math.gamma(2.0 - a) * h**a
    r = np.arange(1, steps, dtype=float)
    bw = (r + 1.0) ** (1.0 - a) - r ** (1.0 - a)  # b_1 .. b_{steps-1}
    u_hat = np.fft.rfft(u0.values)
    keys = (np.arange(1, steps + 1)[:, None], np.arange(1, 5)[None, :])
    ar = standard_normals(noise_seed, LABEL_FORCING, *keys, 0)
    br = standard_normals(noise_seed, LABEL_FORCING, *keys, 1)
    forcing = params.sigma_f * math.sqrt(h) * 0.5 * P * (ar - 1j * br)
    history = np.zeros((steps, u_hat.size), dtype=complex)
    out = [u0.values]
    for m in range(1, steps + 1):
        memory = bw[m - 2 :: -1] @ history[: m - 1] if m >= 2 else np.zeros_like(u_hat)
        u_phys = np.fft.irfft(u_hat, n=P)
        ux = np.fft.irfft(1j * xi_w * u_hat, n=P)
        rhs = -diss * u_hat - np.where(mask, np.fft.rfft(u_phys * ux), 0.0)
        d = -memory + gh * rhs
        if params.sigma_f > 0:
            d[1:5] += forcing[m - 1]
        history[m - 1] = d
        u_hat = u_hat + d
        out.append(np.fft.irfft(u_hat, n=P))
    return out


@pytest.mark.parametrize("sigma_f", [0.0, 0.05], ids=["unforced", "forced"])
@pytest.mark.parametrize("alpha", [0.3, 0.7])
def test_blocked_history_equals_direct_sum(monkeypatch, alpha, sigma_f):
    g = PeriodicGrid(2 * np.pi, 16)
    u0 = synth_velocity(SpectrumSpec(exponent=4.0, modes=4, seed=3), g)
    u0 = Field(0.3 * u0.values, u0.spacing)
    fp = FracFlowParams(FracOrder(alpha), s=0.8, nu=0.02, sigma_f=sigma_f)
    cases = {1: (7, 130), 7: (7, 64, 700), 64: (64, 700, 1025), 512: (512, 700, 1025, 1500)}
    for block, step_counts in cases.items():
        monkeypatch.setattr(turbulence, "_BLOCK", block)
        for steps in step_counts:
            tg = TimeGrid(0.0, 0.5, steps)
            ref = _direct_l1_solve(u0, fp, tg, noise_seed=5)
            got = frac_burgers_solve(u0, fp, tg, noise_seed=5)
            assert len(got) == len(ref)
            for f, want in zip(got, ref):
                if steps <= block:
                    assert np.array_equal(f.values, want), (block, steps)
                else:
                    err = np.max(np.abs(f.values - want))
                    assert err <= 1e-12 * np.max(np.abs(want)), (block, steps, err)


def test_history_memory_stays_bounded():
    # the 8192-step history is 4.3 MB; a full-horizon far-memory array would add ~35 MB
    g = PeriodicGrid(2 * np.pi, 64)
    u0 = synth_velocity(SpectrumSpec(exponent=4.0, modes=6, seed=3), g)
    u0 = Field(0.3 * u0.values, u0.spacing)
    fp = FracFlowParams(FracOrder(0.5), s=0.8, nu=0.1, sigma_f=0.1)
    tracemalloc.start()
    try:
        traj = frac_burgers_solve(u0, fp, TimeGrid(0.0, 1.0, 8192), noise_seed=42, store_every=16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10e6, f"traced peak {peak / 1e6:.1f} MB"
    # each of the 513 snapshots owns its P floats: a view into the solver's
    # (u, u_x) buffer would keep twice that alive per snapshot
    assert len(traj) == 513
    for f in traj:
        assert f.values.base is None or f.values.base.nbytes == 64 * 8


def test_classical_limit_exponential_decay():
    g = PeriodicGrid(2 * np.pi, 16)
    u0 = sample_on_grid(g, np.sin)
    fp = FracFlowParams(FracOrder(1.0 - 1e-6), s=1.0, nu=0.3)
    traj = frac_burgers_solve(u0, fp, TimeGrid(0.0, 1.0, 256), nonlinear=False)
    assert abs(_mode_amp(traj[-1], 1) - math.exp(-0.3)) < 1e-2


def test_step_restriction_guard():
    g = PeriodicGrid(2 * np.pi, 256)
    u0 = sample_on_grid(g, np.sin)
    fp = FracFlowParams(FracOrder(0.3), s=1.0, nu=1.0)
    with pytest.raises(ValueError, match="step restriction"):
        frac_burgers_solve(u0, fp, TimeGrid(0.0, 1.0, 16))


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
        frac_burgers_solve(u0, FracFlowParams(FracOrder(a), s=s, nu=nu), tg)
    # just inside the new bound Gamma(2-a) h^a nu (P/2)^2s <= 1 it stays bounded
    nu = 0.95 / (math.gamma(2 - a) * tg.h**a * (P / 2) ** (2 * s))
    traj = frac_burgers_solve(u0, FracFlowParams(FracOrder(a), s=s, nu=nu), tg, store_every=3000)
    assert abs(np.fft.rfft(traj[-1].values)[P // 2 - 1]) * 2 / P < 1e-6
    assert np.max(np.abs(traj[-1].values)) < 1.0


def test_divergence_detector():
    g = PeriodicGrid(2 * np.pi, 64)
    # huge amplitude makes the explicit advection blow up quickly
    u0 = Field(200.0 * np.sin(3 * g.coords()), g.spacing)
    fp = FracFlowParams(FracOrder(0.6), s=0.8, nu=0.05)
    with pytest.raises(SolverDivergence):
        frac_burgers_solve(u0, fp, TimeGrid(0.0, 1.0, 512))


def test_trajectories_reproducible_with_forcing():
    g = PeriodicGrid(2 * np.pi, 64)
    u0 = synth_velocity(SpectrumSpec(exponent=4.0, modes=6, seed=3), g)
    u0 = Field(0.3 * u0.values, u0.spacing)
    fp = FracFlowParams(FracOrder(0.6), s=0.8, nu=0.05, sigma_f=0.05)
    tg = TimeGrid(0.0, 0.25, 256)
    t1 = frac_burgers_solve(u0, fp, tg, noise_seed=11)
    t2 = frac_burgers_solve(u0, fp, tg, noise_seed=11)
    assert all(np.array_equal(a.values, b.values) for a, b in zip(t1, t2))
    t3 = frac_burgers_solve(u0, fp, tg, noise_seed=12)
    assert not np.array_equal(t1[-1].values, t3[-1].values)


def test_energy_dissipation_eigenfunction():
    g = PeriodicGrid(2 * np.pi, 256)
    u = sample_on_grid(g, lambda x: np.sin(3 * x))
    fp = FracFlowParams(FracOrder(0.5), s=0.6, nu=0.1)
    assert energy_dissipation(u, fp) == pytest.approx(0.1 * 3**1.2 * math.pi, abs=1e-10)


def test_energy_dissipation_constant_and_additivity():
    g = PeriodicGrid(2 * np.pi, 256)
    fp = FracFlowParams(FracOrder(0.5), s=0.6, nu=0.1)
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
    u = synth_velocity(SpectrumSpec(exponent=3.0, modes=10, seed=2), g)
    fp = FracFlowParams(FracOrder(0.5), s=0.7, nu=0.4)
    half = frac_laplacian(u, fp.s / 2.0)
    spatial = fp.nu * float(np.sum(half.values**2) * u.spacing)
    assert energy_dissipation(u, fp) == pytest.approx(spatial, abs=1e-10)


def test_dissipation_positive_iff_nonconstant():
    g = PeriodicGrid(2 * np.pi, 128)
    fp = FracFlowParams(FracOrder(0.5), s=0.8, nu=0.2)
    u = synth_velocity(SpectrumSpec(exponent=2.0, modes=4, seed=9), g)
    assert energy_dissipation(u, fp) > 0


def test_dissipation_convergence_decreasing():
    g = PeriodicGrid(2 * np.pi, 4096)
    u = sample_on_grid(g, lambda x: np.sin(3 * x))
    fp = FracFlowParams(FracOrder(0.5), s=0.6, nu=0.1)
    gaps, mc_gaps = dissipation_convergence(u, fp, [8, 16, 32, 64])
    assert mc_gaps == []
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    with pytest.raises(ValueError):
        dissipation_convergence(u, fp, [16, 8])


def test_dissipation_convergence_constant_field_is_exact():
    g = PeriodicGrid(2 * np.pi, 2048)
    u = sample_on_grid(g, lambda x: np.full_like(x, 1.0))
    fp = FracFlowParams(FracOrder(0.5), s=0.6, nu=0.1)
    gaps, _ = dissipation_convergence(u, fp, [8, 16])
    assert max(gaps) == 0.0


def test_dissipation_monte_carlo_column_approaches_deterministic():
    g = PeriodicGrid(2 * np.pi, 2048)
    u = sample_on_grid(g, lambda x: np.sin(3 * x))
    fp = FracFlowParams(FracOrder(0.5), s=0.6, nu=0.1)
    nm = NoiseModel(sigma=0.3, base_seed=9)
    [det], [mc1] = dissipation_convergence(u, fp, [8], noise=nm, replicates=1)
    _, [mcN] = dissipation_convergence(u, fp, [8], noise=nm, replicates=10_000)
    assert abs(mcN - det) < abs(mc1 - det)


def test_dissipation_gaps_match_the_public_smoothers():
    g = PeriodicGrid(2 * np.pi, 2048)
    u = sample_on_grid(g, lambda x: np.sin(3 * x))
    fp = FracFlowParams(FracOrder(0.5), s=0.6, nu=0.1)
    nm = NoiseModel(sigma=0.3, base_seed=9)
    n_list = [8, 16, 32, 64]
    gaps, mc_gaps = dissipation_convergence(u, fp, n_list, noise=nm, replicates=10)
    eps = energy_dissipation(u, fp)
    xi = mollify.mean_white_noise(u, nm, 10)
    for n, gap, mc_gap in zip(n_list, gaps, mc_gaps):
        kernel = mollify.ScaledKernel(mollify.make_bump(), n)
        assert gap == abs(energy_dissipation(mollify.mollify(u, kernel), fp) - eps)
        mc = mollify.stochastic_mollify(u, kernel, nm, xi)
        assert mc_gap == abs(energy_dissipation(mc, fp) - eps)


def test_l2_convergence_smooth_slope():
    g = PeriodicGrid(2 * np.pi, 4096)
    u = sample_on_grid(g, np.sin)
    errs = l2_convergence(u, [8, 16, 32, 64])
    A = np.vstack([np.log([8, 16, 32, 64]), np.ones(4)]).T
    slope = np.linalg.lstsq(A, np.log(errs), rcond=None)[0][0]
    assert slope == pytest.approx(-2.0, abs=0.3)


def test_l2_convergence_constant_zero():
    g = PeriodicGrid(2 * np.pi, 2048)
    u = sample_on_grid(g, lambda x: np.full_like(x, 2.0))
    assert max(l2_convergence(u, [8, 16])) < 1e-12


def test_snapshot_roundtrip(tmp_path):
    g = PeriodicGrid(2 * np.pi, 128)
    u = synth_velocity(SpectrumSpec(exponent=4.0, modes=5, seed=1), g)
    bpath = tmp_path / "field.bin"
    save_field_binary(u, bpath)
    back = load_field_binary(bpath)
    assert np.array_equal(back.values, u.values)
    assert back.spacing == u.spacing
    assert bpath.stat().st_size == 16 + 128 * 2 * 8

    cpath = tmp_path / "field.csv"
    save_field_csv(u, cpath)
    lines = cpath.read_text().splitlines()
    assert lines[0] == "x,u"
    assert len(lines) == 129
    x0, v0 = (float(p) for p in lines[1].split(","))
    assert x0 == 0.0
    assert v0 == u.values[0]

    with pytest.raises(ValueError):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"NOTMAGIC" + b"\0" * 8)
        load_field_binary(bad)


def test_binary_snapshots_are_1d_only(tmp_path):
    with pytest.raises(ValueError, match="1D"):
        Field(np.zeros((8, 8)), 0.25)
    bad = tmp_path / "dim2.bin"
    bad.write_bytes(struct.pack("<8sII", b"FRSTFLD1", 2, 8) + b"\0" * (8 * 8 * 3 * 8))
    with pytest.raises(ValueError, match="dim = 2"):
        load_field_binary(bad)


def _snapshot_bytes(points: int, rows: int) -> bytes:
    body = np.column_stack([np.arange(rows) * 0.25, np.ones(rows)]).astype("<f8").tobytes()
    return struct.pack("<8sII", b"FRSTFLD1", 1, points) + body


@pytest.mark.parametrize(
    "data, match",
    [
        (_snapshot_bytes(128, 128)[:-16], "body holds"),
        (b"FRSTFLD1\x01\0", "header is 10 bytes"),
        (_snapshot_bytes(1, 1), "at least 2 points"),
    ],
    ids=["body_short_by_one_row", "short_header", "one_row"],
)
def test_load_rejects_truncated_snapshots(tmp_path, data, match):
    path = tmp_path / "cut.bin"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=match):
        load_field_binary(path)
