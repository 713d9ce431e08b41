"""Desk-scale fractional turbulence proxy and its convergence studies.

The full incompressible system with memory is out of reach at desk scale,
so the dynamical application here is the 1D periodic, pressure-free
fractional Burgers equation

    D_t^alpha u + u u_x = -nu (-Lap)^s u + xi,

advanced with an explicit L1 discretization of the Caputo memory sum, a
pseudo-spectral nonlinearity with 2/3-rule dealiasing, and low-mode
Gaussian forcing increments.  It supplies velocity fields with genuine
memory, fractional dissipation, nonlinearity and noise; it is *not* a
Navier-Stokes solver.

Energy dissipation is epsilon = nu * int |(-Lap)^{s/2} u|^2 dx, evaluated
spectrally via Parseval.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass

import numpy as np

from .fields import Field, PeriodicGrid, sample_on_grid
from .fractional import FracOrder, TimeGrid, _symbol, _wavenumbers
from .mollify import ScaledKernel, make_bump, mean_white_noise, mollify, stochastic_mollify
from .rng import LABEL_FORCING, NoiseModel, standard_normals

__all__ = [
    "FracFlowParams",
    "SpectrumSpec",
    "SolverDivergence",
    "synth_velocity",
    "frac_burgers_solve",
    "energy_dissipation",
    "dissipation_convergence",
    "l2_convergence",
    "save_field_csv",
    "save_field_binary",
    "load_field_binary",
]

_SNAPSHOT_MAGIC = b"FRSTFLD1"


class SolverDivergence(RuntimeError):
    """Trajectory norm exceeded the instability threshold."""


@dataclass(frozen=True)
class FracFlowParams:
    """Memory order, dissipation exponent, viscosity, forcing intensity."""

    alpha: FracOrder
    s: float = 1.0
    nu: float = 0.1
    sigma_f: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.s <= 1.5:
            raise ValueError(f"s must lie in (0, 1.5], got {self.s}")
        if not 0 < self.nu < math.inf:
            raise ValueError(f"nu must be positive and finite, got {self.nu}")
        if not 0 <= self.sigma_f < math.inf:  # also rejects NaN
            raise ValueError(f"sigma_f must be nonnegative and finite, got {self.sigma_f}")


@dataclass(frozen=True)
class SpectrumSpec:
    """Synthetic spectrum: coefficient decay exponent, mode count, seed."""

    exponent: float = 4.0
    modes: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.modes < 2:
            raise ValueError(f"modes must be >= 2, got {self.modes}")


def synth_velocity(spec: SpectrumSpec, grid: PeriodicGrid) -> Field:
    """u(x) = sum_k k^{-p/2} (a_k cos k x + b_k sin k x), seeded Gaussians.

    Harmonics run from 1 to spec.modes and must stay below points/4 so the
    field is comfortably resolved.
    """
    if grid.dim != 1:
        raise ValueError("synth_velocity generates 1D fields")
    if spec.modes > grid.points // 4:
        raise ValueError(
            f"modes = {spec.modes} too large for {grid.points} points (max {grid.points // 4})"
        )
    rng = np.random.default_rng(spec.seed)
    ab = rng.standard_normal((spec.modes, 2))
    x = grid.coords()
    vals = np.zeros_like(x)
    for k in range(1, spec.modes + 1):
        amp = float(k) ** (-spec.exponent / 2.0)
        arg = 2.0 * np.pi * k * x / grid.length
        vals += amp * (ab[k - 1, 0] * np.cos(arg) + ab[k - 1, 1] * np.sin(arg))
    return Field(vals, grid.spacing, 0.0, periodic=True)


def _dealias_mask(points: int) -> np.ndarray:
    m = np.zeros(points // 2 + 1, dtype=bool)
    m[: points // 3 + 1] = True
    return m


def frac_burgers_solve(
    u0: Field,
    params: FracFlowParams,
    t_grid: TimeGrid,
    noise_seed: int = 0,
    nonlinear: bool = True,
    store_every: int = 1,
) -> list[Field]:
    """Explicit L1 time stepper for the fractional Burgers proxy.

    Keeps the full history of increments (O(steps) memory).  Forcing adds
    per-step Gaussian increments sigma_f sqrt(h) on the four lowest
    harmonics, keyed by (noise_seed, step, mode), so trajectories are
    reproducible bit for bit; the whole forcing table is drawn before the
    time loop.  The explicit step must keep the dissipation coefficient of
    every retained mode, Gamma(2-a) h^a nu k^2s up to k = P/2, at most 1.
    Aborts with :class:`SolverDivergence` when the sup norm grows past 1e6.
    """
    if not u0.periodic or u0.dim != 1:
        raise ValueError("solver expects a 1D periodic field")
    P = u0.points
    if P & (P - 1):
        raise ValueError("grid size must be a power of two")
    a = params.alpha.alpha
    h = t_grid.h
    xi_w = _wavenumbers(P, u0.length)
    mask = _dealias_mask(P)
    diss = params.nu * _symbol(xi_w, params.s)
    gh = math.gamma(2.0 - a) * h**a

    # the scalar L1 recurrence with decay z stays bounded for z <= 1 at every alpha
    stiff = gh * float(np.max(diss))
    if stiff > 1.0:
        raise ValueError(
            f"explicit L1 step restriction violated: Gamma(2-a) h^a nu k_max^2s "
            f"= {stiff:.3f} > 1 at k_max = P/2; reduce the step or the resolution"
        )

    def rhs(u_hat: np.ndarray) -> np.ndarray:
        out = -diss * u_hat
        if nonlinear:
            u_phys = np.fft.irfft(u_hat, n=P)
            ux = np.fft.irfft(1j * xi_w * u_hat, n=P)
            conv = np.fft.rfft(u_phys * ux)
            out -= np.where(mask, conv, 0.0)
        return out

    steps = t_grid.steps
    r = np.arange(1, steps, dtype=float)
    bw = (r + 1.0) ** (1.0 - a) - r ** (1.0 - a)  # b_1 .. b_{steps-1}

    u_hat = np.fft.rfft(u0.values)
    if params.sigma_f > 0:
        n_force = min(4, u_hat.size - 1)
        # row m-1 holds step m: sum_k (a cos + b sin) has rfft coeff P/2 (a - i b)
        keys = (np.arange(1, steps + 1)[:, None], np.arange(1, n_force + 1)[None, :])
        ar = standard_normals(noise_seed, LABEL_FORCING, *keys, 0)
        br = standard_normals(noise_seed, LABEL_FORCING, *keys, 1)
        forcing = params.sigma_f * math.sqrt(h) * 0.5 * P * (ar - 1j * br)
    history = np.zeros((steps, u_hat.size), dtype=complex)
    out = [u0.copy_with(u0.values.copy())]
    norm0 = max(1.0, float(np.max(np.abs(u0.values))))

    for m in range(1, steps + 1):
        memory = np.zeros_like(u_hat)
        if m >= 2:
            # sum_{i=0}^{m-2} b_{m-1-i} d_i
            memory = bw[m - 2 :: -1] @ history[: m - 1]
        d = -memory + gh * rhs(u_hat)
        if params.sigma_f > 0:
            d[1 : n_force + 1] += forcing[m - 1]
        history[m - 1] = d
        u_hat = u_hat + d
        u_phys = np.fft.irfft(u_hat, n=P)
        if not np.all(np.isfinite(u_phys)) or np.max(np.abs(u_phys)) > 1e6 * norm0:
            raise SolverDivergence(
                f"trajectory diverged at step {m}/{steps} "
                f"(sup norm {np.max(np.abs(u_phys)):.3e})"
            )
        if m % store_every == 0 or m == steps:
            out.append(u0.copy_with(u_phys))
    return out


def energy_dissipation(u: Field, params: FracFlowParams) -> float:
    """epsilon = nu int |(-Lap)^{s/2} u|^2 dx via Parseval on the rfft."""
    if u.dim != 1 or not u.periodic:
        raise ValueError("energy_dissipation expects a 1D periodic field")
    P = u.points
    xi = _wavenumbers(P, u.length)
    u_hat = np.fft.rfft(u.values)
    mult = _symbol(xi, params.s)
    # int |v|^2 dx = (L/P^2) (|V_0|^2 + 2 sum_mid |V_k|^2 + |V_{P/2}|^2)
    w = np.full(xi.size, 2.0)
    w[0] = 1.0
    if P % 2 == 0:
        w[-1] = 1.0
    return float(params.nu * u.length / P**2 * np.sum(w * mult * np.abs(u_hat) ** 2))


def dissipation_convergence(
    u: Field,
    params: FracFlowParams,
    n_list: list[int],
    noise: NoiseModel | None = None,
    replicates: int = 0,
) -> tuple[list[float], list[float]]:
    """(gaps, mc_gaps): |eps_n - eps| per smoothing resolution n.

    eps_n is the dissipation of the mollified expectation field.  mc_gaps
    holds the same gap for the replicate-mean stochastic field when a
    white-noise model and replicates are given, and is empty otherwise.
    """
    if any(b <= a for a, b in zip(n_list, n_list[1:])) or not n_list:
        raise ValueError("n_list must be strictly increasing and nonempty")
    bump = make_bump(1)
    eps_true = energy_dissipation(u, params)
    monte_carlo = noise is not None and replicates > 0
    # the replicate-mean noise does not depend on n: draw it once per field
    # (at sigma = 0 the smoother ignores it, so nothing is drawn)
    mean_xi = mean_white_noise(u, noise, replicates) if monte_carlo and noise.sigma > 0 else 0.0
    gaps, mc_gaps = [], []
    for n in n_list:
        kernel = ScaledKernel(bump, n)
        gaps.append(abs(energy_dissipation(mollify(u, kernel), params) - eps_true))
        if monte_carlo:
            eps_mc = energy_dissipation(stochastic_mollify(u, kernel, noise, mean_xi), params)
            mc_gaps.append(abs(eps_mc - eps_true))
    return gaps, mc_gaps


def l2_convergence(u: Field, n_list: list[int]) -> list[float]:
    """Grid-quadrature L2 distance between the smoothed field and u per n."""
    if any(b <= a for a, b in zip(n_list, n_list[1:])) or not n_list:
        raise ValueError("n_list must be strictly increasing and nonempty")
    bump = make_bump(u.dim)
    errs = []
    for n in n_list:
        diff = mollify(u, ScaledKernel(bump, n)).values - u.values
        errs.append(math.sqrt(float(np.sum(diff**2)) * u.spacing**u.dim))
    return errs


def save_field_csv(u: Field, path) -> None:
    """Snapshot rows (x, u) as UTF-8 CSV with LF endings."""
    if u.dim != 1:
        raise ValueError("CSV snapshots are 1D")
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x", "u"])
        for x, v in zip(u.coords(), u.values):
            writer.writerow([repr(float(x)), repr(float(v))])


def save_field_binary(u: Field, path) -> None:
    """16-byte header (magic, dim = 1, points) then float64 rows (x, u); 1D only."""
    if u.dim != 1:
        raise ValueError("binary snapshots are 1D")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<8sII", _SNAPSHOT_MAGIC, u.dim, u.points))
        fh.write(np.column_stack([u.coords(), u.values]).astype("<f8").tobytes())


def load_field_binary(path) -> Field:
    """Read a snapshot written by :func:`save_field_binary`."""
    with open(path, "rb") as fh:
        magic, dim, points = struct.unpack("<8sII", fh.read(16))
        if magic != _SNAPSHOT_MAGIC:
            raise ValueError(f"not a field snapshot (magic {magic!r})")
        if dim != 1:
            raise ValueError(f"binary snapshots are 1D, header says dim = {dim}")
        data = np.frombuffer(fh.read(), dtype="<f8").reshape(-1, 2)
    x, v = data[:, 0], data[:, 1]
    return Field(v.copy(), float(x[1] - x[0]), float(x[0]), periodic=True)
