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

from .fields import Field, PeriodicGrid
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
_BLOCK = 512  # solver steps per Caputo history block
_FFT_COLUMNS = 8  # real history columns per far-memory FFT


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
    return Field(vals, grid.spacing, 0.0)


def _dealias_cut(points: int) -> int:
    """2/3 rule: the nonlinear term keeps rfft modes 0 .. cut-1."""
    return points // 3 + 1


def _far_memory(b: np.ndarray, history: np.ndarray, start: int, end: int) -> np.ndarray:
    """Rows k = start..end-1 of sum_{i<start} b_{k-i} d_i, as a (end-start, modes) array.

    One zero-padded FFT convolution of the closed history with b.  A cyclic
    length n >= end wraps only onto rows below start, which are dropped.
    The real history columns go through the FFT a few at a time, so its
    scratch stays near _FFT_COLUMNS * n floats.
    """
    n = 1 << (end - 1).bit_length()
    b_hat = np.fft.rfft(b[:end], n)[:, None]
    past = history[:start].view(float)
    far = np.empty((end - start, past.shape[1]))
    for c in range(0, past.shape[1], _FFT_COLUMNS):
        cols = slice(c, c + _FFT_COLUMNS)
        spec = np.fft.rfft(past[:, cols], n, axis=0)
        spec *= b_hat
        far[:, cols] = np.fft.irfft(spec, n, axis=0)[start:end]
    return far.view(complex)


def frac_burgers_solve(
    u0: Field,
    params: FracFlowParams,
    t_grid: TimeGrid,
    noise_seed: int = 0,
    nonlinear: bool = True,
    store_every: int = 1,
) -> list[Field]:
    """Explicit L1 time stepper for the fractional Burgers proxy.

    Keeps the full history of increments (O(steps P) memory).  The L1
    memory sum uses the exact weights b_r in blocks of B = 512 steps:
    inside a block it is the direct sum, and at each block start one FFT
    convolution of the closed history gives the block's far memory, so a
    solve costs O(steps (B + (steps/B) log steps) P).  One step is one
    batched inverse FFT for (u, u_x), one forward FFT of their product and
    the in-block memory product, written straight into the step's history
    row.  Every solve of at most 512 steps equals the direct L1 sum bit
    for bit; longer ones differ from it by rounding only.  Forcing adds
    per-step Gaussian increments sigma_f sqrt(h) on the four lowest
    harmonics, keyed by (noise_seed, step, mode), so trajectories are
    reproducible bit for bit; the whole forcing table is drawn before the
    time loop.  The explicit step must keep the dissipation coefficient of
    every retained mode, Gamma(2-a) h^a nu k^2s up to k = P/2, at most 1.
    Aborts with :class:`SolverDivergence` when the sup norm grows past 1e6.
    """
    P = u0.points
    if P & (P - 1):
        raise ValueError("grid size must be a power of two")
    a = params.alpha.alpha
    h = t_grid.h
    xi_w = _wavenumbers(P, u0.length)
    ik = 1j * xi_w
    cut = _dealias_cut(P)
    diss = params.nu * _symbol(xi_w, params.s)
    neg_diss = -diss
    gh = math.gamma(2.0 - a) * h**a

    # the scalar L1 recurrence with decay z stays bounded for z <= 1 at every alpha
    stiff = gh * float(np.max(diss))
    if stiff > 1.0:
        raise ValueError(
            f"explicit L1 step restriction violated: Gamma(2-a) h^a nu k_max^2s "
            f"= {stiff:.3f} > 1 at k_max = P/2; reduce the step or the resolution"
        )

    steps = t_grid.steps
    r = np.arange(1, steps, dtype=float)
    b = np.concatenate(([1.0], (r + 1.0) ** (1.0 - a) - r ** (1.0 - a)))  # b_0 .. b_{steps-1}
    b_rev = b[::-1].astype(complex)  # b_{steps-1} .. b_0, so matmul does not cast per step

    # row 0 is u_hat and row 1 is ik u_hat, so one irfft gives (u, u_x)
    pair = np.empty((2, P // 2 + 1), dtype=complex)
    u_hat, ux_hat = pair
    u_hat[:] = np.fft.rfft(u0.values)
    if params.sigma_f > 0:
        n_force = min(4, u_hat.size - 1)
        # row m-1 holds step m: sum_k (a cos + b sin) has rfft coeff P/2 (a - i b);
        # the lane axis (a, b) is last, so each (step, mode) pair is one hash
        ab = standard_normals(
            noise_seed,
            LABEL_FORCING,
            np.arange(1, steps + 1)[:, None, None],
            np.arange(1, n_force + 1)[:, None],
            np.arange(2),
        )
        forcing = params.sigma_f * math.sqrt(h) * 0.5 * P * (ab[..., 0] - 1j * ab[..., 1])
    history = np.zeros((steps, u_hat.size), dtype=complex)
    out = [u0.copy_with(u0.values.copy())]
    norm0 = max(1.0, float(np.max(np.abs(u0.values))))
    np.multiply(ik, u_hat, out=ux_hat)
    phys = np.fft.irfft(pair, n=P)

    for m in range(1, steps + 1):
        k = m - 1  # history row of this step
        start = k - k % _BLOCK
        # d_k = gh rhs - sum_{i<k} b_{k-i} d_i, with the in-block sum written
        # straight into its history row and the far rows added at block starts
        d = history[k]
        np.matmul(b_rev[steps - 1 - (k - start) : steps - 1], history[start:k], out=d)
        if start:
            if k == start:
                far = _far_memory(b, history, start, min(start + _BLOCK, steps))
            d += far[k - start]
        rhs = neg_diss * u_hat
        if nonlinear:
            conv = np.fft.rfft(phys[0] * phys[1])
            rhs[:cut] -= conv[:cut]
        np.multiply(gh, rhs, out=rhs)
        np.subtract(rhs, d, out=d)
        if params.sigma_f > 0:
            d[1 : n_force + 1] += forcing[k]
        u_hat += d
        np.multiply(ik, u_hat, out=ux_hat)
        phys = np.fft.irfft(pair, n=P)
        peak = float(np.abs(phys[0]).max())
        if not peak <= 1e6 * norm0:  # also catches NaN and inf
            raise SolverDivergence(
                f"trajectory diverged at step {m}/{steps} (sup norm {peak:.3e})"
            )
        if m % store_every == 0 or m == steps:
            # a copy, so a snapshot does not keep the u_x row alive
            out.append(u0.copy_with(phys[0].copy()))
    return out


def energy_dissipation(u: Field, params: FracFlowParams) -> float:
    """epsilon = nu int |(-Lap)^{s/2} u|^2 dx via Parseval on the rfft."""
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
    bump = make_bump()
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
            mc = stochastic_mollify(u, kernel, noise, mean_xi)
            mc_gaps.append(abs(energy_dissipation(mc, params) - eps_true))
    return gaps, mc_gaps


def l2_convergence(u: Field, n_list: list[int]) -> list[float]:
    """Grid-quadrature L2 distance between the smoothed field and u per n."""
    if any(b <= a for a, b in zip(n_list, n_list[1:])) or not n_list:
        raise ValueError("n_list must be strictly increasing and nonempty")
    bump = make_bump()
    errs = []
    for n in n_list:
        diff = mollify(u, ScaledKernel(bump, n)).values - u.values
        errs.append(math.sqrt(float(np.sum(diff**2)) * u.spacing))
    return errs


def save_field_csv(u: Field, path) -> None:
    """Snapshot rows (x, u) as UTF-8 CSV with LF endings."""
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x", "u"])
        for x, v in zip(u.coords(), u.values):
            writer.writerow([repr(float(x)), repr(float(v))])


def save_field_binary(u: Field, path) -> None:
    """16-byte header (magic, dim = 1, points) then float64 rows (x, u)."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<8sII", _SNAPSHOT_MAGIC, 1, u.points))
        fh.write(np.column_stack([u.coords(), u.values]).astype("<f8").tobytes())


def load_field_binary(path) -> Field:
    """Read a snapshot written by :func:`save_field_binary`.

    Rejects a short header, a header dim other than 1, fewer than two
    points, and a body whose row count differs from the header's points.
    """
    with open(path, "rb") as fh:
        header = fh.read(16)
        body = fh.read()
    if len(header) < 16:
        raise ValueError(f"snapshot header is {len(header)} bytes, expected 16")
    magic, dim, points = struct.unpack("<8sII", header)
    if magic != _SNAPSHOT_MAGIC:
        raise ValueError(f"not a field snapshot (magic {magic!r})")
    if dim != 1:
        raise ValueError(f"binary snapshots are 1D, header says dim = {dim}")
    if points < 2:
        raise ValueError(f"snapshot needs at least 2 points, header says {points}")
    if len(body) != 16 * points:
        raise ValueError(
            f"snapshot body holds {len(body)} bytes, header's {points} points need {16 * points}"
        )
    data = np.frombuffer(body, dtype="<f8").reshape(-1, 2)
    x, v = data[:, 0], data[:, 1]
    return Field(v.copy(), float(x[1] - x[0]), float(x[0]))
