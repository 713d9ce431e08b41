"""Desk-scale fractional turbulence proxy and its convergence studies.

The full incompressible system with memory is out of reach at desk scale,
so the dynamical application here is the 1D periodic, pressure-free
fractional Burgers equation

    D_t^alpha u + u u_x = -nu (-Lap)^s u + xi,

advanced with an explicit L1 discretization of the Caputo memory sum, a
pseudo-spectral nonlinearity with 2/3-rule dealiasing, and low-mode
Gaussian forcing increments of sd NoiseModel.increment_scale(h) per step,
drawn like the lattice and mollifier noise.  It supplies velocity
fields with genuine memory, fractional dissipation, nonlinearity and
noise; it is *not* a Navier-Stokes solver.

Energy dissipation is epsilon = nu * int |(-Lap)^{s/2} u|^2 dx, evaluated
spectrally via Parseval.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.fft._pocketfft_umath import irfft as _irfft, rfft_n_even as _rfft

from .fields import Field, PeriodicGrid
from .fractional import TimeGrid, _alpha_of, _l1_history_sum, _l1_weights, _symbol, _wavenumbers
from .mollify import ScaledKernel, mollify
from .rng import LABEL_FORCING, LABEL_SYNTHETIC, NoiseModel, _check_count, _check_real, standard_normals

__all__ = [
    "FracFlowParams",
    "SolverDivergence",
    "synth_velocity",
    "frac_burgers_solve",
    "energy_dissipation",
    "dissipation_convergence",
    "l2_convergence",
]

_BLOCK = 512  # solver steps per Caputo history block
_FORCED_MODES = 4  # the forcing drives harmonics 1..4; PeriodicGrid's P >= 8 has them all


class SolverDivergence(RuntimeError):
    """Trajectory norm exceeded the instability threshold."""


@dataclass(frozen=True)
class FracFlowParams:
    """Memory order, dissipation exponent and viscosity."""

    alpha: float
    s: float = 1.0
    nu: float = 0.1

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", _alpha_of(self.alpha))  # a checked float
        _check_real("s", self.s)
        _check_real("nu", self.nu)
        if not 0.0 < self.s <= 1.5:
            raise ValueError(f"s must lie in (0, 1.5], got {self.s}")
        if not 0 < self.nu < math.inf:
            raise ValueError(f"nu must be positive and finite, got {self.nu}")


def synth_velocity(grid: PeriodicGrid, exponent: float, modes: int, seed: int) -> Field:
    """u(x) = sum_k k^{-p/2} (a_k cos k x + b_k sin k x), p = exponent.

    The Gaussians (a_k, b_k) are the counter pair (0, k) of ``seed``.
    Harmonics run from 1 to ``modes``, an integer that must lie in
    [2, points/4] so the field is comfortably resolved.
    """
    _check_real("exponent", exponent)
    if not math.isfinite(exponent):
        raise ValueError(f"exponent must be finite, got {exponent}")
    _check_count("modes", modes, 2)
    _check_count("seed", seed, 0, bits=64)  # one counter word
    if modes > grid.points // 4:
        raise ValueError(f"modes must lie in [2, points/4 = {grid.points // 4}], got {modes}")
    ab = standard_normals(seed, LABEL_SYNTHETIC, 0, 0, np.arange(1, modes + 1)[:, None], np.arange(2))
    x = grid.coords()
    vals = np.zeros_like(x)
    for k in range(1, modes + 1):
        amp = float(k) ** (-exponent / 2.0)
        arg = 2.0 * np.pi * k * x / grid.length
        vals += amp * (ab[k - 1, 0] * np.cos(arg) + ab[k - 1, 1] * np.sin(arg))
    return Field(vals, grid.spacing)


def _dealias_cut(points: int) -> int:
    """2/3 rule: the nonlinear term keeps rfft modes 0 .. cut-1."""
    return points // 3 + 1


def _l1_stability_bound(a: float) -> float:
    """2 sum_j (-1)^j b_j = 4 (1 - 2^{2-a}) zeta(a - 1), in (1, 2) for a in (0, 1).

    The explicit L1 recurrence d_m = -z u_{m-1} - sum_{j>=1} b_j d_{m-j}
    stays bounded while z is below this bound, past which its (-1)^m mode grows.
    The alternating series is summed by averaging its first 64 partial sums
    pairwise down to one (Euler's transform), within 1e-13 of the zeta form.
    """
    sums = np.cumsum(2.0 * _l1_weights(a, 64) * (-1.0) ** np.arange(64))
    while sums.size > 1:
        sums = 0.5 * (sums[1:] + sums[:-1])
    return float(sums[0])


def _snapshot_steps(steps: int, store_every: int) -> list[int]:
    """The step of each row frac_burgers_solve returns: 0, each store_every-th, the last."""
    return [*range(0, steps, store_every), steps]


def frac_burgers_solve(
    u0: Field,
    params: FracFlowParams,
    t_grid: TimeGrid,
    noise: NoiseModel | None = None,
    *,
    nonlinear: bool = True,
    store_every: int = 1,
) -> np.ndarray:
    """Explicit L1 time stepper for the fractional Burgers proxy.

    Keeps the full history of increments (O(steps P) memory).  The L1
    memory sum uses the exact real weights b_r in blocks of B = 512 steps:
    inside a block (the first too) it is the direct sum, one real matmul
    over the real and imaginary columns of the block's rows, whose bytes do
    not depend on the BLAS thread count; the far memory is pushed ahead
    dyadically (Hairer, Lubich & Schlichte, SIAM J. Sci. Stat. Comput. 6,
    1985).  At the start of block c > 0, with w the lowest set bit of c,
    one FFT convolution adds the memory of blocks c-w .. c-1 into the
    history rows of blocks c .. c+w-1, so every pair of blocks meets once
    and a solve costs O(steps (B + log(steps/B) log steps) P).  One step is
    one batched inverse FFT for (u, u_x), one forward FFT of their product
    and the in-block memory product, added onto the step's history row,
    with no array allocated.  The two FFTs call numpy's pocketfft gufuncs
    directly, with the bits of np.fft.rfft and np.fft.irfft, and one product
    forms ik u_hat and -nu |k|^2s u_hat from each new u_hat.  Every solve of
    at most 512 steps equals the direct L1 sum bit for bit; longer ones
    differ from it by rounding only.
    The solve is forced iff ``noise`` is given with sigma > 0: forcing adds
    per-step Gaussian increments noise.increment_scale(h) on the four lowest
    harmonics, keyed by (noise.base_seed, step, mode), so trajectories are
    reproducible bit for bit; the whole forcing table is drawn before the
    time loop.  The explicit step must keep the dissipation coefficient of
    every retained mode, Gamma(2-a) h^a nu k^2s up to k = P/2, below the
    L1 recurrence's bound 4 (1 - 2^{2-a}) zeta(a - 1), which lies in (1, 2).
    Aborts with :class:`SolverDivergence` when the sup norm grows past 1e6.
    Returns one float64 array of the states at step 0, each store_every-th step and the last.
    """
    _check_count("store_every", store_every, 1)
    P = u0.points
    a = params.alpha
    h = t_grid.h
    xi_w = _wavenumbers(P, u0.length)
    cut = _dealias_cut(P)
    diss = params.nu * _symbol(xi_w, params.s)
    gh = math.gamma(2.0 - a) * h**a

    stiff = gh * float(np.max(diss))
    if not stiff < (bound := _l1_stability_bound(a)):
        raise ValueError(
            f"explicit L1 step restriction violated: Gamma(2-a) h^a nu k_max^2s "
            f"= {stiff:.3f} >= {bound:.3f} at k_max = P/2; reduce the step or the resolution"
        )

    steps = t_grid.steps
    b = _l1_weights(a, steps)
    b_rev = b[::-1].copy()  # b_{steps-1} .. b_0, contiguous for the real-column matmul

    # rows u_hat, ik u_hat and -diss u_hat: one product refreshes rows 1 and 2
    # from u_hat, and one irfft of rows 0 and 1 gives (u, u_x); -diss is cast
    # to complex (+0 imaginary parts) as multiply casts it, so no bit moves
    spec = np.empty((3, P // 2 + 1), dtype=complex)
    u_hat, _, rhs = spec
    pair, derived = spec[:2], spec[1:]
    coef = np.stack([1j * xi_w, (-diss).astype(complex)])
    # numpy's own pocketfft kernels, called past np.fft's argument handling;
    # P is even (PeriodicGrid) and 1/P is the factor np.fft.irfft passes
    _rfft(u0.values, 1.0, out=u_hat)
    forced = noise is not None and noise.sigma > 0
    if forced:
        # row m-1 holds step m: sum_k (a cos + b sin) has rfft coeff P/2 (a - i b);
        # the lane axis (a, b) is last, so each (step, mode) pair is one hash
        ab = standard_normals(
            noise.base_seed,
            LABEL_FORCING,
            np.arange(1, steps + 1)[:, None, None],
            np.arange(1, _FORCED_MODES + 1)[:, None],
            np.arange(2),
        )
        forcing = noise.increment_scale(h) * 0.5 * P * (ab[..., 0] - 1j * ab[..., 1])
    history = np.zeros((steps, u_hat.size), dtype=complex)
    # the step's scratch: the time loop writes into these and allocates nothing
    prod, conv = np.empty((2, u_hat.size), dtype=complex)
    phys = np.empty((2, P))  # (u, u_x)
    u, ux = phys
    uux, abs_u = np.empty((2, P))
    history_f, prod_f = history.view(float), prod.view(float)
    rhs_lo, conv_lo = rhs[:cut], conv[:cut]
    row_of = {m: i for i, m in enumerate(_snapshot_steps(steps, store_every))}
    out = np.empty((len(row_of), P))
    out[0] = u0.values
    norm0 = max(1.0, float(np.max(np.abs(u0.values))))
    np.multiply(coef, u_hat, out=derived)
    _irfft(pair, 1.0 / P, out=phys)

    for m in range(1, steps + 1):
        k = m - 1  # history row of this step
        start = k - k % _BLOCK
        # d_k = gh rhs - sum_{i<k} b_{k-i} d_i: the rows of earlier blocks
        # were pushed into d_k at block starts, the in-block rows add here
        d = history[k]
        if k == start and start:
            # push the memory of blocks c-w .. c-1 onto blocks c .. c+w-1,
            # w the lowest set bit of c, real columns convolved
            c = start // _BLOCK
            span = (c & -c) * _BLOCK
            end = min(start + span, steps)
            src, dst = history_f[start - span : start], history_f[start:end]
            _l1_history_sum(b, src, span, span + end - start, dst)
        b_in = b_rev[steps - 1 - (k - start) : steps - 1]
        np.matmul(b_in, history_f[start:k], out=prod_f)
        d += prod
        if nonlinear:
            np.multiply(u, ux, out=uux)
            _rfft(uux, 1.0, out=conv)
            rhs_lo -= conv_lo
        np.multiply(gh, rhs, out=rhs)
        np.subtract(rhs, d, out=d)
        if forced:
            d[1 : _FORCED_MODES + 1] += forcing[k]
        u_hat += d
        np.multiply(coef, u_hat, out=derived)
        _irfft(pair, 1.0 / P, out=phys)
        peak = float(np.abs(u, out=abs_u).max())
        if not peak <= 1e6 * norm0:  # also catches NaN and inf
            raise SolverDivergence(
                f"trajectory diverged at step {m}/{steps} (sup norm {peak:.3e})"
            )
        if m in row_of:
            out[row_of[m]] = u
    return out


def energy_dissipation(u: Field, params: FracFlowParams) -> float:
    """epsilon = nu int |(-Lap)^{s/2} u|^2 dx via Parseval on the rfft."""
    return float(_dissipation_rows(u.values[None], u.length, params)[0])


def _dissipation_rows(values: np.ndarray, length: float, params: FracFlowParams) -> np.ndarray:
    """energy_dissipation of each row of ``values``, fields on one grid of this length."""
    P = values.shape[1]
    xi = _wavenumbers(P, length)
    u_hat = np.fft.rfft(values)
    mult = _symbol(xi, params.s)
    # int |v|^2 dx = (L/P^2) (|V_0|^2 + 2 sum_mid |V_k|^2 + |V_{P/2}|^2); P is even
    w = np.full(xi.size, 2.0)
    w[0] = w[-1] = 1.0
    return params.nu * length / P**2 * np.sum(w * mult * np.abs(u_hat) ** 2, axis=1)


def dissipation_convergence(
    u: Field, params: FracFlowParams, kernels: Sequence[ScaledKernel]
) -> list[float]:
    """|eps_n - eps| per smoothing kernel, eps_n the dissipation of the mollified field."""
    if not kernels:
        raise ValueError("kernels must be a non-empty sequence")
    eps_true = energy_dissipation(u, params)
    return [abs(energy_dissipation(mollify(u, kernel), params) - eps_true) for kernel in kernels]


def l2_convergence(u: Field, kernels: Sequence[ScaledKernel]) -> list[float]:
    """Grid-quadrature L2 distance between the smoothed field and u per kernel."""
    if not kernels:
        raise ValueError("kernels must be a non-empty sequence")
    errs = []
    for kernel in kernels:
        diff = mollify(u, kernel).values - u.values
        errs.append(math.sqrt(float(np.sum(diff**2)) * u.spacing))
    return errs
