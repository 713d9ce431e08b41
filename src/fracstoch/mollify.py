"""Scaled bump mollifiers, deterministic and white-noise-driven smoothing.

The base kernel is the classical bump c * exp(-1/(1 - x^2)) on (-1, 1),
normalized to unit mass.  Scaling by n gives phi_n(x) = n^{1-gamma} phi(n x);
gamma = 0 is the mass-preserving case, gamma > 0 trades mass for variance
damping (and is implemented verbatim, without a compensating
renormalization, so its mean is biased by design).  Fields are 1D and
periodic, so the smoother is a Fourier multiplier.

Stochastic smoothing integrates u against a random measure with independent
cell increments of mean h and sd NoiseModel.increment_scale(h) = sigma h^{1/2}:

    dZ_j = h + sigma * h^{1/2} * xi_j,     xi_j ~ N(0, 1),

the unique grid-scale discretization with E[dZ] = dy, Var[dZ] = sigma^2 dy.
Since dZ_j = h (1 + sigma h^{-1/2} xi_j), the stochastic smoother is the
deterministic one applied to u (1 + sigma h^{-1/2} xi).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .fields import Field
from .rng import NoiseModel, _check_count, _check_real

__all__ = [
    "ScaledKernel",
    "MseParts",
    "mollify",
    "c_phi",
    "stochastic_samples_at",
    "variance_quadrature",
    "mse_decomposition",
]

_GL_ORDER = 160
_REPLICATE_CHUNK = 4096  # replicates per pointwise noise draw
MSE_MIN_REPLICATES = 100


@functools.cache
def _legendre_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], built once per order."""
    x, w = np.polynomial.legendre.leggauss(m)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _bump_profile(x) -> np.ndarray:
    """Unnormalized exp(-1/(1-x^2)) on the open interval (-1, 1), 0 outside."""
    r2 = np.asarray(x, dtype=float) ** 2
    inside = r2 < 1.0
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(inside, np.exp(-1.0 / np.where(inside, 1.0 - r2, 1.0)), 0.0)


@functools.cache
def _bump_norm() -> float:
    """Normalization c of the unit bump c exp(-1/(1-x^2)), by quadrature.

    Re-checks the unit-mass contract at a different quadrature order and
    refuses to return the constant of an unnormalized kernel.
    """
    x, w = _legendre_rule(_GL_ORDER)
    norm = 1.0 / float(np.sum(w * _bump_profile(x)))

    # independent check at a different order
    x2, w2 = _legendre_rule(200)
    mass2 = float(np.sum(w2 * (norm * _bump_profile(x2))))
    if abs(mass2 - 1.0) > 1e-10:
        raise ArithmeticError(f"bump normalization check failed: mass = {mass2!r}")
    return norm


@dataclass(frozen=True)
class ScaledKernel:
    """phi_n^gamma(x) = n^{1 - gamma} * phi(n x) for the unit bump phi; radius 1/n."""

    n: int
    gamma: float = 0.0

    def __post_init__(self) -> None:
        _check_count("n", self.n, 1)
        _check_real("gamma", self.gamma)
        if not self.gamma >= 0:  # also rejects NaN
            raise ValueError(f"gamma must be nonnegative, got {self.gamma}")
        if not self.mass >= np.finfo(float).tiny:  # else _stencil divides by a zero sum
            raise ValueError(f"gamma = {self.gamma} underflows the mass n^-gamma at n = {self.n}")

    @property
    def support_radius(self) -> float:
        return 1.0 / self.n

    @property
    def mass(self) -> float:
        """Integral of the scaled kernel: n^{-gamma} (1 when gamma = 0)."""
        return float(self.n) ** (-self.gamma)

    def __call__(self, x) -> np.ndarray:
        scale = float(self.n) ** (1 - self.gamma)
        return scale * (_bump_norm() * _bump_profile(self.n * np.asarray(x, dtype=float)))


def _check_resolution(spacing: float, n: int) -> None:
    """ValueError unless a grid of this spacing resolves phi_n: spacing <= 1/(4n)."""
    if spacing * 4.0 * n > 1.0 + 1e-12:
        raise ValueError(
            f"grid spacing {spacing:.3e} too coarse for n={n}; "
            f"need spacing <= 1/(4n) = {1.0 / (4 * n):.3e}"
        )


def _offsets(u: Field, kernel: ScaledKernel) -> np.ndarray:
    w = int(math.ceil(kernel.support_radius / u.spacing))
    return np.arange(-w, w + 1)


def _stencil(u: Field, kernel: ScaledKernel):
    """Offsets and mass-corrected kernel values phi~_n on the data grid.

    The raw grid sums the kernel with midpoint weights, whose small mass
    defect would otherwise floor every convergence experiment; the stencil
    is rescaled so that sum(phi~ h) equals the analytic kernel mass
    (n^{-gamma}) exactly.  All deterministic and stochastic paths share
    this stencil, so the mean/variance identities stay exact, and all are
    guarded by the one resolution check.
    """
    _check_resolution(u.spacing, kernel.n)
    off = _offsets(u, kernel)
    h = u.spacing
    raw = kernel(off * h)
    discrete_mass = float(np.sum(raw) * h)
    raw = raw * (kernel.mass / discrete_mass)
    return off, raw


def mollify(u: Field, kernel: ScaledKernel) -> Field:
    """Periodic discrete convolution  sum_j u(y_j) phi~_n(x - y_j) h.

    The stencil is summed onto its periodic image (one column of length
    P, which also folds a stencil wider than the grid), and the circular
    convolution is a product of spectra.
    """
    off, raw = _stencil(u, kernel)
    col = np.bincount(off % u.points, raw * u.spacing, minlength=u.points)
    return u.copy_with(np.fft.irfft(np.fft.rfft(u.values) * np.fft.rfft(col), u.points))


def c_phi(alpha) -> float:
    """Fractional moment  int |w|^alpha phi(w) dw of the unit bump.

    The substitution s = w^{1+alpha} moves the kink at the origin into the
    measure, c_phi = 2/(1+alpha) int_0^1 phi(s^{1/(1+alpha)}) ds, which the
    cached Legendre rule sums to 3.1e-11 relative or better.  Tends to 1 as
    alpha -> 0.  alpha is a Hoelder exponent in (0, 1].
    """
    _check_real("alpha", alpha)
    a = float(alpha)
    if not 0 < a <= 1:  # also rejects NaN and inf
        raise ValueError(f"alpha must be in (0, 1], got {a}")
    x, w = _legendre_rule(_GL_ORDER)
    nodes = (0.5 * (1.0 + x)) ** (1.0 / (1.0 + a))
    # 2/(1+alpha) times the half-weights of [0, 1]
    return float(np.sum(w * (_bump_norm() * _bump_profile(nodes))) / (1.0 + a))


def _point_window(u: Field, kernel: ScaledKernel, index: int):
    """Wrapped window cells around cell ``index`` in [0, P), and their u-values times weights."""
    _check_count("index", index, 0)
    if index >= u.points:
        raise ValueError(f"index must be < {u.points}, got {index}")
    off, weights = _stencil(u, kernel)
    cells = (index + off) % u.points
    return cells, u.values[cells] * weights


def _point_fluctuations(
    u: Field,
    kernels: Sequence[ScaledKernel],
    noise: NoiseModel,
    replicates: int,
    index: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Means and unit-sigma fluctuations of the smoother at one point.

    Returns ``(det, fluct)``: det[k] = sum_j u_j phi~_k(x - y_j) h, and
    fluct[k, r] = sum_j xi_{r,j} u_j phi~_k(x - y_j) for replicate r, so a
    draw at noise level sigma is det[k] + sigma sqrt(h) fluct[k, r].  The
    windows of all kernels around one index nest (index + arange(-w, w + 1)),
    so each chunk of _REPLICATE_CHUNK replicates draws xi once over the
    widest window and each kernel reads its centred columns.
    """
    if not kernels:
        raise ValueError("kernels must be a non-empty sequence")
    _check_count("replicates", replicates, 1)
    windows = [_point_window(u, kernel, index) for kernel in kernels]
    cells = max((c for c, _ in windows), key=len)
    wide = cells.size // 2
    det = np.array([float(np.sum(vals) * u.spacing) for _, vals in windows])
    fluct = np.empty((len(kernels), replicates))
    for lo in range(0, replicates, _REPLICATE_CHUNK):
        hi = min(lo + _REPLICATE_CHUNK, replicates)
        xi = noise.white_noise(np.arange(lo, hi)[:, None], cells[None, :])
        for k, (_, vals) in enumerate(windows):
            w = vals.size // 2
            fluct[k, lo:hi] = xi[:, wide - w : wide + w + 1] @ vals
        del xi  # hold one chunk, not two, while the next one is drawn
    return det, fluct


def stochastic_samples_at(
    u: Field,
    kernels: Sequence[ScaledKernel],
    noise: NoiseModel,
    replicates: int,
    index: int,
) -> np.ndarray:
    """Draws of the stochastic smoother at one grid point, one row per kernel.

    Covers replicates 0..replicates-1.  All kernels share one noise draw,
    so the result has shape (len(kernels), replicates).  The draw is taken
    in fixed spans of _REPLICATE_CHUNK replicates; the spans decide how
    the BLAS matvec rounds, so a call's first m columns equal an m-replicate
    call's bit for bit when m is a multiple of the span.
    """
    det, fluct = _point_fluctuations(u, kernels, noise, replicates, index)
    return det[:, None] + noise.increment_scale(u.spacing) * fluct


def variance_quadrature(u: Field, kernel: ScaledKernel, noise: NoiseModel, index: int) -> float:
    """Closed-form variance of :func:`stochastic_samples_at`,  sigma^2 sum_j u_j^2 phi_n^2 h."""
    _, vals = _point_window(u, kernel, index)
    return float(noise.increment_variance(u.spacing) * np.sum(vals**2))


@dataclass(frozen=True)
class MseParts:
    """Bias-variance split of the pointwise mean squared error."""

    bias_sq: float
    variance: float
    mse: float
    mse_se: float


def mse_decomposition(
    u: Field,
    kernels: Sequence[ScaledKernel],
    noises: Sequence[NoiseModel],
    replicates: int,
    index: int,
) -> list[list[MseParts]]:
    """Monte Carlo MSE at grid cell ``index``, split into parts.

    bias^2 compares the deterministic smoother against u there; variance and
    mse come from the replicate draws.  |mse - bias^2 - variance| stays
    within a few standard errors of the mse estimate.

    The noise models must share base_seed, so they differ only in sigma
    and one draw serves every (kernel, sigma) pair.  The result is
    indexed [kernel][noise].
    """
    _check_count("replicates", replicates, MSE_MIN_REPLICATES)
    if not noises:
        raise ValueError("noises must be a non-empty sequence")
    if len({nm.base_seed for nm in noises}) != 1:
        raise ValueError("noise models must share base_seed")
    det, fluct = _point_fluctuations(u, kernels, noises[0], replicates, index)
    target = float(u.values[index])
    table = []
    for d, f in zip(det, fluct):
        row = []
        for nm in noises:
            samples = d + nm.increment_scale(u.spacing) * f
            sq_err = (samples - target) ** 2
            row.append(
                MseParts(
                    bias_sq=(float(d) - target) ** 2,
                    variance=float(np.var(samples, ddof=1)),
                    mse=float(np.mean(sq_err)),
                    mse_se=float(np.std(sq_err, ddof=1) / math.sqrt(replicates)),
                )
            )
        table.append(row)
    return table
