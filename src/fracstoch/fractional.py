"""Caputo derivative, Hoelder seminorm, and spectral (-Lap)^s.

The Caputo derivative of order alpha in (0, 1) with lower limit a,

    D^alpha f(x) = (1/Gamma(1-alpha)) * int_a^x f'(t) (x - t)^{-alpha} dt,

is discretized with the classical L1 scheme on a uniform grid.  The
fractional Laplacian acts on periodic 1D fields as the Fourier multiplier
|xi|^{2s} with the zero mode annihilated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import Field
from .rng import _check_count

__all__ = [
    "TimeGrid",
    "mittag_leffler",
    "caputo_l1",
    "gagliardo_seminorm",
    "frac_laplacian",
]

_ML_TOL = 1e-12  # Mittag-Leffler series stops once terms fall below this
_ML_MAX_TERMS = 1000
_FFT_COLUMNS = 8  # real history columns per L1 history FFT


def _alpha_of(alpha) -> float:
    """The fractional order as a float, checked to lie strictly in (0, 1)."""
    a = float(alpha)
    if not 0.0 < a < 1.0:
        raise ValueError(f"alpha must lie strictly in (0, 1), got {a}")
    return a


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [t0, t1] with ``steps`` intervals (steps+1 nodes)."""

    t0: float
    t1: float
    steps: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t0) and math.isfinite(self.t1) and self.t1 > self.t0):
            raise ValueError(f"need finite t0 < t1, got [{self.t0}, {self.t1}]")
        _check_count("steps", self.steps, 2)

    @property
    def h(self) -> float:
        return (self.t1 - self.t0) / self.steps

    def nodes(self) -> np.ndarray:
        return self.t0 + self.h * np.arange(self.steps + 1)


def mittag_leffler(alpha, z: float) -> float:
    """E_alpha(z) = sum_j z^j / Gamma(alpha j + 1) for z <= 0.

    Kahan-compensated series with a monitored alternating tail; raises
    when cancellation would push the absolute error above ~1e-10.
    """
    a = _alpha_of(alpha)
    z = float(z)
    if not math.isfinite(z):
        raise ValueError(f"mittag_leffler needs a finite z, got {z}")
    if z > 0:
        raise ValueError("mittag_leffler is restricted to the decay regime z <= 0")
    if z == 0.0:
        return 1.0

    total = 0.0
    comp = 0.0
    max_abs = 0.0
    log_absz = math.log(-z)
    prev_abs = math.inf
    decreasing = 0
    for j in range(_ML_MAX_TERMS):
        log_term = j * log_absz - math.lgamma(a * j + 1.0)
        term_abs = math.exp(log_term)
        term = term_abs if j % 2 == 0 else -term_abs
        # Kahan step
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        max_abs = max(max_abs, term_abs)
        if max_abs > 1e5:
            raise ValueError(
                f"series for E_alpha({a}, {z}) loses too many digits to cancellation"
            )
        decreasing = decreasing + 1 if term_abs < prev_abs else 0
        prev_abs = term_abs
        # alternating + decreasing => remainder bounded by next term
        if decreasing >= 3 and term_abs < _ML_TOL:
            return total
    raise ValueError(f"series for E_alpha({a}, {z}) did not converge in {_ML_MAX_TERMS} terms")


def _l1_weights(a: float, m: int) -> np.ndarray:
    """L1 weights b_r = (r+1)^{1-a} - r^{1-a} for r = 0 .. m-1; b_0 = 1."""
    r = np.arange(m, dtype=float)
    return (r + 1.0) ** (1.0 - a) - r ** (1.0 - a)


def _l1_history_sum(b: np.ndarray, x: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Rows k = lo..hi-1 of sum_i b_{k-i} x_i over the columns of ``x``.

    One zero-padded FFT convolution.  A cyclic length n >= len(x) + hi - lo
    wraps only onto rows below lo, which are dropped.  The columns go
    through the FFT a few at a time, so its scratch stays near
    _FFT_COLUMNS * n floats.
    """
    n = 1 << (len(x) + hi - 1 - lo).bit_length()
    b_hat = np.fft.rfft(b[:hi], n)[:, None]
    out = np.empty((hi - lo, x.shape[1]))
    for c in range(0, x.shape[1], _FFT_COLUMNS):
        cols = slice(c, c + _FFT_COLUMNS)
        spec = np.fft.rfft(x[:, cols], n, axis=0)
        spec *= b_hat
        if c + _FFT_COLUMNS >= x.shape[1]:
            del b_hat  # the last inverse FFT runs without the weights' spectrum
        out[:, cols] = np.fft.irfft(spec, n, axis=0)[lo:hi]
    return out


def caputo_l1(f: np.ndarray, grid: TimeGrid, alpha) -> np.ndarray:
    """L1-scheme Caputo derivative of samples ``f`` on ``grid``.

    Node j carries  h^{-alpha}/Gamma(2-alpha) * sum_i b_{j-1-i} (f_{i+1}-f_i)
    with b_r = (r+1)^{1-alpha} - r^{1-alpha}; node 0 is 0 by convention.
    Exact for affine f; O(h^{2-alpha}) for C^2 integrands.  The history sum
    is one zero-padded FFT convolution, O(m log m) for m steps.
    """
    a = _alpha_of(alpha)
    f = np.asarray(f, dtype=float)
    if f.shape != (grid.steps + 1,):
        raise ValueError(f"expected {grid.steps + 1} samples for this grid, got shape {f.shape}")
    if not np.isfinite(f).all():
        raise ValueError("caputo_l1 samples must be finite")

    m = grid.steps
    out = np.zeros(m + 1)
    memory = _l1_history_sum(_l1_weights(a, m), np.diff(f)[:, None], 0, m)[:, 0]
    out[1:] = memory * grid.h ** (-a) / math.gamma(2.0 - a)
    return out


def gagliardo_seminorm(u: Field, alpha) -> float:
    """Discrete sup of |f(xi) - f(xj)| / |xi - xj|^alpha over the samples of ``u``.

    A lower bound for the true Hoelder-alpha seminorm; tightens as the grid
    refines.  Pairs stay inside one period and do not wrap.  Every pair at
    lag L is L h apart, so the sup is the max over L of max |f[L:] - f[:-L]|
    / (L h)^alpha.  The lags are scanned in increasing order, and the scan
    stops at the first lag where the oscillation max f - min f over
    (L h)^alpha cannot beat the running sup: (L h)^alpha grows with L, so
    no later lag can either, and the result is the all-pairs maximum.
    """
    a = _alpha_of(alpha)
    f = u.values
    osc = f.max() - f.min()
    best = 0.0
    for lag in range(1, u.points):
        reach = (lag * u.spacing) ** a
        if osc / reach <= best:
            break
        best = max(best, float(np.abs(f[lag:] - f[:-lag]).max()) / reach)
    return best


def _wavenumbers(points: int, length: float) -> np.ndarray:
    return 2.0 * np.pi * np.fft.rfftfreq(points, d=length / points)


def _symbol(xi: np.ndarray, s: float) -> np.ndarray:
    """The multiplier |xi|^{2s} of (-Lap)^s on rfft wavenumbers; zero mode 0."""
    mult = np.zeros_like(xi)
    mult[1:] = xi[1:] ** (2.0 * s)
    return mult


def frac_laplacian(u: Field, s: float) -> Field:
    """Spectral (-Lap)^s on a periodic field: multiply mode xi by |xi|^{2s}.

    The zero mode maps to 0, so constants are annihilated.  Output is real
    by construction (rfft round trip).
    """
    if not s > 0:
        raise ValueError(f"s must be positive, got {s}")
    mult = _symbol(_wavenumbers(u.points, u.length), s)
    return u.copy_with(np.fft.irfft(np.fft.rfft(u.values) * mult, n=u.points))
