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

__all__ = [
    "FracOrder",
    "TimeGrid",
    "gamma_fn",
    "mittag_leffler",
    "caputo_l1",
    "gagliardo_seminorm",
    "frac_laplacian",
]


@dataclass(frozen=True)
class FracOrder:
    """Fractional order alpha, strictly inside (0, 1)."""

    alpha: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie strictly in (0, 1), got {self.alpha}")


def _alpha_of(alpha) -> float:
    return alpha.alpha if isinstance(alpha, FracOrder) else FracOrder(float(alpha)).alpha


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [t0, t1] with ``steps`` intervals (steps+1 nodes)."""

    t0: float
    t1: float
    steps: int

    def __post_init__(self) -> None:
        if not self.t1 > self.t0:
            raise ValueError(f"need t1 > t0, got [{self.t0}, {self.t1}]")
        if self.steps < 2:
            raise ValueError(f"steps must be >= 2, got {self.steps}")

    @property
    def h(self) -> float:
        return (self.t1 - self.t0) / self.steps

    def nodes(self) -> np.ndarray:
        return self.t0 + self.h * np.arange(self.steps + 1)


def gamma_fn(x: float) -> float:
    """Gamma function on (0, inf); rejects nonpositive arguments."""
    x = float(x)
    if not x > 0:
        raise ValueError(f"gamma_fn requires a positive argument, got {x}")
    return math.gamma(x)


def mittag_leffler(alpha, z: float, tol: float = 1e-12, max_terms: int = 1000) -> float:
    """E_alpha(z) = sum_j z^j / Gamma(alpha j + 1) for z <= 0.

    Kahan-compensated series with a monitored alternating tail; raises
    when cancellation would push the absolute error above ~1e-10.
    """
    a = _alpha_of(alpha)
    z = float(z)
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
    for j in range(max_terms):
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
        if decreasing >= 3 and term_abs < tol:
            return total
    raise ValueError(f"series for E_alpha({a}, {z}) did not converge in {max_terms} terms")


def caputo_l1(f: np.ndarray, grid: TimeGrid, alpha) -> np.ndarray:
    """L1-scheme Caputo derivative of samples ``f`` on ``grid``.

    Node j carries  h^{-alpha}/Gamma(2-alpha) * sum_i b_{j-1-i} (f_{i+1}-f_i)
    with b_r = (r+1)^{1-alpha} - r^{1-alpha}; node 0 is 0 by convention.
    Exact for affine f; O(h^{2-alpha}) for C^2 integrands.  The history sum
    is one zero-padded FFT convolution, O(m log m) for m steps.
    """
    a = _alpha_of(alpha)
    f = np.asarray(f, dtype=float)
    if f.ndim != 1 or f.size < 2:
        raise ValueError("caputo_l1 needs a 1D array with at least 2 samples")
    if f.size != grid.steps + 1:
        raise ValueError(f"expected {grid.steps + 1} samples for this grid, got {f.size}")

    h = grid.h
    m = grid.steps
    r = np.arange(m, dtype=float)
    b = (r + 1.0) ** (1.0 - a) - r ** (1.0 - a)
    df = np.diff(f)
    # (df * b)[j-1] = sum_i df_i b_{j-1-i}; n >= 2m-1 keeps the first m free of wraparound
    n = 1 << (2 * m - 1).bit_length()
    spec = np.fft.rfft(df, n)
    spec *= np.fft.rfft(b, n)
    out = np.zeros(m + 1)
    out[1:] = np.fft.irfft(spec, n)[:m] * h ** (-a) / math.gamma(2.0 - a)
    return out


def gagliardo_seminorm(f: np.ndarray, x: np.ndarray, alpha) -> float:
    """Discrete sup of |f(xi) - f(xj)| / |xi - xj|^alpha over sample pairs.

    A lower bound for the true Hoelder-alpha seminorm; tightens as the
    sampling refines.  Pairs with xi == xj are left out.

    The pairs are scanned one lag L = j - i at a time, in increasing order.
    A lag whose largest |f| difference over its smallest |x| gap^alpha
    cannot beat the running sup is skipped without its power pass, and on
    strictly increasing x the scan stops at the first lag where the
    oscillation max f - min f over that gap^alpha cannot.  Each lag costs
    O(P); on a Hoelder field sampled on a grid the scan stops after a
    fraction of the P - 1 lags, while unsorted x still costs O(P^2).  The
    bounds only skip pairs that cannot raise the sup, so the result is the
    all-pairs maximum bit for bit.
    """
    a = _alpha_of(alpha)
    f = np.asarray(f, dtype=float)
    x = np.asarray(x, dtype=float)
    if f.shape != x.shape or f.ndim != 1:
        raise ValueError("f and x must be 1D arrays of equal length")
    if f.size < 2:
        raise ValueError("need at least 2 samples")
    if not (np.isfinite(f).all() and np.isfinite(x).all()):
        raise ValueError("f and x must be finite")

    increasing = bool(np.all(x[1:] > x[:-1]))
    osc = f.max() - f.min()
    best = 0.0
    for lag in range(1, f.size):
        num = np.abs(f[lag:] - f[:-lag])
        den = np.abs(x[lag:] - x[:-lag])
        gap = den.min(keepdims=True)
        if gap[0] > 0:
            # numpy's vector pow may round differently from its scalar pow,
            # so the bound takes the power through the same array path
            reach = (gap**a)[0]
            if increasing and osc / reach <= best:
                break
            if num.max() / reach <= best:
                continue
        mask = den > 0
        if np.any(mask):
            best = max(best, float(np.max(num[mask] / den[mask] ** a)))
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
    P = u.points
    if P < 8 or (P & (P - 1)) != 0:
        raise ValueError(f"grid size must be a power of two >= 8, got {P}")
    mult = _symbol(_wavenumbers(P, u.length), s)
    return u.copy_with(np.fft.irfft(np.fft.rfft(u.values) * mult, n=P))
