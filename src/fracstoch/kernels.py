"""Symmetrized sigmoidal kernels built from a deformed hyperbolic tangent.

The building block is the two-parameter activation

    g(x) = (e^{lam x} - q e^{-lam x}) / (e^{lam x} + q e^{-lam x})
         = tanh(lam x - c),   c = ln(q)/2,

which reduces to tanh(lam x) at q = 1.  From it we form the localized
density M(x) = (g(x+1) - g(x-1))/4, the even kernel
Phi(x) = (M_q(x) + M_{1/q}(x))/2 and the separable product kernel
Z(x) = prod_i Phi(x_i).  Integer translates of Phi sum to one (the two
parity classes of the telescoping sum each contribute 1/2), which is what
lets the lattice operators reproduce constants exactly.

Since tanh u - tanh v = sinh(u - v) / (cosh u cosh v), M has the closed form

    M(x) = sinh(2 lam) sech(a) sech(b) / 4,   a = |lam(x+1) - c|, b = |lam(x-1) - c|,

evaluated as -expm1(-4 lam)/2 * e^{2 lam - a - b} / ((1 + e^{-2a})(1 + e^{-2b})):
a product with no cancellation and no branch.  Every exponent is <= 0,
because a + b >= |a - b| = 2 lam, so g, M, Phi and Z are pure, vectorized
over numpy arrays, and free of overflow for any finite lam and any x,
infinities included.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "KernelParams",
    "TailBoundWarning",
    "eval_g",
    "eval_M",
    "eval_Phi",
    "eval_Z",
    "partition_sum",
    "tail_bound",
    "axis_window",
]


TAIL_TOL = 1e-10  # acceptable discarded mass of a truncated lattice sum


class TailBoundWarning(UserWarning):
    """Truncated lattice sum may be off by more than TAIL_TOL."""


@dataclass(frozen=True)
class KernelParams:
    """Kernel shape parameters and the lattice cutoff for truncated sums.

    ``trunc_radius`` is the half-width K of the index window used when a
    sum over all integer translates is replaced by |k| <= K; the discarded
    mass is checked against TAIL_TOL via :func:`tail_bound`.
    """

    q: float = 1.0
    lam: float = 1.0
    trunc_radius: int = 40

    def __post_init__(self) -> None:
        if not 0 < self.q < math.inf:
            raise ValueError(f"deformation q must be positive and finite, got {self.q}")
        if not 0 < self.lam < math.inf:
            raise ValueError(f"slope lam must be positive and finite, got {self.lam}")
        if self.trunc_radius < 1:
            raise ValueError(f"trunc_radius must be >= 1, got {self.trunc_radius}")


def eval_g(params: KernelParams, x) -> np.ndarray:
    """Deformed tanh g(x) = tanh(lam x - ln(q)/2).  Strictly increasing, values in (-1, 1)."""
    return np.tanh(params.lam * np.asarray(x, dtype=float) - 0.5 * math.log(params.q))


def _M(q: float, lam: float, x: np.ndarray) -> np.ndarray:
    """M_q(x) by the sech-product closed form of the module docstring."""
    c = 0.5 * math.log(q)
    a = np.abs(lam * (x + 1.0) - c)
    b = np.abs(lam * (x - 1.0) - c)
    den = (1.0 + np.exp(-2.0 * a)) * (1.0 + np.exp(-2.0 * b))
    return -0.5 * math.expm1(-4.0 * lam) * np.exp(2.0 * lam - (a + b)) / den


def eval_M(params: KernelParams, x) -> np.ndarray:
    """Localized density M(x) = (g(x+1) - g(x-1)) / 4 > 0."""
    return _M(params.q, params.lam, np.asarray(x, dtype=float))


def eval_Phi(params: KernelParams, x) -> np.ndarray:
    """Even kernel Phi(x) = (M_q(x) + M_{1/q}(x)) / 2.

    Evaluated at |x|, so Phi(x) == Phi(-x) holds bit-for-bit.
    """
    xa = np.abs(np.asarray(x, dtype=float))
    return 0.5 * (_M(params.q, params.lam, xa) + _M(1.0 / params.q, params.lam, xa))


def eval_Z(params: KernelParams, x) -> np.ndarray:
    """Product kernel over the last axis: Z(x) = prod_i Phi(x_i)."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] == 0:
        raise ValueError("eval_Z expects a coordinate vector on the last axis")
    return np.prod(eval_Phi(params, x), axis=-1)


def tail_bound(params: KernelParams, margin) -> np.ndarray:
    """Analytic bound on sum_{|k| > K} Phi(x - k) with margin = K - |x|.

    Uses Phi(y) <= lam (q + 1/q) e^{-2 lam (y - 1)} for y >= 1 and a
    geometric sum.  Returns +inf where margin < 0 (estimate invalid).
    """
    margin = np.asarray(margin, dtype=float)
    amp = 2.0 * params.lam * (params.q + 1.0 / params.q)
    geom = -np.expm1(-2.0 * params.lam)
    est = amp * np.exp(-2.0 * params.lam * margin) / geom
    return np.where(margin >= 0, est, np.inf)


def partition_sum(params: KernelParams, x) -> np.ndarray:
    """Truncated translate sum  sum_{|k| <= K} Phi(x - k).

    Provably equal to 1 for every x when untruncated; warns with a
    :class:`TailBoundWarning` if the analytic tail estimate exceeds the
    tolerance TAIL_TOL.
    """
    x = np.asarray(x, dtype=float)
    K = params.trunc_radius
    est = float(np.max(tail_bound(params, K - np.abs(x))))
    if est > TAIL_TOL:
        warnings.warn(
            f"tail estimate {est:.3e} exceeds tolerance {TAIL_TOL:.1e} "
            f"(K={K}); raise trunc_radius",
            TailBoundWarning,
            stacklevel=2,
        )
    ks = np.arange(-K, K + 1, dtype=float)
    return np.sum(eval_Phi(params, x[..., None] - ks), axis=-1)


def axis_window(params: KernelParams, prune_tol: float) -> np.ndarray:
    """Offsets k from a window's centre whose kernel weight can exceed prune_tol.

    The window starts at |k| <= trunc_radius and is shrunk using the
    one-term decay bound; kept symmetric so moment sums see the full even
    kernel.
    """
    amp = params.lam * (params.q + 1.0 / params.q)
    # smallest y >= 1 with amp * e^{-2 lam (y-1)} <= prune_tol
    if amp <= prune_tol:
        reach = 1.0
    else:
        reach = 1.0 + np.log(amp / prune_tol) / (2.0 * params.lam)
    half = min(params.trunc_radius, int(np.ceil(reach)) + 1)
    return np.arange(-half, half + 1)
