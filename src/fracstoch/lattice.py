"""Noise-perturbed Kantorovich lattice operator and its moment calculus.

The operator replaces point samples of f by cell averages over the boxes
[k/n, (k+1)/n]^N and weights them with the product kernel Z(nx - k):

    K_n(f, x) = sum_k  (n^N int_cell f) * (1 + sigma W_k) * Z(nx - k),

with W_k i.i.d. standard Gaussians, scaled by NoiseModel.increment_scale(1.0):
each cell reads as unit measure, not n^-N.  The expectation drops the noise;
the variance is sigma^2 * sum_k (cell avg)^2 Z^2(nx - k).  Kernel moments and
the Taylor-remainder diagnostic quantify the deterministic bias.

The resolution n >= 1 is the operator's one parameter: the point x fixes
N.  Test functions are callables f(*coords) that broadcast over numpy
arrays, one positional argument per axis.
"""

from __future__ import annotations

import math
import numbers
import warnings
from itertools import product as iter_product

import numpy as np

from .kernels import TAIL_TOL, KernelParams, TailBoundWarning, axis_window, eval_Phi, tail_bound
from .rng import NoiseModel, _check_count

__all__ = [
    "apply_expectation",
    "sample",
    "variance_closed_form",
    "kernel_moment",
    "voronovskaya_remainder",
    "multi_indices",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_GL_MEAN_W = 0.5 * _GL_WEIGHTS  # cell mean = sum w_i/2 f(node_i)


def multi_indices(ndim: int, max_order: int) -> list[tuple[int, ...]]:
    """All beta in N^ndim with 1 <= |beta| <= max_order."""
    return [
        beta
        for beta in iter_product(range(max_order + 1), repeat=ndim)
        if 1 <= sum(beta) <= max_order
    ]


def _as_point(x) -> np.ndarray:
    """One point as its N coordinates; a float is a point of R^1."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.ndim != 1 or x.size == 0:
        raise ValueError(f"expected a float or N coordinates, got shape {x.shape}")
    return x


def _prune_tol(params: KernelParams, dim: int) -> float:
    width = 2 * params.trunc_radius + 1
    return 0.01 * TAIL_TOL / (dim * width)


def _windows(params: KernelParams, n: int, xs: np.ndarray):
    """Index windows around round(n x) and their kernel weights, both (M, N, W).

    The window half-width depends only on params and N, so every point
    and axis shares one width W and one eval_Phi call covers them all.
    ValueError unless n is an integer >= 1 and n x is finite with
    |n x| < 2^52: beyond that the cell midpoints k + 1/2 are not
    representable, and the int cast of inf or 1e300 overflows to a window
    where every weight is 0.
    """
    _check_count("n", n, 1)
    offsets = axis_window(params, _prune_tol(params, xs.shape[1]))
    nx = n * xs
    if not np.all(np.abs(nx) < 2.0**52):  # also rejects NaN
        raise ValueError("lattice points need a finite n x with |n x| < 2**52")
    ks = np.rint(nx).astype(int)[..., None] + offsets
    return ks, eval_Phi(params, nx[..., None] - ks)


def _check_tail(params: KernelParams, dim: int) -> None:
    est = dim * float(tail_bound(params, params.trunc_radius - 0.5))
    if est > TAIL_TOL:
        warnings.warn(
            f"lattice tail estimate {est:.3e} exceeds tolerance "
            f"{TAIL_TOL:.1e}; raise trunc_radius",
            TailBoundWarning,
            stacklevel=3,
        )


def _cell_means_box(f, ks: np.ndarray, n: int) -> np.ndarray:
    """Cell means of f over each point's (M, N, C) window box, shape (M, C, ..., C).

    ValueError if f is not finite anywhere in any of the boxes.
    """
    m, dim, c = ks.shape
    nodes = (ks[..., None] + 0.5 + 0.5 * _GL_NODES) / n  # (M, N, C, 8)
    axes = []
    for i in range(dim):
        shape = [m] + [1] * (2 * dim)
        shape[1 + i] = c
        shape[1 + dim + i] = _GL_NODES.size
        axes.append(nodes[:, i].reshape(shape))
    vals = np.asarray(f(*axes), dtype=float)
    if not np.isfinite(vals).all():
        raise ValueError("f is NaN or infinite inside the kernel window")
    vals = np.broadcast_to(vals, (m,) + (c,) * dim + (_GL_NODES.size,) * dim)
    for _ in range(dim):
        vals = np.tensordot(vals, _GL_MEAN_W, axes=([-1], [0]))
    return vals


def _outer(phis: np.ndarray) -> np.ndarray:
    """Per-point product of the N axis weights: (M, N, W) -> (M, W, ..., W)."""
    m, dim, w = phis.shape
    out = phis[:, 0]
    for i in range(1, dim):
        out = out[..., None] * phis[:, i].reshape((m,) + (1,) * i + (w,))
    return out


def _terms(f, xs: np.ndarray, n: int, params: KernelParams):
    """Window indices (M, N, W) and the terms (cell mean) Z(nx - k) per point."""
    ks, phis = _windows(params, n, xs)
    return ks, _cell_means_box(f, ks, n) * _outer(phis)


def apply_expectation(f, x, n: int, params: KernelParams):
    """Deterministic Kantorovich value  sum_k (cell mean) Z(nx - k).

    ``x`` is one point (a float when N = 1, or N coordinates), which gives
    a float, or a stack of points of shape (M, N), which gives M values
    equal bit for bit to M single-point calls.  A stack is evaluated in
    one pass: one eval_Phi call and one call of f over all M windows, so
    f must broadcast over arrays with a leading point axis.  ValueError if
    f is not finite in any point's window.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 2:
        if 0 in x.shape:
            raise ValueError(f"expected points of shape (M, N), got {x.shape}")
        xs = x
    else:
        xs = _as_point(x)[None, :]
    _, terms = _terms(f, xs, n, params)
    _check_tail(params, xs.shape[1])
    vals = terms.reshape(xs.shape[0], -1).sum(axis=1)
    return vals if x.ndim == 2 else float(vals[0])


def _noisy_weights(
    ks: list[np.ndarray], noise: NoiseModel, replicate
) -> np.ndarray:
    """(1 + sigma W_k) over the index box, replicate broadcast in front."""
    # sparse, so the last key varies along the last axis only and cells pair
    mesh = np.meshgrid(*ks, indexing="ij", sparse=True)
    rep = np.asarray(replicate)
    rep_b = rep.reshape(rep.shape + (1,) * len(ks))
    w = noise.cell_multipliers(rep_b, *mesh)
    return 1.0 + noise.increment_scale(1.0) * w


def sample(f, x, n: int, params: KernelParams, noise: NoiseModel, replicate: int | np.ndarray):
    """Stochastic draws  sum_k (cell mean)(1 + sigma W_k) Z(nx - k).

    W_k depends only on (noise.base_seed, replicate, k).  An int replicate
    gives one float; an array gives one draw per entry, summed per row, so
    ``sample(..., np.arange(a, b))`` holds draws a..b-1 bit for bit.  All
    draws' noise is held at once: R replicates cost R windows of memory.
    """
    x = _as_point(x)
    ks, terms = _terms(f, x[None], n, params)
    _check_tail(params, x.size)
    noisy = _noisy_weights(list(ks[0]), noise, replicate)
    out = np.sum(noisy * terms[0], axis=tuple(range(-x.size, 0)))
    return float(out) if np.ndim(replicate) == 0 else out


def variance_closed_form(f, x, n: int, params: KernelParams, noise: NoiseModel) -> float:
    """Exact variance of :func:`sample`,  sigma^2 sum_k (cell mean)^2 Z^2(nx - k)."""
    x = _as_point(x)
    _, terms = _terms(f, x[None], n, params)
    _check_tail(params, x.size)
    return float(noise.increment_variance(1.0) * np.sum(terms[0] ** 2))


def _monomial_cell_means(ks: np.ndarray, xi: float, n: int, p: int) -> np.ndarray:
    """n * int_{k/n}^{(k+1)/n} (t - xi)^p dt, in closed form per index."""
    lo = ks / n - xi
    hi = (ks + 1.0) / n - xi
    return n * (hi ** (p + 1) - lo ** (p + 1)) / (p + 1)


def kernel_moment(beta, x, n: int, params: KernelParams) -> float:
    """Lattice moment  sum_k (n^N int_cell (t-x)^beta dt) Z(nx - k).

    Separability of the cells and of Z factorizes the sum into per-axis
    sums with closed-form monomial integrals.  ValueError unless beta has
    one nonnegative integral component per coordinate of x: a real number
    other than a bool, so True and "1" are refused; ValueError too if the
    moment overflows float64, as at beta = (1e300,).
    """
    x = _as_point(x)
    comps = np.atleast_1d(np.asarray(beta, dtype=object))  # keeps each component's type
    if comps.shape != x.shape or not all(
        isinstance(b, numbers.Real) and not isinstance(b, bool) and float(b).is_integer() and b >= 0
        for b in comps
    ):
        raise ValueError(f"beta must have {x.size} nonnegative integral components, got {beta}")
    ks, phis = _windows(params, n, x[None])
    _check_tail(params, x.size)
    total = 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow ends in inf or NaN
        for i, b in enumerate(comps):
            mono = _monomial_cell_means(ks[0, i].astype(float), x[i], n, int(b))
            total *= float(np.sum(mono * phis[0, i]))
    if not math.isfinite(total):
        raise ValueError(f"beta {beta} is too large: the moment overflows float64")
    return total


def voronovskaya_remainder(f, derivs, x, n: int, params: KernelParams) -> float:
    """Operator bias minus its Taylor prediction through order m.

    ``derivs`` maps each multi-index beta to the exact partial-derivative
    callable, so the remainder isolates pure operator error.  The order m
    is the largest |beta| among its keys, at least 1; KeyError if a beta
    with 1 <= |beta| <= m is missing.  Vanishes (up to quadrature and
    truncation) for polynomials of degree <= m.
    """
    x = _as_point(x)
    m = max([1, *map(sum, derivs)])
    _check_tail(params, x.size)
    expansion = 0.0
    with warnings.catch_warnings():
        # warned once above, at the caller; the inner sums share the window
        warnings.simplefilter("ignore", TailBoundWarning)
        for beta in multi_indices(x.size, m):
            try:
                dfn = derivs[beta]
            except KeyError as exc:
                raise KeyError(f"missing derivative for multi-index {beta}") from exc
            factorial = math.prod(math.factorial(b) for b in beta)
            expansion += float(dfn(*x)) * kernel_moment(beta, x, n, params) / factorial
        expectation = apply_expectation(f, x, n, params)
    return expectation - float(f(*x)) - expansion
