"""Noise-perturbed Kantorovich lattice operator and its moment calculus.

The operator replaces point samples of f by cell averages over the boxes
[k/n, (k+1)/n]^N and weights them with the product kernel Z(nx - k):

    K_n(f, x) = sum_k  (n^N int_cell f) * (1 + sigma W_k) * Z(nx - k),

with W_k i.i.d. standard Gaussians.  The expectation drops the noise; the
variance is sigma^2 * sum_k (cell avg)^2 Z^2(nx - k).  Kernel moments and
the Taylor-remainder diagnostic quantify the deterministic bias.

Test functions are callables f(*coords) that broadcast over numpy arrays,
one positional argument per axis.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import product as iter_product

import numpy as np

from .kernels import TAIL_TOL, KernelParams, TailBoundWarning, axis_window, eval_Phi, tail_bound
from .rng import NoiseModel

__all__ = [
    "GridSpec",
    "apply_expectation",
    "sample",
    "variance_closed_form",
    "kernel_moment",
    "voronovskaya_remainder",
    "multi_indices",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_GL_MEAN_W = 0.5 * _GL_WEIGHTS  # cell mean = sum w_i/2 f(node_i)


@dataclass(frozen=True)
class GridSpec:
    """Lattice resolution n and dimension N; the cells [k/n, (k+1)/n]^N tile R^N."""

    n: int
    dim: int = 1

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")


def multi_indices(dim: int, max_order: int) -> list[tuple[int, ...]]:
    """All beta in N^dim with 1 <= |beta| <= max_order."""
    return [
        beta
        for beta in iter_product(range(max_order + 1), repeat=dim)
        if 1 <= sum(beta) <= max_order
    ]


def _as_point(x, dim: int) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (dim,):
        raise ValueError(f"expected a point with {dim} coordinates, got shape {x.shape}")
    return x


def _prune_tol(params: KernelParams, grid: GridSpec) -> float:
    width = 2 * params.trunc_radius + 1
    return 0.01 * TAIL_TOL / (grid.dim * width)


def _windows(params: KernelParams, grid: GridSpec, xs: np.ndarray):
    """Index windows around round(n x) and their kernel weights, both (M, N, W).

    The window half-width depends only on (params, grid), so every point
    and axis shares one width W and one eval_Phi call covers them all.
    ValueError unless n x is finite with |n x| < 2^52: beyond that the
    cell midpoints k + 1/2 are not representable, and the int cast of
    inf or 1e300 overflows to a window where every weight is 0.
    """
    offsets = axis_window(params, _prune_tol(params, grid))
    nx = grid.n * xs
    if not np.all(np.abs(nx) < 2.0**52):  # also rejects NaN
        raise ValueError("lattice points need a finite n x with |n x| < 2**52")
    ks = np.rint(nx).astype(int)[..., None] + offsets
    return ks, eval_Phi(params, nx[..., None] - ks)


def _check_tail(params: KernelParams, grid: GridSpec) -> None:
    est = grid.dim * float(tail_bound(params, params.trunc_radius - 0.5))
    if est > TAIL_TOL:
        warnings.warn(
            f"lattice tail estimate {est:.3e} exceeds tolerance "
            f"{TAIL_TOL:.1e}; raise trunc_radius",
            TailBoundWarning,
            stacklevel=3,
        )


def _cell_means_box(f, ks: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Cell means of f over each point's (M, N, C) window box, shape (M, C, ..., C).

    ValueError if f is not finite anywhere in any of the boxes.
    """
    m, dim, c = ks.shape
    nodes = (ks[..., None] + 0.5 + 0.5 * _GL_NODES) / grid.n  # (M, N, C, 8)
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


def _terms(f, xs: np.ndarray, grid: GridSpec, params: KernelParams):
    """Window indices (M, N, W) and the terms (cell mean) Z(nx - k) per point."""
    ks, phis = _windows(params, grid, xs)
    return ks, _cell_means_box(f, ks, grid) * _outer(phis)


def apply_expectation(f, x, grid: GridSpec, params: KernelParams):
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
        if x.shape[0] == 0 or x.shape[1] != grid.dim:
            raise ValueError(f"expected points of shape (M, {grid.dim}), got {x.shape}")
        xs = x
    else:
        xs = _as_point(x, grid.dim)[None, :]
    _, terms = _terms(f, xs, grid, params)
    _check_tail(params, grid)
    vals = terms.reshape(xs.shape[0], -1).sum(axis=1)
    return vals if x.ndim == 2 else float(vals[0])


def _noisy_weights(
    ks: list[np.ndarray], noise: NoiseModel, replicate
) -> np.ndarray:
    """(1 + sigma W_k) over the index box, replicate broadcast in front."""
    # sparse, so the last key varies along the last axis only and cells pair
    mesh = np.meshgrid(*ks, indexing="ij", sparse=True)
    rep = np.asarray(replicate, dtype=int)
    rep_b = rep.reshape(rep.shape + (1,) * len(ks))
    w = noise.cell_multipliers(rep_b, *mesh)
    return 1.0 + noise.sigma * w


def sample(
    f, x, grid: GridSpec, params: KernelParams, noise: NoiseModel, replicate: int | np.ndarray
):
    """Stochastic draws  sum_k (cell mean)(1 + sigma W_k) Z(nx - k).

    W_k depends only on (noise.base_seed, replicate, k).  An int replicate
    gives one float; an array gives one draw per entry, summed per row, so
    ``sample(..., np.arange(a, b))`` holds draws a..b-1 bit for bit.  All
    draws' noise is held at once: R replicates cost R windows of memory.
    """
    ks, terms = _terms(f, _as_point(x, grid.dim)[None], grid, params)
    _check_tail(params, grid)
    noisy = _noisy_weights(list(ks[0]), noise, replicate)
    out = np.sum(noisy * terms[0], axis=tuple(range(-grid.dim, 0)))
    return float(out) if np.ndim(replicate) == 0 else out


def variance_closed_form(
    f, x, grid: GridSpec, params: KernelParams, sigma: float
) -> float:
    """Exact operator variance  sigma^2 sum_k (cell mean)^2 Z^2(nx - k)."""
    _, terms = _terms(f, _as_point(x, grid.dim)[None], grid, params)
    _check_tail(params, grid)
    return float(sigma**2 * np.sum(terms[0] ** 2))


def _monomial_cell_means(ks: np.ndarray, xi: float, n: int, p: int) -> np.ndarray:
    """n * int_{k/n}^{(k+1)/n} (t - xi)^p dt, in closed form per index."""
    lo = ks / n - xi
    hi = (ks + 1.0) / n - xi
    return n * (hi ** (p + 1) - lo ** (p + 1)) / (p + 1)


def kernel_moment(beta, x, grid: GridSpec, params: KernelParams) -> float:
    """Lattice moment  sum_k (n^N int_cell (t-x)^beta dt) Z(nx - k).

    Separability of the cells and of Z factorizes the sum into per-axis
    sums with closed-form monomial integrals.
    """
    beta = tuple(int(b) for b in np.atleast_1d(beta))
    if len(beta) != grid.dim:
        raise ValueError(f"beta must have {grid.dim} components, got {beta}")
    x = _as_point(x, grid.dim)
    ks, phis = _windows(params, grid, x[None])
    _check_tail(params, grid)
    total = 1.0
    for i in range(grid.dim):
        mono = _monomial_cell_means(ks[0, i].astype(float), x[i], grid.n, beta[i])
        total *= float(np.sum(mono * phis[0, i]))
    return total


def voronovskaya_remainder(
    f, derivs, x, grid: GridSpec, params: KernelParams, m: int = 2
) -> float:
    """Operator bias minus its Taylor prediction through order m.

    ``derivs`` maps each multi-index beta (1 <= |beta| <= m) to the exact
    partial-derivative callable, so the remainder isolates pure operator
    error.  Vanishes (up to quadrature/truncation) for polynomials of
    degree <= m.
    """
    x = _as_point(x, grid.dim)
    _check_tail(params, grid)
    expansion = 0.0
    with warnings.catch_warnings():
        # warned once above, at the caller; the inner sums share the window
        warnings.simplefilter("ignore", TailBoundWarning)
        for beta in multi_indices(grid.dim, m):
            try:
                dfn = derivs[beta]
            except KeyError as exc:
                raise KeyError(f"missing derivative for multi-index {beta}") from exc
            factorial = math.prod(math.factorial(b) for b in beta)
            expansion += float(dfn(*x)) * kernel_moment(beta, x, grid, params) / factorial
        expectation = apply_expectation(f, x, grid, params)
    return expectation - float(f(*x)) - expansion
