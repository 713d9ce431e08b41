"""Periodic 1D scalar fields; every :class:`Field` lies on a :class:`PeriodicGrid`."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import LABEL_SYNTHETIC, _check_count, _check_real, standard_normals

__all__ = [
    "PeriodicGrid",
    "Field",
    "sample_on_grid",
    "kink_field",
    "lacunary_field",
]

_LACUNARY_LEVELS = 12  # octaves of lacunary_field


@dataclass(frozen=True)
class PeriodicGrid:
    """Periodic interval [0, length) sampled at ``points`` nodes.

    ``points`` must be a power of two (>= 8) so spectral operators can
    assume clean FFT sizes.
    """

    length: float
    points: int

    def __post_init__(self) -> None:
        _check_count("points", self.points, 1)
        _check_real("length", self.length)
        if self.points < 8 or self.points & (self.points - 1):
            raise ValueError(f"points must be a power of two >= 8, got {self.points}")
        if not 0 < self.length < math.inf:
            raise ValueError(f"length must be positive and finite, got {self.length}")

    @property
    def spacing(self) -> float:
        return self.length / self.points

    def coords(self) -> np.ndarray:
        return np.arange(self.points) * self.spacing


@dataclass(frozen=True)
class Field:
    """Periodic 1D field samples plus domain metadata.

    Values have shape (P,) and are finite; samples sit at j * spacing and
    wrap at P * spacing, and (P * spacing, P) must pass :class:`PeriodicGrid`.
    Frozen, so the grid rule checked at construction holds for its life.
    """

    values: np.ndarray
    spacing: float

    def __post_init__(self) -> None:
        _check_real("spacing", self.spacing)  # else 8 * "0.1" would repeat a string
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.ndim != 1:
            raise ValueError(f"Field values must be 1D, got shape {self.values.shape}")
        PeriodicGrid(self.length, self.points)
        if not np.isfinite(self.values).all():
            raise ValueError("Field values must be finite")

    @property
    def points(self) -> int:
        return self.values.shape[0]

    @property
    def length(self) -> float:
        return self.points * self.spacing

    def coords(self) -> np.ndarray:
        return np.arange(self.points) * self.spacing

    def copy_with(self, values: np.ndarray) -> "Field":
        return Field(values, self.spacing)


def sample_on_grid(grid: PeriodicGrid, fn) -> Field:
    """Sample ``fn(x)`` on a periodic grid."""
    return Field(np.asarray(fn(grid.coords()), dtype=float), grid.spacing)


def kink_field(alpha: float):
    """|sin x|^alpha: 2pi-periodic, Hoelder-alpha with kinks at multiples of pi.

    The sup-norm approximation error of a unit-mass smoothing kernel on
    this field is dominated by the kink neighbourhoods and decays like
    n^{-alpha}.
    """
    _check_real("alpha", alpha)
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")

    def fn(x):
        return np.abs(np.sin(x)) ** alpha

    return fn


def lacunary_field(alpha: float, seed: int = 0):
    """Random-phase lacunary sum  sum_{j<12} 2^{-j alpha} cos(2^j x + theta_j).

    theta_j is the angle of the counter pair (1, j) of ``seed``.  Uniformly
    Hoelder-alpha (rough at every point), so its L2 mollification error decays
    like n^{-alpha}; an isolated kink would give the faster n^{-alpha-1/2}.
    """
    _check_real("alpha", alpha)
    _check_count("seed", seed, 0, bits=64)  # one counter word
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    z = standard_normals(seed, LABEL_SYNTHETIC, 0, 1, np.arange(_LACUNARY_LEVELS)[:, None], np.arange(2))
    thetas = np.arctan2(z[:, 1], z[:, 0])

    def fn(x):
        x = np.asarray(x, dtype=float)
        acc = np.zeros_like(x)
        for j, theta in enumerate(thetas):
            acc += 2.0 ** (-j * alpha) * np.cos(2.0**j * x + theta)
        return acc

    return fn
