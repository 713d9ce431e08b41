"""Deterministic counter-based Gaussian streams.

Every variate is a pure function of (seed, stream label, replicate, cell
index), computed with a splitmix64-style hash.  Replicates can therefore
be evaluated in any order, in chunks, or on any number of workers and the
results never change.  One call is evaluated in blocks of whole
leading-axis rows of about 2^15 variates, so its hash temporaries stay in
cache; the bits do not depend on the blocking.  A :class:`NoiseModel` is a
level sigma and a seed; each operator draws from the stream of the method
it calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NoiseModel",
    "LABEL_CELL_MULTIPLIER",
    "LABEL_WHITE_NOISE",
    "LABEL_FORCING",
    "standard_normals",
]

# stream labels keep the lattice, white-noise and forcing draws disjoint
LABEL_CELL_MULTIPLIER = 0x1D
LABEL_WHITE_NOISE = 0x2E
LABEL_FORCING = 0x3F

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_LANE1 = np.uint64(0xA5A5A5A5A5A5A5A5)
_LANE2 = np.uint64(0xC3C3C3C3C3C3C3C3)
_BLOCK = 1 << 15  # variates per row block


def _u64(a) -> np.ndarray:
    # two's-complement reinterpretation of signed inputs
    return np.asarray(a).astype(np.int64).astype(np.uint64)


def _mix(z: np.ndarray) -> np.ndarray:
    # uint64 wraparound is the point; silence numpy's scalar-overflow warning
    with np.errstate(over="ignore"):
        z = z + _GOLDEN
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def _unit(u: np.ndarray) -> np.ndarray:
    # top 53 bits -> (0, 1]
    return ((u >> np.uint64(11)) + np.uint64(1)) * (2.0**-53)


def _normals(h: np.ndarray, keys) -> np.ndarray:
    # absorb the key words into the prefix hash h, then Box-Muller
    for key in keys:
        h = _mix(h ^ key)
    u1 = _unit(_mix(h ^ _LANE1))
    u2 = _unit(_mix(h ^ _LANE2))
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def standard_normals(seed: int, label: int, replicate, *keys) -> np.ndarray:
    """One N(0,1) draw per broadcast element of (replicate, *keys).

    ``replicate`` and each key may be scalars or integer arrays; they are
    broadcast together.  The draw depends only on the absorbed words, not
    on array shapes, evaluation order or the row blocking.
    """
    h = _mix(_u64(seed & 0xFFFFFFFFFFFFFFFF) ^ _u64(label))
    h = _mix(h ^ _u64(replicate))
    h, *words = np.broadcast_arrays(h, *(_u64(key) for key in keys))
    if h.ndim == 0:
        return _normals(h, words)
    out = np.empty(h.shape)
    step = max(1, _BLOCK // max(1, math.prod(h.shape[1:])))
    for lo in range(0, len(out), step):
        rows = slice(lo, lo + step)
        out[rows] = _normals(h[rows], [w[rows] for w in words])
    return out


@dataclass(frozen=True)
class NoiseModel:
    """Noise intensity and the seeded family of perturbations.

    The lattice operator reads :meth:`cell_multipliers` and the mollifier
    route reads :meth:`white_noise`; the two streams never share a draw.
    """

    sigma: float = 0.1
    base_seed: int = 42

    def __post_init__(self) -> None:
        if not 0 <= self.sigma < math.inf:  # also rejects NaN
            raise ValueError(f"sigma must be nonnegative and finite, got {self.sigma}")

    def cell_multipliers(self, replicate, *k_coords) -> np.ndarray:
        """Standard Gaussians W_k for lattice cells, keyed by coordinates."""
        return standard_normals(self.base_seed, LABEL_CELL_MULTIPLIER, replicate, *k_coords)

    def white_noise(self, replicate, *cell_index) -> np.ndarray:
        """Standard Gaussians for white-noise-measure cell increments."""
        return standard_normals(self.base_seed, LABEL_WHITE_NOISE, replicate, *cell_index)
