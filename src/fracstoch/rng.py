"""Deterministic counter-based Gaussian streams.

Every variate is a pure function of (seed, stream label, replicate, key
words k1 ... kj), computed with a splitmix64-style hash.  Replicates can
therefore be evaluated in any order, in chunks, or on any number of workers
and the results never change.

Stream v2 pairs cells on the last key word.  The words kj = 2m and 2m + 1
(as uint64, so -4 and -3 pair) share one Box-Muller pair, hashed from
(..., k(j-1), m): component 0 is r cos(theta) and component 1 is
r sin(theta), where the sine is taken from c = cos(theta) as
copysign(sqrt((1 - c)(1 + c)), pi - theta), within 1.1e-8 of sin(theta)
(the worst case is near theta = 0 and pi, where c rounds to +-1).  Where an
even word and its odd successor sit next to each other on the last axis,
the same across the leading axes, one call hashes the pair once, through
slice views; every other element is hashed alone and gets the same bits.
The v1 stream, which hashed every element on its own, is gone.

One call is evaluated in blocks of whole leading-axis rows of about 2^15
variates, so its hash temporaries stay in cache; the bits do not depend on
the blocking.  A :class:`NoiseModel` is a level sigma and a seed; each
operator draws from the stream of the method it calls.
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
_ONE = np.uint64(1)
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


def _box_muller(u1: np.ndarray, u2: np.ndarray):
    # (r cos t, r sin t) from one trig call: near c = +-1 the small factor of
    # (1 - c)(1 + c) is exact, so the sine errs only by c's rounding, < 1.1e-8
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    c = np.cos(theta)
    return r * c, r * np.copysign(np.sqrt((1.0 - c) * (1.0 + c)), np.pi - theta)


def _pair(h: np.ndarray, words):
    # absorb the key words into the prefix hash h, then one Box-Muller pair
    for word in words:
        h = _mix(h ^ word)
    return _box_muller(_unit(_mix(h ^ _LANE1)), _unit(_mix(h ^ _LANE2)))


def _flat(a: np.ndarray, axes) -> bool:
    # a is constant along these axes of its broadcast shape
    return all(a.strides[i] == 0 or a.shape[i] == 1 for i in axes)


def _pair_runs(h: np.ndarray, words, odd: np.ndarray) -> list:
    """Slices of the last axis tiled by whole pairs, in (even, odd) order.

    A pair is an even word followed by its odd successor on the last axis,
    the same in every leading row, with h and the other words constant
    along the last axis.  Without that layout no element is paired.
    """
    *lead, last = range(h.ndim)
    if not (_flat(words[-1], lead) and all(_flat(a, [last]) for a in (h, *words[:-1]))):
        return []
    row = (0,) * len(lead)
    half, bit = words[-1][row], odd[row]
    starts = np.flatnonzero((bit[:-1] == 0) & (bit[1:] == 1) & (half[:-1] == half[1:]))
    runs = np.split(starts, np.flatnonzero(np.diff(starts) != 2) + 1)
    return [slice(run[0], run[-1] + 2) for run in runs if run.size]


def _fill(out: np.ndarray, h: np.ndarray, words, odd: np.ndarray) -> None:
    # one row block: each pair hashed once through slice views, the rest alone
    alone = np.ones(out.shape[-1], dtype=bool)
    for run in _pair_runs(h, words, odd):
        first = (..., slice(run.start, run.stop, 2))
        second = (..., slice(run.start + 1, run.stop, 2))
        out[first], out[second] = _pair(h[first], [w[first] for w in words])
        alone[run] = False
    rest = (..., np.flatnonzero(alone))
    z0, z1 = _pair(h[rest], [w[rest] for w in words])
    out[rest] = np.where(odd[rest] == 1, z1, z0)


def standard_normals(seed: int, label: int, replicate, *keys) -> np.ndarray:
    """One N(0,1) draw per broadcast element of (replicate, *keys).

    ``replicate`` and each key may be scalars or integer arrays; they are
    broadcast together, and at least one key is required: the last key
    word picks the Box-Muller pair and its component.  The draw depends
    only on the absorbed words, not on array shapes, evaluation order, the
    row blocking or whether a partner is drawn in the same call.
    """
    if not keys:
        raise ValueError("standard_normals needs at least one key word")
    h = _mix(_u64(seed & 0xFFFFFFFFFFFFFFFF) ^ _u64(label))
    h = _mix(h ^ _u64(replicate))
    *lead, last = (_u64(key) for key in keys)
    arrays = np.broadcast_arrays(h, *lead, last >> _ONE, last & _ONE)
    scalar = arrays[0].ndim == 0
    h, *words, odd = np.atleast_1d(*arrays)
    out = np.empty(h.shape)
    step = max(1, _BLOCK // max(1, math.prod(h.shape[1:])))
    for lo in range(0, len(out), step):
        rows = slice(lo, lo + step)
        _fill(out[rows], h[rows], [w[rows] for w in words], odd[rows])
    return out[0] if scalar else out


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
