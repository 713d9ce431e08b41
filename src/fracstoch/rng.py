"""Deterministic counter-based Gaussian streams.

Every variate is a pure function of (seed, stream label, replicate, key
words k1 ... kj), computed with a splitmix64-style hash.  The replicate
and the key words must be integers (TypeError otherwise), so no float
truncates into another draw's word.  Replicates can
therefore be evaluated in any order, in chunks, or on any number of workers
and the results never change.

Stream v2 pairs cells on the last key word.  The words kj = 2m and 2m + 1
(as uint64, so -4 and -3 pair) share one Box-Muller pair, hashed from
(..., k(j-1), m): component 0 is r cos(theta) and component 1 is
r sin(theta), where the sine is taken from c = cos(theta) as
copysign(sqrt((1 - c)(1 + c)), pi - theta), within 1.1e-8 of sin(theta)
(the worst case is near theta = 0 and pi, where c rounds to +-1).  Where
the last word is the same in every leading row and the other words are
constant along the last axis, one call hashes each distinct m once per row,
in any order and however often it repeats, and each element takes its
component of that pair; in any other layout each element is hashed alone,
with the same bits.

One call is evaluated in blocks of whole leading-axis rows of about 2^16
variates, each hashed in place on a few buffers of its own.  A call of two
or more blocks fills them on up to one thread per CPU the process may use;
the pool starts on the first such call, and a forked child starts its own.
The bits depend neither on the blocking nor on the thread count, and there
is no knob for either.  A :class:`NoiseModel` is a level sigma and a seed;
each operator draws from the stream of the method it calls.
"""

from __future__ import annotations

import math
import numbers
import os
import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NoiseModel",
    "LABEL_CELL_MULTIPLIER",
    "LABEL_WHITE_NOISE",
    "LABEL_FORCING",
    "LABEL_SYNTHETIC",
    "standard_normals",
]

# stream labels keep the lattice, white-noise, forcing and synthetic-field draws disjoint
LABEL_CELL_MULTIPLIER = 0x1D
LABEL_WHITE_NOISE = 0x2E
LABEL_FORCING = 0x3F
LABEL_SYNTHETIC = 0x50

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_LANE1 = np.uint64(0xA5A5A5A5A5A5A5A5)
_LANE2 = np.uint64(0xC3C3C3C3C3C3C3C3)
_ONE = np.uint64(1)
_BLOCK = 1 << 16  # variates per row block


def _u64(a) -> np.ndarray:
    # two's-complement reinterpretation of signed inputs; a float would be
    # truncated into another draw's word, so it is refused, and so is an int
    # outside [-2^63, 2^64), which numpy keeps as an object
    a = np.asarray(a)
    if not np.issubdtype(a.dtype, np.integer):
        raise TypeError(f"counter-RNG words must be integers of 64 bits, got {a.dtype}")
    return a.astype(np.int64).astype(np.uint64)


def _is_int(value) -> bool:
    """An integer other than a bool, which ``numbers.Integral`` also admits."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_count(name: str, value, low: int, bits: int | None = None) -> None:
    """ValueError unless ``value`` is an integer >= low, and < 2**bits if bits is given.

    2.5, NaN and True are refused.
    """
    if not _is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    if bits is not None and value >= 2**bits:
        raise ValueError(f"{name} must be < 2**{bits}, got {value}")


def _check_real(name: str, value) -> None:
    """ValueError unless ``value`` is a real number other than a bool; np.float32 passes."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValueError(f"{name} must be a real number, got {value!r}")


def _mix(z: np.ndarray, tmp: np.ndarray | None = None) -> np.ndarray:
    """splitmix64's finalizer, in place on z with tmp as its scratch.

    Without tmp it works on a copy of z.  Integer ufuncs wrap silently.
    """
    if tmp is None:
        z = np.array(z, dtype=np.uint64)
        tmp = np.empty_like(z)
    z += _GOLDEN
    for shift, mult in ((np.uint64(30), _MIX1), (np.uint64(27), _MIX2)):
        np.right_shift(z, shift, out=tmp)
        z ^= tmp
        z *= mult
    np.right_shift(z, np.uint64(31), out=tmp)
    z ^= tmp
    return z


def _unit(u: np.ndarray, out: np.ndarray) -> np.ndarray:
    # top 53 bits -> (0, 1], written to out; u is consumed
    u >>= np.uint64(11)
    u += _ONE
    return np.multiply(u, 2.0**-53, out=out)


def _box_muller(u1, u2, out):
    """(r cos t, r sin t) from one trig call.

    Near c = +-1 the small factor of (1 - c)(1 + c) is exact, so the sine
    errs only by c's rounding, < 1.1e-8.  It writes z0 and z1 to
    ``out = (z0, z1, spare)`` and overwrites u1 and u2.  Each step is an
    operation of r = sqrt(-2 log u1), theta = 2 pi u2, c = cos theta,
    z0 = r c and z1 = r copysign(sqrt((1 - c)(1 + c)), pi - theta), in
    that order.
    """
    z0, z1, c = out
    r = np.sqrt(np.multiply(np.log(u1, out=u1), -2.0, out=u1), out=u1)
    theta = np.multiply(u2, 2.0 * np.pi, out=u2)
    np.cos(theta, out=c)
    np.multiply(r, c, out=z0)
    np.subtract(1.0, c, out=z1)
    c += 1.0
    z1 *= c
    np.sqrt(z1, out=z1)
    np.copysign(z1, np.subtract(np.pi, theta, out=theta), out=z1)
    z1 *= r
    return z0, z1


def _pair(h: np.ndarray, words) -> np.ndarray:
    """Absorb the key words into the prefix hash h, then one Box-Muller pair.

    Three uint64 buffers of the broadcast shape carry the whole pair: the
    two hash lanes and a scratch.  A buffer whose words are spent is reused,
    viewed as float64, for u1, u2 and the Box-Muller spare.  The pair is
    returned as one array with a last axis of two, (z0, z1).
    """
    shape = np.broadcast_shapes(np.shape(h), *(np.shape(w) for w in words))
    lane1, lane2, tmp = (np.empty(shape, dtype=np.uint64) for _ in range(3))
    lane1[...] = h
    for word in words:
        lane1 ^= word
        _mix(lane1, tmp)
    np.bitwise_xor(lane1, _LANE2, out=lane2)
    lane1 ^= _LANE1
    u1 = _unit(_mix(lane1, tmp), tmp.view(np.float64))
    u2 = _unit(_mix(lane2, lane1), lane1.view(np.float64))
    z = np.empty(shape + (2,))
    _box_muller(u1, u2, (z[..., 0], z[..., 1], lane2.view(np.float64)))
    return z


def _flat(a: np.ndarray, axes) -> bool:
    # a is constant along these axes of its broadcast shape
    return all(a.strides[i] == 0 or a.shape[i] == 1 for i in axes)


def _fill(out: np.ndarray, h: np.ndarray, words, odd: np.ndarray) -> None:
    # one row block, words[-1] the half-words kj >> 1: each distinct pair
    # hashed once per row where the layout allows it, else each element alone
    *lead, last = range(h.ndim)
    if _flat(words[-1], lead) and all(_flat(a, [last]) for a in (h, *words[:-1])):
        row, first = (0,) * len(lead), (..., slice(0, 1))
        half, at = np.unique(words[-1][row], return_inverse=True)
        z = _pair(h[first], [*(w[first] for w in words[:-1]), half])
        # at indexes half, so clip never acts; the default mode would buffer out
        index = 2 * at + odd[row].astype(np.intp)
        np.take(z.reshape(*z.shape[:-2], 2 * half.size), index, axis=-1, out=out, mode="clip")
    else:
        z = _pair(h, words)
        out[...] = np.where(odd == 1, z[..., 1], z[..., 0])


_pool = None  # started by the first multi-block draw on more than one CPU
_pool_lock = threading.Lock()


def _executor():
    """The thread pool that fills row blocks, or None on one CPU."""
    global _pool
    with _pool_lock:
        if _pool is None:
            cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
            if (cpus or 1) > 1:
                from concurrent.futures import ThreadPoolExecutor

                _pool = ThreadPoolExecutor(cpus, thread_name_prefix="fracstoch-rng")
        return _pool


def _drop_pool() -> None:
    # a forked child has none of its parent's threads, and its copy of the
    # lock may have been taken by one of them
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


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
    h = _mix(_u64(seed) ^ _u64(label))
    h = _mix(h ^ _u64(replicate))
    *lead, last = (_u64(key) for key in keys)
    arrays = np.broadcast_arrays(h, *lead, last >> _ONE, last & _ONE)
    scalar = arrays[0].ndim == 0
    h, *words, odd = np.atleast_1d(*arrays)
    out = np.empty(h.shape)
    step = max(1, _BLOCK // max(1, math.prod(h.shape[1:])))

    def fill_block(lo: int) -> None:
        rows = slice(lo, lo + step)
        _fill(out[rows], h[rows], [w[rows] for w in words], odd[rows])

    starts = range(0, len(out), step) if out.size else ()  # else _fill reads row 0 of an empty axis
    if len(starts) > 1 and (pool := _executor()) is not None:
        # each block writes its own rows of out, and numpy's loops drop the GIL
        list(pool.map(fill_block, starts))
    else:
        for lo in starts:
            fill_block(lo)
    return out[0] if scalar else out


@dataclass(frozen=True)
class NoiseModel:
    """Noise intensity, the Ito increment law and the seeded perturbations.

    The lattice operator reads :meth:`cell_multipliers` and the mollifier
    route reads :meth:`white_noise`; the two streams never share a draw.
    Every layer scales a standard Gaussian draw by :meth:`increment_scale`.
    """

    sigma: float = 0.1
    base_seed: int = 42

    def __post_init__(self) -> None:
        _check_real("sigma", self.sigma)
        if not 0 <= self.sigma < math.inf:  # also rejects NaN
            raise ValueError(f"sigma must be nonnegative and finite, got {self.sigma}")
        if not _is_int(self.base_seed):  # as _u64 refuses a float or bool word
            raise TypeError(f"base_seed must be an integer, got {self.base_seed!r}")
        if not 0 <= self.base_seed < 2**64:  # _u64 reads -1 as 2^64 - 1: one stream
            raise ValueError(f"base_seed must fit one 64-bit word, [0, 2**64), got {self.base_seed}")

    def increment_scale(self, measure: float) -> float:
        """Ito law: the increment over a cell of measure |c| has sd sigma sqrt|c|."""
        return self.sigma * math.sqrt(measure)

    def increment_variance(self, measure: float) -> float:
        """sigma^2 |c|; the square of increment_scale may differ in the last bit."""
        return self.sigma**2 * measure

    def cell_multipliers(self, replicate, *k_coords) -> np.ndarray:
        """Standard Gaussians W_k for lattice cells, keyed by coordinates."""
        return standard_normals(self.base_seed, LABEL_CELL_MULTIPLIER, replicate, *k_coords)

    def white_noise(self, replicate, *cell_index) -> np.ndarray:
        """Standard Gaussians for white-noise-measure cell increments."""
        return standard_normals(self.base_seed, LABEL_WHITE_NOISE, replicate, *cell_index)
