"""Counter-based deterministic random numbers.

All randomness in the package flows through a splitmix64-style counter
generator: a 64-bit *stream key* identifies an independent stream and the
n-th variate of a stream is a pure function of (key, n).  This makes
ensembles order- and thread-independent: path i of a run seeded with s
always consumes the stream ``stream_key(s, i)`` regardless of scheduling.

Scalar and vectorized implementations are kept operation-for-operation
identical (same masks, shifts and multiplies), so a scalar replay of a
vectorized kernel reproduces every draw bitwise.
"""

from __future__ import annotations

import bisect
from typing import NamedTuple

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF
GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# uint64 constants for the vectorized path (mixing python ints into uint64
# arrays would upcast to float64).
_U_GAMMA = np.uint64(GAMMA)
_U_MIX1 = np.uint64(_MIX1)
_U_MIX2 = np.uint64(_MIX2)
_U30 = np.uint64(30)
_U27 = np.uint64(27)
_U31 = np.uint64(31)
_U11 = np.uint64(11)

_INV_2_53 = 2.0 ** -53


def mix64(z: int) -> int:
    """Finalizer of splitmix64: bijective 64-bit avalanche mix."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return (z ^ (z >> 31)) & MASK64


def mix64_vec(z: np.ndarray) -> np.ndarray:
    """Vectorized :func:`mix64` on a uint64 array, in place: ``z`` is
    overwritten with its mix and returned.  Arrays of uint64 wrap silently;
    a caller that may pass a NumPy scalar (a 0-d input), whose wrap warns,
    ignores overflow itself."""
    z ^= z >> _U30
    z *= _U_MIX1
    z ^= z >> _U27
    z *= _U_MIX2
    z ^= z >> _U31
    return z


def stream_key(seed: int, path_index: int) -> int:
    """64-bit key of the independent stream for one trajectory."""
    return mix64((mix64(seed) + ((path_index + 1) * GAMMA & MASK64)) & MASK64)


def stream_keys(seed: int, path_indices: np.ndarray) -> np.ndarray:
    """Vectorized :func:`stream_key` for an array of path indices."""
    idx = np.asarray(path_indices, dtype=np.uint64)
    base = np.uint64(mix64(seed))
    with np.errstate(over="ignore"):
        return mix64_vec(base + (idx + np.uint64(1)) * _U_GAMMA)


def uniform(key: int, counter: int) -> float:
    """The counter-th uniform [0,1) variate of a stream: the top 53 bits of
    its counter-th raw 64-bit word."""
    return (mix64((key + ((counter + 1) * GAMMA & MASK64)) & MASK64) >> 11) * _INV_2_53


def uniforms(keys: np.ndarray, counter: int) -> np.ndarray:
    """One uniform [0,1) variate per stream (vectorized over a 1-D array of
    keys): :func:`uniform` at each key, by the same operations, worked in
    place on one temporary word array."""
    return _unit(mix64_vec(keys + np.uint64((counter + 1) * GAMMA & MASK64)))


def uniform_run(key: int, counter: int, n: int) -> np.ndarray:
    """The uniforms of one stream at counters counter, ..., counter + n - 1:
    :func:`uniform` at each counter, by the same operations."""
    counters = np.arange(counter + 1, counter + n + 1, dtype=np.uint64)
    counters *= _U_GAMMA
    return _unit(mix64_vec(np.uint64(key) + counters))


def _unit(raw: np.ndarray) -> np.ndarray:
    """The uniforms [0,1) of raw 64-bit words, their top 53 bits times
    2^-53 (``raw`` is overwritten)."""
    raw >>= _U11
    out = raw.astype(np.float64)
    out *= _INV_2_53
    return out


class RngState(NamedTuple):
    """Explicitly threaded generator state: (stream key, next counter)."""

    key: int
    counter: int


def make_state(seed: int, path_index: int = 0) -> RngState:
    return RngState(stream_key(seed, path_index), 0)


# Builds a state without the NamedTuple's Python-level __new__.
_new_state = tuple.__new__


def next_uniform(state: RngState) -> tuple[float, RngState]:
    """Draw one uniform [0,1) and return it with the advanced state."""
    key, counter = state
    return uniform(key, counter), _new_state(RngState, (key, counter + 1))


def categorical(cum_weights, u) -> "int | np.ndarray":
    """Index of the category whose cumulative-weight cell contains u: the
    first i with u < cum_weights[i], clamped to the last category (the
    cumulative sum may end a rounding below 1).

    Works for a scalar u (returns int) or an array of u's (returns an int
    array).  A float u takes ``bisect_right``, which makes the same float64
    comparisons as the array's ``searchsorted(side="right")`` without a
    NumPy call per draw, so scalar and vectorized sampling agree bitwise;
    it is fastest on a tuple of floats (a problem's ``cum_weights``), where
    no probe boxes a NumPy scalar.
    """
    if isinstance(u, float):
        return min(bisect.bisect_right(cum_weights, u), len(cum_weights) - 1)
    idx = np.searchsorted(cum_weights, u, side="right")
    idx = np.minimum(idx, len(cum_weights) - 1)
    if np.ndim(u) == 0:
        return int(idx)
    return idx
