"""Deterministic counter-based random number generator."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from fejerlab import rng
from fejerlab.problems import _cum_weights


def test_uniform_range_and_determinism():
    key = rng.stream_key(12345, 7)
    values = [rng.uniform(key, c) for c in range(1000)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert values == [rng.uniform(key, c) for c in range(1000)]
    assert len(set(values)) > 990  # essentially no collisions


def test_stream_keys_differ_per_path_and_seed():
    keys = {rng.stream_key(1, i) for i in range(100)}
    assert len(keys) == 100
    assert rng.stream_key(1, 0) != rng.stream_key(2, 0)


def test_vector_scalar_agreement():
    seed = 987654321
    idx = np.arange(64, dtype=np.uint64)
    keys = rng.stream_keys(seed, idx)
    scalar_keys = np.array([rng.stream_key(seed, int(i)) for i in idx], dtype=np.uint64)
    assert np.array_equal(keys, scalar_keys)
    for counter in (0, 1, 17):
        vec = rng.uniforms(keys, counter)
        scal = np.array([rng.uniform(int(k), counter) for k in keys])
        assert np.array_equal(vec, scal)


def test_state_advances_counter():
    state = rng.make_state(42, path_index=3)
    u1, state2 = rng.next_uniform(state)
    u2, state3 = rng.next_uniform(state2)
    assert state2.counter == state.counter + 1
    assert state3.counter == state.counter + 2
    assert u1 != u2
    # replay from the same state gives the same draw
    assert rng.next_uniform(state)[0] == u1


def test_categorical_scalar_and_vector():
    cum = np.array([0.2, 0.5, 1.0])
    assert rng.categorical(cum, 0.0) == 0
    assert rng.categorical(cum, 0.19) == 0
    assert rng.categorical(cum, 0.2) == 1
    assert rng.categorical(cum, 0.999) == 2
    u = np.array([0.0, 0.19, 0.2, 0.49, 0.5, 0.999])
    assert rng.categorical(cum, u).tolist() == [0, 0, 1, 1, 2, 2]


# The largest uniform the generator yields: (2^53 - 1) 2^-53.
_TOP_UNIFORM = 1.0 - 2.0 ** -53


@pytest.mark.parametrize(
    "weights", [(1.0,), (0.6, 0.2, 0.2), (0.25, 0.5, 0.25), (0.2, 0.3, 0.5), (0.1,) * 10]
)
def test_scalar_categorical_matches_the_array_branch_bit_for_bit(weights):
    """A float u bisects; an array of u's takes searchsorted.  They agree at
    0, on every cumulative weight exactly (the cell boundary, where side
    "right" matters), just below each, and at the largest uniform."""
    cum = np.cumsum(np.asarray(weights, dtype=np.float64))
    us = [0.0, _TOP_UNIFORM]
    for c in cum:
        us += [float(c), float(np.nextafter(c, 0.0))]
    expected = rng.categorical(cum, np.array(us))
    for u, i in zip(us, expected.tolist()):
        for scalar in (u, np.float64(u)):
            j = rng.categorical(cum, scalar)
            assert type(j) is int and j == i, (weights, u)


@pytest.mark.parametrize(
    "weights", [(1.0,), (0.6, 0.2, 0.2), (0.25, 0.5, 0.25), (0.2, 0.3, 0.5), (0.1,) * 10]
)
def test_categorical_on_a_tuple_matches_searchsorted(weights):
    """A problem keeps its cumulative weights as a tuple of floats, which a
    float u bisects; NumPy's searchsorted on the array, clamped, is the
    reference at 0, on and beside each cumulative weight, and at the largest
    uniform (past the last weight when they sum below 1)."""
    cum = np.cumsum(np.asarray(weights, dtype=np.float64))
    table = _cum_weights(weights)
    assert type(table) is tuple and table == tuple(cum.tolist())
    us = [0.0, _TOP_UNIFORM]
    for c in cum:
        us += [float(c), float(np.nextafter(c, 0.0)), float(np.nextafter(c, 1.0))]
    us = [u for u in us if u <= _TOP_UNIFORM]
    expected = np.minimum(np.searchsorted(cum, us, side="right"), len(cum) - 1).tolist()
    for u, i in zip(us, expected):
        j = rng.categorical(table, u)
        assert type(j) is int and j == i, (weights, u)
    assert rng.categorical(table, np.array(us)).tolist() == expected


def test_next_uniform_returns_a_state():
    state = rng.make_state(5, 3)
    u, after = rng.next_uniform(state)
    assert type(after) is rng.RngState and after == rng.RngState(state.key, 1)
    assert (after.key, after.counter) == (state.key, 1)
    assert u == rng.uniform(state.key, 0)


def test_categorical_clamps_when_the_weights_sum_below_one():
    cum = np.cumsum(np.full(10, 0.1))
    assert cum[-1] < 1.0 and cum[-1] == _TOP_UNIFORM
    # side "right" puts u = cum[-1] past the last cell; the clamp keeps it.
    assert rng.categorical(cum, _TOP_UNIFORM) == 9
    assert rng.categorical(cum, np.array([_TOP_UNIFORM])).tolist() == [9]
    assert rng.categorical(cum, float(cum[4])) == 5


def test_categorical_frequencies_roughly_match_weights():
    cum = np.array([0.25, 0.75, 1.0])
    keys = rng.stream_keys(2024, np.arange(40_000))
    u = rng.uniforms(keys, 0)
    idx = rng.categorical(cum, u)
    freq = np.bincount(idx, minlength=3) / len(idx)
    # 3 standard errors of a Bernoulli proportion at n = 40000
    for f, p in zip(freq, (0.25, 0.5, 0.25)):
        assert abs(f - p) <= 3.0 * np.sqrt(p * (1 - p) / len(idx))


def test_mix64_is_a_bijection_sample():
    seen = {rng.mix64(z) for z in range(4096)}
    assert len(seen) == 4096
    vec = rng.mix64_vec(np.arange(4096, dtype=np.uint64))
    assert {int(v) for v in vec} == seen


@pytest.mark.parametrize("key", [0, 2**64 - 1, 0x5DEECE66D2B7E151])
def test_uniform_run_equals_repeated_next_uniform(key):
    state = rng.RngState(key, 1_000_003)
    expected = []
    for _ in range(257):
        u, state = rng.next_uniform(state)
        expected.append(u)
    run = rng.uniform_run(key, 1_000_003, 257)
    assert run.dtype == np.float64 and run.tolist() == expected
    assert rng.uniform_run(key, 5, 0).shape == (0,)


def test_vector_draws_wrap_two_to_the_64_silently_and_bit_for_bit():
    # Keys near 2^64 - 1 and counters from 2^63 on wrap every add and
    # multiply of the draw; arrays of uint64 wrap without a warning.
    keys = np.array([2**64 - 1 - i for i in range(4)] + [0, 1, 2**63], dtype=np.uint64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for counter in (0, 2**63, 2**64 - 2):
            vec = rng.uniforms(keys, counter)
            scal = np.array([rng.uniform(int(k), counter) for k in keys])
            assert np.array_equal(vec.view(np.uint64), scal.view(np.uint64))
        run = rng.uniform_run(2**64 - 1, 2**63, 5)
        scal = np.array([rng.uniform(2**64 - 1, 2**63 + i) for i in range(5)])
        assert np.array_equal(run.view(np.uint64), scal.view(np.uint64))
        # A 0-d index takes NumPy's scalar arithmetic, whose wrap would warn.
        for index in (3, np.uint64(2**64 - 2)):
            assert int(rng.stream_keys(7, index)) == rng.stream_key(7, int(index))
