import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opcalc.rng import (
    GAMMA, MASK64, CounterStream, mix_in_place, splitmix64, splitmix64_at, state_of,
    uniform01, uniform01_at, uniform01_block,
)

# Published splitmix64 stream for seed 0 (first three sequential outputs).
SEED0_VECTOR = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_known_answer_seed_zero():
    assert [splitmix64(0, i) for i in range(3)] == SEED0_VECTOR


def test_block_matches_scalar():
    block = splitmix64_at(12345, np.arange(200))
    for i in range(200):
        assert int(block[i]) == splitmix64(12345, i)


def test_uniforms_in_unit_interval():
    us = uniform01_block(7, 0, 10_000)
    assert us.min() >= 0.0
    assert us.max() < 1.0
    assert abs(us.mean() - 0.5) < 0.02


def test_uniform_block_matches_scalar():
    us = uniform01_block(99, 50, 64)
    for k in range(64):
        assert float(us[k]) == uniform01(99, 50 + k)


@given(
    seed=st.integers(min_value=0, max_value=(1 << 64) - 1),
    start=st.integers(min_value=0, max_value=1 << 40),
    count=st.integers(min_value=1, max_value=257),
    split=st.integers(min_value=0, max_value=257),
)
@settings(max_examples=100, deadline=None)
def test_block_splitting_is_bit_identical(seed, start, count, split):
    split = min(split, count)
    whole = splitmix64_at(seed, np.arange(start, start + count))
    left = splitmix64_at(seed, np.arange(start, start + split))
    right = splitmix64_at(seed, np.arange(start + split, start + count))
    assert np.array_equal(whole, np.concatenate([left, right]))


@given(
    seed=st.integers(min_value=0, max_value=(1 << 64) - 1),
    start=st.integers(min_value=0, max_value=1 << 40),
    count=st.integers(min_value=0, max_value=257),
)
@settings(max_examples=100, deadline=None)
def test_counter_draws_equal_block_draws(seed, start, count):
    at = uniform01_at(seed, np.arange(start, start + count))
    block = uniform01_block(seed, start, count)
    assert at.tobytes() == block.tobytes()
    # any subset of counters, in any order, draws the same values
    picked = np.arange(start, start + count)[::-3]
    assert uniform01_at(seed, picked).tobytes() == block[::-3].tobytes()


def test_stream_cursor_matches_block():
    stream = CounterStream(seed=42)
    drawn = [stream.next_uint64() for _ in range(16)]
    assert drawn == list(int(v) for v in splitmix64_at(42, np.arange(16)))
    assert stream.position == 16


def test_distinct_seeds_give_distinct_streams():
    a = splitmix64_at(1, np.arange(32))
    b = splitmix64_at(2, np.arange(32))
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("seed", [0, 2024, (1 << 64) - 1])
@pytest.mark.parametrize("n", range(1, 13))
def test_in_place_finalizer_equals_scalar_at_matrix_counters(seed, n):
    # states of counters i*n + j as the kernels build them: a ramp of
    # i*(n*GAMMA) plus the state of counter first*n + j; i*n*GAMMA wraps mod 2^64
    first, count = (1 << 40) + 3, 40
    ramp = np.arange(count, dtype=np.uint64) * np.uint64(n * GAMMA & MASK64)
    scratch = np.empty_like(ramp)
    assert first * n * GAMMA > MASK64
    for j in range(n):
        expected = [splitmix64(seed, (first + i) * n + j) for i in range(count)]
        full = mix_in_place(ramp + state_of(seed, first * n + j), scratch, shift=0)
        assert [int(v) for v in full] == expected
        top = mix_in_place(ramp + state_of(seed, first * n + j), scratch)
        assert [int(v) for v in top] == [v >> 11 for v in expected]


def test_state_of_is_the_scalar_state():
    for seed, counter in ((0, 0), (2024, 17), ((1 << 64) - 1, 1 << 50)):
        assert int(state_of(seed, counter)) == (seed + (counter + 1) * GAMMA) & MASK64


@pytest.mark.parametrize("seed, digests", [
    (0, ("8e7fc5cebcd73649", "71741c17b4dac14c", "d07ca7802235d611")),
    (2024, ("7d4e39c34dd97e83", "a6b1f8633f60fa0c", "00fbf922678c7845")),
    ((1 << 64) - 1, ("2085eb2f2e909560", "4b3e1bb326f1b5a9", "a2b01c2bfa88615f")),
])
def test_array_wrappers_keep_their_bits(seed, digests):
    # sha256 prefixes of the outputs of the three array draws, pinned from
    # the implementation that finalized each array with fresh temporaries
    counters = np.arange(3000, dtype=np.uint64) * np.uint64(7919) + np.uint64(1 << 40)
    outputs = (splitmix64_at(seed, counters), uniform01_at(seed, counters),
               uniform01_block(seed, 5, 3000))
    assert tuple(hashlib.sha256(out.tobytes()).hexdigest()[:16]
                 for out in outputs) == digests
