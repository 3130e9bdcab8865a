import numpy as np
from hypothesis import given, settings, strategies as st

from opcalc.rng import (
    CounterStream, splitmix64, splitmix64_at, uniform01, uniform01_at, uniform01_block,
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
