import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opcalc.rng import (
    GAMMA, MASK64, CounterStream, mix_in_place, splitmix64, state_of, uniform01_block,
)

# Published splitmix64 stream for seed 0 (first three sequential outputs).
SEED0_VECTOR = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def uniform01(seed, counter):
    """The scalar reference: the uniform built from the top 53 bits."""
    return (splitmix64(seed, counter) >> 11) * 2.0 ** -53


def mixed_at(seed, counters):
    """mix_in_place over the states of any array of counters."""
    z = np.asarray(counters, dtype=np.uint64) * np.uint64(GAMMA)  # a copy
    z += state_of(seed, 0)
    return mix_in_place(z, np.empty_like(z))


def test_known_answer_seed_zero():
    assert [splitmix64(0, i) for i in range(3)] == SEED0_VECTOR


def test_block_matches_scalar():
    top = mixed_at(12345, np.arange(200))
    for i in range(200):
        assert int(top[i]) == splitmix64(12345, i) >> 11


def test_uniforms_in_unit_interval():
    us = uniform01_block(7, 0, 10_000)
    assert us.min() >= 0.0
    assert us.max() < 1.0
    assert abs(us.mean() - 0.5) < 0.02


def test_uniform_block_matches_scalar():
    us = uniform01_block(99, 50, 64)
    for k in range(64):
        assert float(us[k]) == uniform01(99, 50 + k)
    assert uniform01_block(99, 50, 0).size == 0


@given(
    seed=st.integers(min_value=0, max_value=(1 << 64) - 1),
    start=st.integers(min_value=0, max_value=1 << 40),
    count=st.integers(min_value=1, max_value=257),
    split=st.integers(min_value=0, max_value=257),
)
@settings(max_examples=100, deadline=None)
def test_block_splitting_is_bit_identical(seed, start, count, split):
    split = min(split, count)
    whole = uniform01_block(seed, start, count)
    left = uniform01_block(seed, start, split)
    right = uniform01_block(seed, start + split, count - split)
    assert whole.tobytes() == np.concatenate([left, right]).tobytes()


@given(
    seed=st.integers(min_value=0, max_value=(1 << 64) - 1),
    start=st.integers(min_value=0, max_value=1 << 40),
    count=st.integers(min_value=0, max_value=257),
)
@settings(max_examples=100, deadline=None)
def test_counter_draws_equal_block_draws(seed, start, count):
    block = uniform01_block(seed, start, count)
    assert (mixed_at(seed, np.arange(start, start + count)) * 2.0 ** -53).tobytes() \
        == block.tobytes()
    # any subset of counters, in any order, mixes to the same values
    picked = np.arange(start, start + count)[::-3]
    assert (mixed_at(seed, picked) * 2.0 ** -53).tobytes() == block[::-3].tobytes()
    if count:
        assert float(block[-1]) == uniform01(seed, start + count - 1)


def test_stream_cursor_matches_block():
    stream = CounterStream(seed=42)
    drawn = [stream.next_float() for _ in range(16)]
    assert drawn == uniform01_block(42, 0, 16).tolist()
    assert stream.position == 16
    later = CounterStream(seed=42, start=1 << 40)
    assert later.next_uint64() >> 11 == int(mixed_at(42, [1 << 40])[0])


def test_distinct_seeds_give_distinct_streams():
    a = uniform01_block(1, 0, 32)
    b = uniform01_block(2, 0, 32)
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
        expected = [splitmix64(seed, (first + i) * n + j) >> 11 for i in range(count)]
        top = mix_in_place(ramp + state_of(seed, first * n + j), scratch)
        assert [int(v) for v in top] == expected


def test_state_of_is_the_scalar_state():
    for seed, counter in ((0, 0), (2024, 17), ((1 << 64) - 1, 1 << 50)):
        assert int(state_of(seed, counter)) == (seed + (counter + 1) * GAMMA) & MASK64


@pytest.mark.parametrize("seed, digests", [
    (0, ("8e7fc5cebcd73649", "71741c17b4dac14c", "d07ca7802235d611")),
    (2024, ("7d4e39c34dd97e83", "a6b1f8633f60fa0c", "00fbf922678c7845")),
    ((1 << 64) - 1, ("2085eb2f2e909560", "4b3e1bb326f1b5a9", "a2b01c2bfa88615f")),
])
def test_array_wrappers_keep_their_bits(seed, digests):
    # sha256 prefixes, pinned from the implementation that finalized each
    # array with fresh temporaries, of: the 64-bit outputs at spread
    # counters (now from the scalar reference), their uniforms (now from
    # mix_in_place), and a uniform01_block
    counters = np.arange(3000, dtype=np.uint64) * np.uint64(7919) + np.uint64(1 << 40)
    outputs = (np.array([splitmix64(seed, c) for c in counters.tolist()], dtype=np.uint64),
               mixed_at(seed, counters) * 2.0 ** -53,
               uniform01_block(seed, 5, 3000))
    assert tuple(hashlib.sha256(out.tobytes()).hexdigest()[:16]
                 for out in outputs) == digests
