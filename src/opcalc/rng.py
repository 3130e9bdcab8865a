"""Counter-based pseudo-random numbers for reproducible Monte Carlo.

The generator is splitmix64 used in counter mode: output i is a pure
function of (seed, i), namely the splitmix64 finalizer applied to the state
seed + (i+1)*GAMMA mod 2^64; one finalizer, `mix_in_place`, mixes arrays of
states in place to the top 53 bits k of the uniform k * 2^-53, and
`uniform01_block` is the one array draw built on it.  This matches the
stream produced by the sequential splitmix64 generator seeded with `seed`,
and because each output depends only on its counter, a sample range can be
partitioned into disjoint blocks across workers and merged bit-identically.

Constants are the published splitmix64 parameters (golden-ratio gamma
and the two finalizer multipliers).
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
MIX_MULT_1 = 0xBF58476D1CE4E5B9
MIX_MULT_2 = 0x94D049BB133111EB

_INV_2_53 = 2.0 ** -53


def splitmix64(seed: int, counter: int) -> int:
    """The 64-bit output for a given seed and counter position."""
    z = (seed + (counter + 1) * GAMMA) & MASK64
    z = ((z ^ (z >> 30)) * MIX_MULT_1) & MASK64
    z = ((z ^ (z >> 27)) * MIX_MULT_2) & MASK64
    return z ^ (z >> 31)


def mix_in_place(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """The top 53 bits of the splitmix64 finalizer of the uint64 states z,
    written over z; `scratch` is a uint64 buffer of z's shape."""
    for bits, mult in ((30, MIX_MULT_1), (27, MIX_MULT_2)):
        np.right_shift(z, np.uint64(bits), out=scratch)
        z ^= scratch
        z *= np.uint64(mult)
    np.right_shift(z, np.uint64(42), out=scratch)  # (z ^ z>>31) >> 11
    z >>= np.uint64(11)
    z ^= scratch
    return z


def state_of(seed: int, counter: int) -> np.uint64:
    """The state seed + (counter+1)*GAMMA mod 2^64 that `mix_in_place` mixes."""
    return np.uint64((seed + (counter + 1) * GAMMA) & MASK64)


def uniform01_block(seed: int, start: int, count: int) -> np.ndarray:
    """Uniforms in [0, 1) for the counters start .. start+count-1."""
    z = np.arange(count, dtype=np.uint64) * np.uint64(GAMMA)
    z += state_of(seed, start)
    return mix_in_place(z, np.empty_like(z)) * _INV_2_53


class CounterStream:
    """Convenience sequential reader over the counter-based stream.

    Purely a cursor: the values drawn depend only on (seed, position), so
    two streams with the same seed and positions agree exactly.
    """

    def __init__(self, seed: int, start: int = 0):
        if not 0 <= seed <= MASK64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        self.seed = seed
        self.position = start

    def next_uint64(self) -> int:
        value = splitmix64(self.seed, self.position)
        self.position += 1
        return value

    def next_float(self) -> float:
        return (self.next_uint64() >> 11) * _INV_2_53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.next_float()
