"""Counter-based pseudo-random numbers for reproducible Monte Carlo.

The generator is splitmix64 used in counter mode: output i is a pure
function of (seed, i), namely the splitmix64 finalizer applied to
seed + (i+1)*GAMMA mod 2^64.  This matches the stream produced by the
sequential splitmix64 generator seeded with `seed`, and because each
output depends only on its counter, a sample range can be partitioned
into disjoint blocks across workers and merged bit-identically.

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


def uniform01(seed: int, counter: int) -> float:
    """Uniform double in [0, 1) built from the top 53 bits."""
    return (splitmix64(seed, counter) >> 11) * _INV_2_53


def splitmix64_at(seed: int, counters) -> np.ndarray:
    """Vectorized outputs (uint64) for an array of counter positions."""
    z = np.asarray(counters, dtype=np.uint64) + np.uint64(1)   # a copy: counters stay intact
    z *= np.uint64(GAMMA)
    z += np.uint64(seed)
    z ^= z >> np.uint64(30)
    z *= np.uint64(MIX_MULT_1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(MIX_MULT_2)
    z ^= z >> np.uint64(31)
    return z


def uniform01_at(seed: int, counters) -> np.ndarray:
    """Vectorized uniforms in [0, 1) for any array of counter positions."""
    return (splitmix64_at(seed, counters) >> np.uint64(11)) * _INV_2_53


def uniform01_block(seed: int, start: int, count: int) -> np.ndarray:
    """Vectorized uniforms in [0, 1) for a counter range."""
    return uniform01_at(seed, np.arange(start, start + count, dtype=np.uint64))


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
