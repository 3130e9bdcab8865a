"""Ordered-simplex volumes: closed form, Monte Carlo, the n!-orderings
tiling of the cube, and the sliced evaluation of the Taylor remainder.

The region of the n-fold iterated integral is the order cell
{a <= t_n <= ... <= t_1 <= x}, one of n! congruent cells tiling the cube
[a, x]^n, so its volume is (x-a)^n/n!.  Monte Carlo estimates here sample
the unit cube with the counter-based generator from `rng`, which makes
every figure bit-reproducible from (seed, sample index) alone; samples
with duplicate coordinates (the measure-zero cell boundaries) are
discarded and counted, never tie-broken.  The tiling check sorts no
row: it compares the n(n-1)/2 coordinate pairs, indexes a sample's cell by
the Lehmer rank that the pairwise "less than" counts spell out, and audits
exactly-once membership row by row: a row lies in exactly one of the n!
non-strict chain cells iff its counts of smaller coordinates are a
permutation of 0..n-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .funcspace import (
    DEFAULT_QUAD_CONFIG, QuadratureConfig, from_expr, integrate_many, span_interval,
)
from .rng import GAMMA, MASK64, mix_in_place, state_of

if TYPE_CHECKING:
    from .taylor import TaylorExpansion

_CHUNK_SAMPLES = 1 << 15  # 256 KiB per uint64 buffer, well inside L2

PARTITION_DIMENSIONS = range(2, 7)  # the n the partition check runs at

CHI_SQUARE_CONFIDENCE = 0.999

MIN_EXPECTED_PER_CELL = 5  # Cochran's rule: the chi-square test needs this many


@dataclass(frozen=True)
class SimplexSpec:
    """The order cell {a <= t_n <= ... <= t_1 <= x} in dimension n."""

    dimension: int
    a: float
    x: float

    def __post_init__(self):
        if not 1 <= self.dimension <= 12:
            raise ValueError("dimension must be in 1..12")
        if not self.x > self.a:
            raise ValueError("requires x > a")
        cell = f"n={self.dimension}, a={self.a!r}, x={self.x!r}"
        try:
            volume = simplex_volume_exact(self)
        except OverflowError:
            volume = math.inf
        if not math.isfinite(volume):
            raise ValueError(f"cell too large: (x-a)^n is not a finite float at {cell}")
        if volume == 0.0:
            raise ValueError(f"cell too small: (x-a)^n/n! underflows to 0 at {cell}")


@dataclass(frozen=True)
class MonteCarloConfig:
    samples: int
    seed: int

    def __post_init__(self):
        if not 1 <= self.samples <= 1_000_000_000:
            raise ValueError("samples must be in 1..1e9")
        if not 0 <= self.seed < (1 << 64):
            raise ValueError("seed must be a 64-bit unsigned integer")


class MonteCarloVolume(NamedTuple):
    estimate: float
    std_error: float


@dataclass(frozen=True)
class PartitionReport:
    """Outcome of classifying cube samples into the n! order cells."""

    dimension: int
    total_samples: int
    classified: int
    discarded_duplicates: int
    cell_counts: tuple[int, ...]       # aligned with sorted permutations
    chi_square: float
    chi_square_threshold: float
    max_cell_z: float
    all_exactly_once: bool
    tiled: bool    # every sample tallied, in exactly one cell, max_cell_z <= 5
    passed: bool   # tiled, and the chi-square test accepts equal cells


def cochran_samples(n: int) -> int:
    """The fewest samples the chi-square test over n! cells needs by Cochran's rule."""
    return MIN_EXPECTED_PER_CELL * math.factorial(n)


def simplex_volume_exact(s: SimplexSpec) -> float:
    """(x-a)^n / n!, the cube volume split evenly over the n! orderings."""
    return (s.x - s.a) ** s.dimension / math.factorial(s.dimension)


def simplex_volume_montecarlo(s: SimplexSpec, cfg: MonteCarloConfig) -> MonteCarloVolume:
    """Unbiased estimate of the cell volume from uniform cube samples.

    Deterministic given the seed, and chunk-partitioning invariant: sample
    i is a pure function of (seed, i), and only integer hit counts are
    merged across chunks.  Coordinate j of sample i is counter i*n + j,
    drawn only while coordinates 0..j-1 are non-increasing (column 0 holds
    t_1, the largest), so a sample costs about e draws instead of n.  Draws
    are compared as their 53-bit integers, in buffers allocated once.
    """
    n = s.dimension
    ramp = np.arange(min(_CHUNK_SAMPLES, cfg.samples), dtype=np.uint64)
    ramp *= np.uint64(n * GAMMA & MASK64)  # ramp[i] + state of counter c = state of c + i*n
    state, kept, prev, cur, scratch = (np.empty_like(ramp) for _ in range(5))
    hits = 0
    for first in range(0, cfg.samples, ramp.size):
        k = min(ramp.size, cfg.samples - first)
        np.add(ramp[:k], state_of(cfg.seed, first * n), out=state[:k])  # coordinate 0
        prev[:k] = state[:k]
        mix_in_place(prev[:k], scratch[:k])
        for j in range(1, n):  # coordinate j's state is coordinate 0's plus j*GAMMA
            np.add(state[:k], np.uint64(j * GAMMA & MASK64), out=cur[:k])
            mix_in_place(cur[:k], scratch[:k])
            alive = np.flatnonzero(prev[:k] >= cur[:k])
            k = alive.size
            np.take(state, alive, out=kept[:k], mode="clip")
            np.take(cur, alive, out=prev[:k], mode="clip")
            state, kept = kept, state
        hits += k
    p = hits / cfg.samples
    scale = (s.x - s.a) ** n
    return MonteCarloVolume(
        estimate=scale * p,
        std_error=scale * math.sqrt(p * (1.0 - p) / cfg.samples),
    )


# ---------------------------------------------------------------------------
# Tiling check
# ---------------------------------------------------------------------------

def partition_counts(u: np.ndarray) -> tuple[np.ndarray, int, bool]:
    """Classify the rows of a float sample matrix into order cells."""
    return _classify_columns(np.asarray(u, dtype=float).T)


def _classify_columns(cols: np.ndarray) -> tuple[np.ndarray, int, bool]:
    """Classify the samples whose coordinate j is row cols[j] into order
    cells: returns (counts aligned with sorted permutations, number of
    discarded duplicate-coordinate samples, exclusivity flag).  No sample is
    sorted: one pass over the n(n-1)/2 row pairs counts below_k =
    #{j : u_j < u_k} and digit_k = #{j < k : u_j < u_k}; an `==` pair marks
    a duplicate.  A kept sample's cell is sum_k digit_k * below_k!, the
    Lehmer rank of its descending argsort (u_k sits at position
    n-1-below_k, with Lehmer digit digit_k), its index among the sorted
    permutations.  The flag audits every sample: it satisfies exactly one
    of the n! non-strict chain predicates iff its below counts are a
    permutation of 0..n-1, which must hold for precisely the samples kept.
    """
    n, m = cols.shape
    below = np.zeros((n, m), dtype=np.uint8)
    digit = np.zeros((n, m), dtype=np.uint8)
    dup = np.zeros(m, dtype=bool)
    for k in range(1, n):
        for j in range(k):
            digit[k] += cols[j] < cols[k]
            below[j] += cols[k] < cols[j]
            dup |= cols[j] == cols[k]
    below += digit

    # ranks stay below 6! and the audit's bits below 2**6
    weight = np.array([math.factorial(i) for i in range(n)], dtype=np.uint16)
    rank = np.zeros(m, dtype=np.uint16)
    seen = np.zeros(m, dtype=np.uint8)
    for k in range(n):
        rank += digit[k] * weight[below[k]]
        seen |= np.left_shift(np.uint8(1), below[k])
    exactly_once = bool(np.array_equal(seen == (1 << n) - 1, ~dup))
    counts = np.bincount(rank[~dup], minlength=math.factorial(n)).astype(np.int64)
    return counts, int(dup.sum()), exactly_once


def chi_square_threshold(cells: int) -> float:
    """chi2.ppf(CHI_SQUARE_CONFIDENCE, cells-1), without scipy.stats' ~1 s import."""
    from scipy.special import gammaincinv
    return float(2.0 * gammaincinv((cells - 1) / 2, CHI_SQUARE_CONFIDENCE))


def ordering_partition_check(n: int, cfg: MonteCarloConfig) -> PartitionReport:
    """Sample the unit cube and verify the n! order cells tile it evenly."""
    if n not in PARTITION_DIMENSIONS:
        raise ValueError(f"partition check supports {PARTITION_DIMENSIONS[0]} "
                         f"<= n <= {PARTITION_DIMENSIONS[-1]}")
    cells = math.factorial(n)
    counts = np.zeros(cells, dtype=np.int64)
    discarded = 0
    exactly_once = True
    ramp = np.arange(min(_CHUNK_SAMPLES, cfg.samples), dtype=np.uint64)
    ramp *= np.uint64(n * GAMMA & MASK64)
    block = np.empty((n, ramp.size), dtype=np.uint64)  # coordinate j in row j
    scratch = np.empty_like(ramp)
    for first in range(0, cfg.samples, ramp.size):
        m = min(ramp.size, cfg.samples - first)
        for j in range(n):
            np.add(ramp[:m], state_of(cfg.seed, first * n + j), out=block[j, :m])
            mix_in_place(block[j, :m], scratch[:m])
        c, d, ok = _classify_columns(block[:, :m])
        counts += c
        discarded += d
        exactly_once = exactly_once and ok

    classified = int(counts.sum())
    p = 1.0 / cells
    expected = classified * p
    if classified > 0:
        chi_stat = float(((counts - expected) ** 2 / expected).sum())
        sigma = math.sqrt(p * (1.0 - p) / classified)
        max_z = float(np.max(np.abs(counts / classified - p)) / sigma)
    else:
        chi_stat = math.inf
        max_z = math.inf
    threshold = chi_square_threshold(cells)
    tiled = exactly_once and classified + discarded == cfg.samples and max_z <= 5.0
    return PartitionReport(
        dimension=n,
        total_samples=cfg.samples,
        classified=classified,
        discarded_duplicates=discarded,
        cell_counts=tuple(int(c) for c in counts),
        chi_square=chi_stat,
        chi_square_threshold=threshold,
        max_cell_z=max_z,
        all_exactly_once=exactly_once,
        tiled=tiled,
        passed=tiled and chi_stat <= threshold,
    )


# ---------------------------------------------------------------------------
# Sliced remainder route
# ---------------------------------------------------------------------------

def sliced_simplex_volume(order: int, t: float, a: float, x: float) -> float:
    """Volume (x-t)^order/order! of the slice {t <= t_N <= ... <= t_1 <= x}."""
    if order < 0:
        raise ValueError("order must be >= 0")
    if not a <= t <= x:
        raise ValueError(f"slice position requires a <= t <= x, got a={a}, t={t}, x={x}")
    return (x - t) ** order / math.factorial(order)


def remainder_by_slicing(t: TaylorExpansion, x,
                         cfg: QuadratureConfig = DEFAULT_QUAD_CONFIG):
    """Remainder of the expansion t at x as the integral of f^(N+1)(s)
    times the volume of the simplex slice with floor s, one weighted
    funcspace.integrate_many call for every point.  x may be an array; a
    scalar returns a float."""
    a = t.base
    order = t.order
    scale = math.factorial(order)

    def volumes(xs: np.ndarray, ts: np.ndarray) -> np.ndarray:
        # the slice with floor s has volume |x-s|^N/N!; for x < a it is the
        # mirrored slice {x <= t_N <= ... <= t_1 <= s}, and (x-s)^N = (-1)^N |x-s|^N.
        # Python float powers, as `sliced_simplex_volume` takes them: numpy's
        # power moves last bits from order 2 on
        vols = np.array([abs(p - s) ** order for p, s in zip(xs.tolist(), ts.tolist())])
        return np.where(xs > a, 1.0, (-1.0) ** order) * (vols / scale)

    deriv = from_expr(t.derivative_exprs[-1], span_interval(a, x),
                      f"sliced remainder integrand N={order}")
    values = integrate_many(deriv, a, np.atleast_1d(x), cfg, volumes)
    return values if np.ndim(x) else float(values[0])
