"""Ordered-simplex volumes: closed form, Monte Carlo, the n!-orderings
tiling of the cube, and the sliced evaluation of the Taylor remainder.

The region of the n-fold iterated integral is the order cell
{a <= t_n <= ... <= t_1 <= x}, one of n! congruent cells tiling the cube
[a, x]^n, so its volume is (x-a)^n/n!.  Monte Carlo estimates here sample
the unit cube with the counter-based generator from `rng`, which makes
every figure bit-reproducible from (seed, sample index) alone; samples
with duplicate coordinates (the measure-zero cell boundaries) are
discarded and counted, never tie-broken.  The tiling check indexes a
sample's cell by the Lehmer rank of its descending argsort, and audits
exactly-once membership row by row: a row lies in exactly one of the n!
non-strict chain cells iff it is strictly decreasing in argsort order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .expr import evaluate_array
from .funcspace import (
    DEFAULT_QUAD_CONFIG, QuadratureConfig, from_callable, integrate, span_interval,
)
from .rng import uniform01_at, uniform01_block

if TYPE_CHECKING:
    from .taylor import TaylorExpansion

_CHUNK_SAMPLES = 1 << 18

PARTITION_DIMENSIONS = range(2, 7)  # the n the partition check runs at

CHI_SQUARE_CONFIDENCE = 0.999


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
    passed: bool


def simplex_volume_exact(s: SimplexSpec) -> float:
    """(x-a)^n / n!, the cube volume split evenly over the n! orderings."""
    return (s.x - s.a) ** s.dimension / math.factorial(s.dimension)


def simplex_volume_montecarlo(s: SimplexSpec, cfg: MonteCarloConfig) -> MonteCarloVolume:
    """Unbiased estimate of the cell volume from uniform cube samples.

    Deterministic given the seed, and chunk-partitioning invariant: sample
    i is a pure function of (seed, i), and only integer hit counts are
    merged across chunks.  Coordinate j of sample i is counter i*n + j,
    drawn only while coordinates 0..j-1 are non-increasing (column 0 holds
    t_1, the largest), so a sample costs about e draws instead of n.
    """
    n = s.dimension
    hits = 0
    done = 0
    while done < cfg.samples:
        m = min(_CHUNK_SAMPLES, cfg.samples - done)
        counters = np.arange(done, done + m, dtype=np.uint64) * np.uint64(n)
        prev = uniform01_at(cfg.seed, counters)
        for j in range(1, n):
            cur = uniform01_at(cfg.seed, counters + j)
            alive = np.flatnonzero(prev >= cur)
            counters, prev = counters[alive], cur[alive]
        hits += counters.size
        done += m
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
    """Classify the rows of a sample matrix into order cells.

    Returns (counts aligned with sorted permutations, number of discarded
    duplicate-coordinate rows, exclusivity flag).  A kept row's cell is the
    Lehmer rank of its descending argsort p, sum_i #{j > i : p[j] < p[i]} *
    (n-1-i)!, which is p's index among the sorted permutations.  The flag
    audits every row in O(n): in argsort order it is strictly decreasing
    iff it satisfies exactly one of the n! non-strict chain predicates, and
    that must hold for precisely the rows the `np.sort` duplicate test keeps.
    """
    u = np.asarray(u, dtype=float)
    n = u.shape[1]
    srt = np.sort(u, axis=1)
    dup = np.any(srt[:, 1:] == srt[:, :-1], axis=1)
    del srt
    order = np.argsort(-u, axis=1, kind="stable")
    chain = np.take_along_axis(u, order, axis=1)
    strict = np.all(chain[:, :-1] > chain[:, 1:], axis=1)
    exactly_once = bool(np.array_equal(strict, ~dup))
    del chain

    # one contiguous row per argsort position; positions below 128 fit in int8
    kept = np.ascontiguousarray(order[~dup].T, dtype=np.int8)
    rank = np.zeros(kept.shape[1], dtype=np.int64)
    for i in range(n - 1):
        later_smaller = np.count_nonzero(kept[i + 1:] < kept[i], axis=0)
        rank += later_smaller * math.factorial(n - 1 - i)
    counts = np.bincount(rank, minlength=math.factorial(n)).astype(np.int64)
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
    done = 0
    while done < cfg.samples:
        m = min(_CHUNK_SAMPLES, cfg.samples - done)
        u = uniform01_block(cfg.seed, done * n, m * n).reshape(m, n)
        c, d, ok = partition_counts(u)
        counts += c
        discarded += d
        exactly_once = exactly_once and ok
        done += m

    classified = int(counts.sum())
    tally_ok = classified + discarded == cfg.samples
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
    passed = (exactly_once and tally_ok and chi_stat <= threshold and max_z <= 5.0)
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
        passed=passed,
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


def remainder_by_slicing(t: TaylorExpansion, x: float,
                         cfg: QuadratureConfig = DEFAULT_QUAD_CONFIG) -> float:
    """Remainder of the expansion t at x as the integral of f^(N+1)(s)
    times the volume of the simplex slice with floor s; a third independent
    remainder route."""
    a = t.base
    order = t.order
    x = float(x)
    if x == a:
        return 0.0
    deriv = t.derivative_exprs[-1]

    if x > a:
        sign, volume = 1.0, lambda s: sliced_simplex_volume(order, s, a, x)
    else:
        # mirrored slice: (x-s)^N = (-1)^N * Vol{x <= t_N <= ... <= t_1 <= s}
        sign, volume = (-1.0) ** order, lambda s: sliced_simplex_volume(order, x, x, s)

    def kernel(ts: np.ndarray) -> np.ndarray:
        vols = np.array([volume(float(s)) for s in ts])
        return sign * evaluate_array(deriv, ts) * vols

    integrand = from_callable(kernel, span_interval(a, x),
                              f"sliced remainder integrand N={order}")
    return integrate(integrand, a, x, cfg)
