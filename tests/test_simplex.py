import dataclasses
import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opcalc import simplex as sx
from opcalc.expr import evaluate_array, parse
from opcalc.funcspace import from_callable, integrate
from opcalc.simplex import (
    CHI_SQUARE_CONFIDENCE, PARTITION_DIMENSIONS, MonteCarloConfig, SimplexSpec,
    chi_square_threshold, ordering_partition_check, partition_counts, remainder_by_slicing,
    simplex_volume_exact, simplex_volume_montecarlo, sliced_simplex_volume,
)
from opcalc.rng import uniform01_block
from opcalc.taylor import expand, remainder_exact


# ---------------------------------------------------------------------------
# brute-force references for the tiling check
# ---------------------------------------------------------------------------

def order_cell_key(coords):
    """Permutation key of the (unique) order cell containing the sample,
    or None if any two coordinates coincide (boundary, measure zero)."""
    values = [float(v) for v in coords]
    if len(set(values)) != len(values):
        return None
    order = sorted(range(len(values)), key=lambda i: -values[i])
    return tuple(order)


def chain_matches(u):
    """For each row, how many of the n! non-strict chain predicates
    u[p0] >= u[p1] >= ... >= u[p(n-1)] it satisfies."""
    u = np.asarray(u, dtype=float)
    matches = np.zeros(u.shape[0], dtype=np.int64)
    for perm in itertools.permutations(range(u.shape[1])):
        mask = np.ones(u.shape[0], dtype=bool)
        for k in range(u.shape[1] - 1):
            mask &= u[:, perm[k]] >= u[:, perm[k + 1]]
        matches += mask
    return matches


def reference_partition(u):
    """`partition_counts` by scalar keys and the exhaustive chain audit."""
    u = np.asarray(u, dtype=float)
    index = {p: i for i, p in enumerate(sorted(itertools.permutations(range(u.shape[1]))))}
    counts = np.zeros(len(index), dtype=np.int64)
    keys = [order_cell_key(row) for row in u]
    for key in keys:
        if key is not None:
            counts[index[key]] += 1
    kept = np.array([key is not None for key in keys])
    exactly_once = bool((chain_matches(u[kept]) == 1).all())
    return counts, int((~kept).sum()), exactly_once


# ---------------------------------------------------------------------------
# exact volumes
# ---------------------------------------------------------------------------

def test_volume_three_dimensional():
    # the 3-cube splits into 3! = 6 equal order cells
    assert simplex_volume_exact(SimplexSpec(3, 0.0, 1.0)) == pytest.approx(1.0 / 6.0)


def test_volume_one_dimensional():
    assert simplex_volume_exact(SimplexSpec(1, 0.0, 2.0)) == 2.0


def test_volume_four_dimensional():
    assert simplex_volume_exact(SimplexSpec(4, 0.0, 1.0)) == pytest.approx(1.0 / 24.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        SimplexSpec(0, 0.0, 1.0)
    with pytest.raises(ValueError):
        SimplexSpec(13, 0.0, 1.0)
    with pytest.raises(ValueError):
        SimplexSpec(3, 1.0, 1.0)
    for n, a, x in ((2, 0.0, 1e200), (3, -1e308, 1e308), (1, -1e308, 1e308)):
        with pytest.raises(ValueError, match=re.escape(f"n={n}, a={a!r}, x={x!r}")):
            SimplexSpec(n, a, x)
    assert math.isfinite(simplex_volume_exact(SimplexSpec(12, 0.0, 1e25)))  # 1e300 / 12!
    for n, a, x in ((12, 0.0, 1e-30), (3, 0.0, 1e-200)):  # (x-a)^n/n! underflows to 0
        with pytest.raises(ValueError, match=re.escape(f"underflows to 0 at n={n}, a={a!r}, x={x!r}")):
            SimplexSpec(n, a, x)
    assert simplex_volume_exact(SimplexSpec(12, 0.0, 1e-25)) > 0.0  # 1e-300 / 12!
    with pytest.raises(ValueError):
        MonteCarloConfig(samples=0, seed=1)
    with pytest.raises(ValueError):
        MonteCarloConfig(samples=100, seed=-1)


@given(
    n=st.integers(min_value=2, max_value=12),
    a=st.floats(min_value=-3.0, max_value=3.0),
    width=st.floats(min_value=0.1, max_value=4.0),
)
@settings(max_examples=60, deadline=None)
def test_dimensional_recursion(n, a, width):
    x = a + width
    ratio = simplex_volume_exact(SimplexSpec(n, a, x)) / simplex_volume_exact(
        SimplexSpec(n - 1, a, x))
    assert abs(ratio - width / n) <= 1e-12 * max(1.0, width / n)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def test_montecarlo_three_dimensional_hits_exact():
    # binomial sampling oracle: expected hit fraction 1/6
    spec = SimplexSpec(3, 0.0, 1.0)
    est, se = simplex_volume_montecarlo(spec, MonteCarloConfig(1_000_000, seed=42))
    assert abs(est - 1.0 / 6.0) <= 4.0 * se


def test_montecarlo_one_dimensional_is_exact():
    spec = SimplexSpec(1, 0.0, 1.5)
    est, se = simplex_volume_montecarlo(spec, MonteCarloConfig(10_000, seed=9))
    assert est == 1.5
    assert se == 0.0


def test_montecarlo_reproducible():
    spec = SimplexSpec(2, 0.0, 1.0)
    cfg = MonteCarloConfig(100_000, seed=42)
    first = simplex_volume_montecarlo(spec, cfg)
    second = simplex_volume_montecarlo(spec, cfg)
    assert first == second


def test_montecarlo_chunking_invariant(monkeypatch):
    # merging disjoint counter blocks must be bit-identical to one pass
    spec = SimplexSpec(3, 0.0, 1.0)
    cfg = MonteCarloConfig(50_000, seed=7)
    whole = simplex_volume_montecarlo(spec, cfg)
    monkeypatch.setattr(sx, "_CHUNK_SAMPLES", 1024)
    chunked = simplex_volume_montecarlo(spec, cfg)
    assert whole == chunked


@pytest.mark.parametrize("n", range(1, 13))
def test_montecarlo_hits_equal_full_matrix_reference(n):
    # lazy per-column draws against every coordinate drawn, across a chunk edge
    samples, seed = sx._CHUNK_SAMPLES + 3, 2024
    u = uniform01_block(seed, 0, samples * n).reshape(samples, n)
    hits = int(np.all(u[:, :-1] >= u[:, 1:], axis=1).sum())
    est, _ = simplex_volume_montecarlo(SimplexSpec(n, 0.0, 1.0),
                                       MonteCarloConfig(samples, seed))
    assert est == hits / samples


def test_montecarlo_hit_counts_pinned():
    # the stream at seed 2024, pinned: hit counts of the volume Monte Carlo
    for n, samples, hits in ((3, 1_000_000, 167_155), (8, 2_000_000, 47)):
        est, _ = simplex_volume_montecarlo(SimplexSpec(n, 0.0, 1.0),
                                           MonteCarloConfig(samples, 2024))
        assert est == hits / samples


def test_montecarlo_scaled_interval():
    spec = SimplexSpec(2, 1.0, 3.0)
    est, se = simplex_volume_montecarlo(spec, MonteCarloConfig(500_000, seed=3))
    assert abs(est - 2.0) <= 4.0 * se  # (x-a)^2/2! = 2


# ---------------------------------------------------------------------------
# tiling / partition check
# ---------------------------------------------------------------------------

def test_order_cell_key_basic():
    assert order_cell_key((0.9, 0.5, 0.1)) == (0, 1, 2)
    assert order_cell_key((0.1, 0.5, 0.9)) == (2, 1, 0)
    assert order_cell_key((0.5, 0.9, 0.1)) == (1, 0, 2)


def test_order_cell_key_duplicate_is_none():
    assert order_cell_key((0.5, 0.5, 0.1)) is None
    assert order_cell_key((0.25, 0.1, 0.25)) is None


def test_partition_counts_constructed_duplicates():
    u = np.array([
        [0.9, 0.5, 0.1],   # descending cell (0,1,2)
        [0.5, 0.5, 0.1],   # duplicate -> discarded, counted
        [0.1, 0.5, 0.9],   # ascending cell (2,1,0)
        [0.3, 0.3, 0.3],   # duplicate -> discarded, counted
    ])
    counts, discarded, exactly_once = partition_counts(u)
    assert discarded == 2
    assert counts.sum() == 2
    assert exactly_once


def test_partition_counts_matches_scalar_key():
    u = uniform01_block(11, 0, 300 * 3).reshape(300, 3)
    counts, discarded, _ = partition_counts(u)
    assert discarded == 0
    perms = sorted(itertools.permutations(range(3)))
    manual = {p: 0 for p in perms}
    for row in u:
        manual[order_cell_key(row)] += 1
    assert list(counts) == [manual[p] for p in perms]


_TIE_PRONE = st.one_of(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, math.inf, -math.inf,
                                        5e-324, -5e-324]),
                       st.floats(allow_nan=False))


@given(n=st.integers(min_value=2, max_value=6), data=st.data())
@settings(max_examples=150, deadline=None)
def test_partition_counts_equal_brute_force_reference(n, data):
    row = st.one_of(st.lists(_TIE_PRONE, min_size=n, max_size=n),
                    _TIE_PRONE.map(lambda v: [v] * n),
                    st.permutations([float(v) for v in range(n)]))
    u = np.array(data.draw(st.lists(row, min_size=1, max_size=40)), dtype=float)
    counts, discarded, exactly_once = partition_counts(u)
    ref_counts, ref_discarded, ref_exactly_once = reference_partition(u)
    assert np.array_equal(counts, ref_counts)
    assert (discarded, exactly_once) == (ref_discarded, ref_exactly_once)


@pytest.mark.parametrize("n", range(2, 7))
def test_partition_counts_rank_every_cell_once(n):
    # one row per order cell, then the same rows with a tie, then all equal
    perms = sorted(itertools.permutations(range(n)))
    cells = -np.array(perms, dtype=float).argsort(axis=1)
    tied = cells.copy()
    tied[:, 0] = tied[:, 1]
    u = np.vstack([cells, tied, np.full((1, n), 0.5)])
    counts, discarded, exactly_once = partition_counts(u)
    assert counts.tolist() == [1] * len(perms)
    assert (discarded, exactly_once) == (len(perms) + 1, True)
    assert [order_cell_key(r) for r in cells] == perms


@pytest.mark.parametrize("row,groups", [
    ([0.9, 0.5, 0.1], [1, 1, 1]),
    ([0.5, 0.5, 0.1], [2, 1]),
    ([-0.0, 0.0, 1.0], [2, 1]),
    ([0.3, 0.3, 0.3, 0.3], [4]),
    ([0.2, 0.7, 0.2, 0.7, 0.7], [2, 3]),
    ([0.1, 0.4, 0.1, 0.4, 0.9, 0.9], [2, 2, 2]),
])
def test_tied_row_satisfies_product_of_factorials_predicates(row, groups):
    # each tie group of size k may be listed in any of its k! orders
    assert chain_matches([row])[0] == math.prod(math.factorial(k) for k in groups)


def test_partition_counts_nan_row_is_not_exactly_once():
    # a NaN coordinate satisfies no chain predicate, yet is no duplicate
    u = np.array([[0.9, 0.5, 0.1], [0.9, math.nan, 0.1]])
    counts, discarded, exactly_once = partition_counts(u)
    assert discarded == 0
    assert counts.sum() + discarded == len(u)
    assert not exactly_once
    assert chain_matches(u).tolist() == [1, 0]


def test_partition_check_three_dimensional():
    report = ordering_partition_check(3, MonteCarloConfig(600_000, seed=42))
    assert report.passed and report.tiled
    assert sx.cochran_samples(3) == 30
    assert report.all_exactly_once
    assert report.classified + report.discarded_duplicates == report.total_samples
    assert len(report.cell_counts) == 6
    assert report.max_cell_z <= 5.0
    assert report.chi_square <= report.chi_square_threshold


def test_partition_check_two_cells_sum_to_one():
    report = ordering_partition_check(2, MonteCarloConfig(100_000, seed=5))
    freqs = [c / report.classified for c in report.cell_counts]
    assert sum(freqs) == 1.0
    assert report.passed


@pytest.mark.parametrize("n", [3, 6])
def test_partition_check_chunking_invariant(monkeypatch, n):
    # three chunks of 1024 and a partial one must merge to the one-chunk report
    cfg = MonteCarloConfig(3 * 1024 + 517, seed=7)
    whole = ordering_partition_check(n, cfg)
    monkeypatch.setattr(sx, "_CHUNK_SAMPLES", 1024)
    chunked = ordering_partition_check(n, cfg)
    for field in dataclasses.fields(whole):
        assert getattr(chunked, field.name) == getattr(whole, field.name), field.name


def test_partition_check_cell_counts_pinned():
    report = ordering_partition_check(3, MonteCarloConfig(600_000, 2024))
    assert report.cell_counts == (100350, 99851, 100603, 100109, 99132, 99955)
    assert report.discarded_duplicates == 0


@pytest.mark.parametrize("n", PARTITION_DIMENSIONS)
def test_partition_check_integer_columns_equal_float_matrix(n):
    # the 53-bit integer column blocks against partition_counts of the float
    # sample matrix, across a chunk edge
    samples, seed = sx._CHUNK_SAMPLES + 3, 2024
    report = ordering_partition_check(n, MonteCarloConfig(samples, seed))
    counts, discarded, exactly_once = partition_counts(
        uniform01_block(seed, 0, samples * n).reshape(samples, n))
    assert report.cell_counts == tuple(int(c) for c in counts)
    assert report.discarded_duplicates == discarded
    assert report.all_exactly_once == exactly_once


def peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kernels_allocate_bounded_memory():
    # chunk-sized buffers only: with 2^18-sample chunks and fresh temporaries
    # per draw these peaked at 10 and 24 MiB; a first call imports nothing,
    # so it is counted cold (about 1.7 and 1.9 MiB)
    volume = SimplexSpec(8, 0.0, 1.0), MonteCarloConfig(2_000_000, 2024)
    tiling = 3, MonteCarloConfig(600_000, 2024)
    assert peak_bytes(simplex_volume_montecarlo, *volume) < 4 << 20
    assert peak_bytes(ordering_partition_check, *tiling) < 4 << 20


def test_partition_check_dimension_guard():
    with pytest.raises(ValueError):
        ordering_partition_check(1, MonteCarloConfig(100, seed=1))
    with pytest.raises(ValueError):
        ordering_partition_check(7, MonteCarloConfig(100, seed=1))


def test_chi_square_threshold_pinned():
    # published 99.9% quantile for 5 degrees of freedom
    assert chi_square_threshold(6) == pytest.approx(20.515, abs=1e-2)


@pytest.mark.parametrize("n", PARTITION_DIMENSIONS)
def test_chi_square_threshold_equals_scipy_stats_quantile(n):
    # the pinned table must hold scipy's exact bits for every n the check runs at
    from scipy.stats import chi2

    cells = math.factorial(n)
    assert chi_square_threshold(cells) == float(chi2.ppf(CHI_SQUARE_CONFIDENCE, cells - 1))


def test_cli_import_leaves_out_scipy_stats():
    # the partition check and the simplex suite run on numpy alone
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import contextlib, io, sys, opcalc.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [cli.main(['simplex', '--n', '6', '--samples', '4000']),\n"
            "             cli.main(['verify', '--suite', 'simplex'])]\n"
            "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0] []"


# ---------------------------------------------------------------------------
# sliced volumes and the slicing remainder route
# ---------------------------------------------------------------------------

def test_sliced_volume_half():
    # Monte Carlo oracle over the 2-cube with floor 0 gives 1/2
    assert sliced_simplex_volume(2, 0.0, 0.0, 1.0) == 0.5


def test_sliced_volume_degenerate():
    assert sliced_simplex_volume(3, 1.0, 0.0, 1.0) == 0.0


def test_sliced_volume_linear():
    assert sliced_simplex_volume(1, 0.25, 0.0, 1.0) == 0.75


def test_sliced_volume_monte_carlo_oracle():
    # fraction of the unit square with t <= t_2 <= t_1 <= 1 for floor t=0.3
    t = 0.3
    u = uniform01_block(123, 0, 2 * 200_000).reshape(200_000, 2)
    inside = (u[:, 0] >= u[:, 1]) & (u[:, 1] >= t)
    p = inside.mean()
    se = math.sqrt(p * (1 - p) / len(u))
    assert abs(sliced_simplex_volume(2, t, 0.0, 1.0) - p) <= 4.0 * se


def test_sliced_volume_preconditions():
    with pytest.raises(ValueError):
        sliced_simplex_volume(2, -0.1, 0.0, 1.0)
    with pytest.raises(ValueError):
        sliced_simplex_volume(2, 1.1, 0.0, 1.0)
    with pytest.raises(ValueError):
        sliced_simplex_volume(-1, 0.5, 0.0, 1.0)


def test_remainder_by_slicing_exp():
    # must match the direct-evaluation oracle
    expected = math.e - 2.5
    got = remainder_by_slicing(expand(parse("exp(x)"), 0.0, 2), 1.0)
    assert got == pytest.approx(expected, abs=1e-8)


def test_remainder_by_slicing_polynomial_zero():
    assert remainder_by_slicing(expand(parse("x^2-3"), 0.0, 2), 1.7) == pytest.approx(0.0, abs=1e-10)


def test_remainder_by_slicing_sin():
    got = remainder_by_slicing(expand(parse("sin(x)"), 0.0, 1), 0.5)
    assert got == pytest.approx(math.sin(0.5) - 0.5, abs=1e-8)
    assert got == pytest.approx(-0.02057446, abs=1e-7)


@pytest.mark.parametrize("text,a", [
    ("exp(x)", 0.0), ("sin(x)", 0.0), ("cos(x)", 0.5), ("x^5", 0.0),
    ("(1+x)^(-1)", 0.0), ("ln(1+x)", 0.0),
])
@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_slicing_consistency_with_exact(text, a, order):
    f = parse(text)
    t = expand(f, a, order)
    for x in (a + 0.3, a + 0.75):
        sliced = remainder_by_slicing(t, x)
        exact = remainder_exact(t, x)
        assert abs(sliced - exact) <= 1e-8


def reference_slicing(t, x):
    """The sliced route with one `sliced_simplex_volume` call per node."""
    a, order, deriv = t.base, t.order, t.derivative_exprs[-1]
    if x > a:
        sign, volume = 1.0, lambda s: sliced_simplex_volume(order, s, a, x)
    else:
        sign, volume = (-1.0) ** order, lambda s: sliced_simplex_volume(order, x, x, s)

    def kernel(ts):
        return sign * evaluate_array(deriv, ts) * np.array([volume(float(s)) for s in ts])

    return integrate(from_callable(kernel, "reference"), a, x)


@pytest.mark.parametrize("text", ["exp(x)", "ln(1+x)", "sin(3*x)+x^2"])
def test_remainder_by_slicing_matches_per_node_volumes_bit_for_bit(text):
    # numpy's power in place of Python's moves last bits from order 2 on
    for order in range(13):
        t = expand(parse(text), 0.1, order)
        for x in (0.93, -0.57):
            assert remainder_by_slicing(t, x) == reference_slicing(t, x), (order, x)


def test_slicing_handles_x_below_base():
    f = parse("exp(x)")
    t = expand(f, 0.0, 2)
    x = -0.6
    sliced = remainder_by_slicing(t, x)
    exact = remainder_exact(t, x)
    assert abs(sliced - exact) <= 1e-8
