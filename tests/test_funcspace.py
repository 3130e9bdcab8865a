import contextlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from opcalc import funcspace as fs
from opcalc.expr import parse
from opcalc.funcspace import (
    DEFAULT_QUAD_CONFIG, Interval, QuadratureConfig, ToleranceNotMetError,
    constant_one, from_callable, from_expr, from_integral, integrate,
    integrate_many, linear_combination, sup_abs, sup_abs_many,
)

IV = Interval(-4.0, 4.0)
TOL = DEFAULT_QUAD_CONFIG.abs_tolerance


NEST_POOL = ["exp(x)", "sin(3*x)", "x^5-x", "(x+2)^0.5", "cos(x)/(2+x)",
             "exp(-x^2)", "ln(2+x)"]


def f_of(text, iv=IV):
    return from_expr(parse(text), iv)


# ---------------------------------------------------------------------------
# Panel rule sanity: the embedded Gauss-Kronrod constants are pinned by
# independent oracles (numpy's Legendre nodes and degree exactness).
# ---------------------------------------------------------------------------

def test_gk15_gauss_subset_matches_legendre_solver():
    nodes, weights = np.polynomial.legendre.leggauss(7)
    assert np.allclose(fs._GK15_NODES[1::2], nodes, atol=5e-14)
    assert np.allclose(fs._G7_EMBEDDED[1::2], weights, atol=5e-14)


def test_gk15_weights_sum_to_interval_length():
    assert abs(fs._GK15_WEIGHTS.sum() - 2.0) < 5e-14


@pytest.mark.parametrize("degree", range(0, 23))
def test_gk15_polynomial_degree_exactness(degree):
    # moment of t^k on [-1, 1]: 0 for odd k, 2/(k+1) for even k
    value = float(np.dot(fs._GK15_WEIGHTS, fs._GK15_NODES ** degree))
    exact = 0.0 if degree % 2 else 2.0 / (degree + 1)
    assert abs(value - exact) < 1e-13


def test_gk15_integrates_to_closed_form():
    got = integrate(f_of("sin(x)*exp(x)"), 0.0, 2.0)
    exact = (math.sin(2) - math.cos(2)) / 2 * math.exp(2) + 0.5
    assert got == pytest.approx(exact, abs=1e-11)


# ---------------------------------------------------------------------------
# Interval / config invariants
# ---------------------------------------------------------------------------

def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    with pytest.raises(ValueError):
        Interval(0.0, math.inf)


def test_interval_contains_allows_rounding_slack():
    iv = Interval(0.0, 1.0)   # slack 1e-9 * (1 + 1) = 2e-9
    assert iv.contains(0.5) and iv.contains(1.0 + 1.5e-9) and iv.contains(-1.5e-9)
    assert not iv.contains(1.0 + 3e-9) and not iv.contains(-3e-9)


def test_quadrature_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tolerance=1e-15)
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tolerance=-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            QuadratureConfig(rel_tolerance=bad)
        with pytest.raises(ValueError):
            QuadratureConfig(abs_tolerance=bad)
    with pytest.raises(ValueError):
        QuadratureConfig(max_subdivision_depth=0)
    with pytest.raises(ValueError):
        QuadratureConfig(max_subdivision_depth=61)


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------

def test_integral_of_one():
    assert integrate(constant_one(Interval(0.0, 2.0)), 0.0, 1.0) == pytest.approx(1.0, abs=TOL)


def test_integral_of_identity():
    assert integrate(f_of("x"), 0.0, 2.0) == pytest.approx(2.0, abs=TOL)


def test_integral_of_exp_matches_closed_form():
    # oracle: closed form e - 1 evaluated independently
    assert integrate(f_of("exp(x)"), 0.0, 1.0) == pytest.approx(math.e - 1.0, abs=TOL)


def test_integral_antisymmetry_exact():
    f = f_of("exp(x)*sin(x)")
    forward = integrate(f, -1.0, 2.5)
    backward = integrate(f, 2.5, -1.0)
    assert forward == -backward


def test_integral_at_coincident_endpoints():
    assert integrate(f_of("exp(x)"), 1.0, 1.0) == 0.0


def test_integral_outside_domain_rejected():
    f = f_of("x", Interval(0.0, 1.0))
    with pytest.raises(ValueError):
        integrate(f, 0.0, 2.0)


def test_integral_propagates_domain_error():
    from opcalc.expr import DomainError

    f = f_of("ln(x)", Interval(-1.0, 1.0))
    with pytest.raises(DomainError):
        integrate(f, -0.5, 0.5)


def test_tolerance_not_met_at_depth_one():
    # |x|^0.3-like kink needs subdivision; a single panel cannot resolve it
    f = from_callable(lambda t: abs(t) ** 0.3, Interval(-1.0, 1.0), "kink")
    cfg = QuadratureConfig(abs_tolerance=1e-12, max_subdivision_depth=1)
    with pytest.raises(ToleranceNotMetError):
        integrate(f, -1.0, 1.0, cfg)
    # and a sane depth resolves it
    got = integrate(f, -1.0, 1.0, QuadratureConfig(abs_tolerance=1e-9))
    assert got == pytest.approx(2.0 / 1.3, abs=1e-8)


def test_rel_tolerance_budget():
    f = f_of("exp(x)")
    cfg = QuadratureConfig(abs_tolerance=1e-14, rel_tolerance=1e-9)
    assert integrate(f, 0.0, 3.0, cfg) == pytest.approx(math.exp(3) - 1.0, rel=1e-9)


# ---------------------------------------------------------------------------
# sup_abs
# ---------------------------------------------------------------------------

def test_sup_abs_of_exp_is_right_endpoint():
    # exp is increasing: oracle is evaluation at the right endpoint
    got = sup_abs(f_of("exp(x)"), Interval(0.0, 1.0))
    assert got == pytest.approx(math.e, rel=1e-12)


def test_sup_abs_of_one_is_exactly_one():
    iv = Interval(-2.0, 7.0)
    assert sup_abs(constant_one(iv), iv) == 1.0


def test_sup_abs_of_sin_interior_maximum():
    # max of |sin| on [0,4] is at pi/2
    got = sup_abs(f_of("sin(x)"), Interval(0.0, 4.0))
    assert got == pytest.approx(1.0, abs=1e-6)
    assert got <= 1.0 + 1e-12


def test_sup_abs_dominates_samples():
    f = f_of("sin(x)*exp(x)")
    iv = Interval(-2.0, 2.0)
    s = sup_abs(f, iv)
    xs = np.linspace(iv.a, iv.b, 100)
    for x in xs:
        assert abs(f(float(x))) <= s + 1e-12


def ref_sup_abs(f, iv):
    """The one-interval loop sup_abs_many runs in lock step."""
    xs = np.linspace(iv.a, iv.b, fs._SUP_SAMPLES)
    vals = np.abs(f.eval_array(xs))
    k = int(np.argmax(vals))
    best = float(vals[k])
    lo = xs[max(k - 1, 0)]
    hi = xs[min(k + 1, fs._SUP_SAMPLES - 1)]
    for _ in range(fs._SUP_REFINE_ROUNDS):
        grid = np.linspace(lo, hi, fs._SUP_REFINE_POINTS)
        gvals = np.abs(f.eval_array(grid))
        j = int(np.argmax(gvals))
        best = max(best, float(gvals[j]))
        lo = grid[max(j - 1, 0)]
        hi = grid[min(j + 1, fs._SUP_REFINE_POINTS - 1)]
        if hi - lo <= 1e-14 * (1.0 + abs(hi)):
            break
    return best


SUP_POOL = [f_of(text) for text in NEST_POOL] + [
    fs.absolute(f_of("sin(5*x)")),
    from_callable(lambda t: np.floor(3.0 * t), IV, "steps"),  # ties: first maximum
    from_callable(lambda t: np.where(t > 0.5, math.nan, t), IV, "nan above 0.5"),
]
# interval widths: wide ones refine all rounds, narrow ones stop early, and
# subnormal ones take linspace's path for a step that underflows
widths = st.one_of(st.floats(min_value=1e-3, max_value=0.5),
                   st.sampled_from([1e-10, 1e-13, 3e-16, 1e-300, 5e-324]))


@given(
    i=st.integers(min_value=0, max_value=len(SUP_POOL) - 1),
    spans=st.lists(st.tuples(st.floats(min_value=-1.0, max_value=1.0), widths),
                   min_size=1, max_size=6),
    chunk=st.sampled_from([1, 2, 64]),
)
@settings(max_examples=60, deadline=None)
def test_sup_abs_many_matches_one_interval_reference(i, spans, chunk):
    f = SUP_POOL[i]
    ivs = []
    for lo, width in spans:
        lo = 0.0 if width < 1e-200 else lo
        hi = lo + width
        ivs.append(Interval(lo, hi if hi > lo else math.nextafter(lo, 1.0)))
    want = [ref_sup_abs(f, iv).hex() for iv in ivs]
    saved, fs._SUP_CHUNK = fs._SUP_CHUNK, chunk
    try:
        got = sup_abs_many(f, [iv.a for iv in ivs], [iv.b for iv in ivs])
    finally:
        fs._SUP_CHUNK = saved
    assert [v.hex() for v in got.tolist()] == want
    assert [sup_abs(f, iv).hex() for iv in ivs] == want


def test_grids_are_linspace_rows_bit_for_bit():
    lo = np.array([-3.0, 0.1, 0.0, 0.0, 1.0, 1.0, -2.5])
    hi = np.array([4.0, 0.45, 5e-324, 1e-321, 1.0, 1.0 + 2.0 ** -52, -1e-300])
    for num in (fs._SUP_SAMPLES, fs._SUP_REFINE_POINTS):
        got = fs._grids(lo, hi, num)
        for i in range(len(lo)):
            want = np.linspace(lo[i], hi[i], num)
            assert [v.hex() for v in got[i].tolist()] == [v.hex() for v in want.tolist()]


def test_sup_abs_many_takes_the_first_maximum():
    # |f| = 1 at every sample; a first-maximum scan refines about 0 and never
    # sees the bump between the last two dense samples, which a last-maximum
    # scan would find
    bump = (1.0 - 2.0 ** -10 + 1e-6, 1.0 - 1e-6)
    f = from_callable(lambda t: np.where((t > bump[0]) & (t < bump[1]), 2.0, 1.0),
                      Interval(0.0, 1.0), "bump")
    assert sup_abs_many(f, [0.0], [1.0]).tolist() == [ref_sup_abs(f, Interval(0.0, 1.0))]
    assert sup_abs(f, Interval(0.0, 1.0)) == 1.0


def test_sup_abs_many_keeps_a_nan_as_python_max_does():
    # a NaN at one dense sample, which no refined grid hits again: max(nan, v)
    # stays nan, where np.fmax would take v
    p = float(np.linspace(0.1, 0.45, fs._SUP_SAMPLES)[400])
    f = from_callable(lambda t: np.where(t == p, math.nan, 1.0 - (t - p) ** 2),
                      Interval(0.1, 0.45), "nan at one sample")
    assert math.isnan(ref_sup_abs(f, Interval(0.1, 0.45)))
    assert math.isnan(sup_abs_many(f, [0.1, 0.1], [0.45, 0.2])[0])


def test_sup_abs_many_evaluates_once_per_round():
    calls = []

    def fn(t):
        calls.append(len(t))
        return np.sin(3.0 * t)

    f = from_callable(fn, IV, "counted")
    lo = np.linspace(-3.0, 2.0, 40)
    got = sup_abs_many(f, lo, lo + 1.0)
    assert len(calls) <= 1 + fs._SUP_REFINE_ROUNDS
    assert calls[0] == 40 * fs._SUP_SAMPLES
    assert got.tolist() == [ref_sup_abs(f, Interval(a, a + 1.0)) for a in lo]


def test_sup_abs_many_edges():
    f = f_of("exp(x)")
    assert sup_abs_many(f, [], []).shape == (0,)
    for lo, hi in (([0.0], [0.0]), ([1.0], [0.0]), ([0.0], [math.inf]), ([math.nan], [1.0])):
        with pytest.raises(ValueError, match="finite lo < hi"):
            sup_abs_many(f, lo, hi)


# ---------------------------------------------------------------------------
# Spec invariants: linearity, monotonicity, additivity
# ---------------------------------------------------------------------------

POOL = ["exp(x)", "sin(x)", "cos(x)", "x^3", "x"]


@given(
    alpha=st.floats(min_value=-2.0, max_value=2.0),
    beta=st.floats(min_value=-2.0, max_value=2.0),
    i=st.integers(min_value=0, max_value=len(POOL) - 1),
    j=st.integers(min_value=0, max_value=len(POOL) - 1),
    x=st.floats(min_value=-2.0, max_value=2.0),
)
@settings(max_examples=60, deadline=None)
def test_integrate_linearity(alpha, beta, i, j, x):
    f, g = f_of(POOL[i]), f_of(POOL[j])
    combo = linear_combination(alpha, f, beta, g)
    lhs = integrate(combo, 0.0, x)
    rhs = alpha * integrate(f, 0.0, x) + beta * integrate(g, 0.0, x)
    assert abs(lhs - rhs) <= 3.0 * TOL


@given(
    i=st.integers(min_value=0, max_value=len(POOL) - 1),
    j=st.integers(min_value=0, max_value=len(POOL) - 1),
    x=st.floats(min_value=0.0, max_value=2.0),
)
@settings(max_examples=40, deadline=None)
def test_integrate_monotonicity(i, j, x):
    # g = f + |h| dominates f pointwise, so its integral dominates for x >= a
    f = f_of(POOL[i])
    g = linear_combination(1.0, f, 1.0, fs.absolute(f_of(POOL[j])))
    assert integrate(f, 0.0, x) <= integrate(g, 0.0, x) + 2.0 * TOL


@given(
    i=st.integers(min_value=0, max_value=len(POOL) - 1),
    a=st.floats(min_value=-2.0, max_value=2.0),
    c=st.floats(min_value=-2.0, max_value=2.0),
    x=st.floats(min_value=-2.0, max_value=2.0),
)
@settings(max_examples=60, deadline=None)
def test_integrate_additivity(i, a, c, x):
    f = f_of(POOL[i])
    together = integrate(f, a, x)
    split = integrate(f, a, c) + integrate(f, c, x)
    assert abs(together - split) <= 3.0 * TOL


def test_constant_one_examples():
    iv = Interval(0.0, 1.0)
    assert constant_one(iv)(0.37) == 1.0
    assert integrate(constant_one(Interval(0.0, 2.0)), 0.0, 2.0) == pytest.approx(2.0, abs=TOL)
    assert sup_abs(constant_one(iv), iv) == 1.0


# ---------------------------------------------------------------------------
# integrate_many against the reference engine: recursive bisection, one
# panel per rule call, one integral per point (nested levels included).
# ---------------------------------------------------------------------------

def _ref_gk15(feval, lo, hi):
    hw = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    vals = feval(mid + hw * fs._GK15_NODES)
    high = hw * float(np.dot(fs._GK15_WEIGHTS, vals))
    low = hw * float(np.dot(fs._G7_EMBEDDED, vals))
    return high, abs(high - low)


REF_RULES = {"gk15": _ref_gk15}


def _ref_adapt(panel, feval, lo, hi, value, err, budget, floor, depth):
    if err <= budget or err <= floor:
        return value
    mid = 0.5 * (lo + hi)
    if depth <= 0:
        raise ToleranceNotMetError(budget, err, (lo, hi))
    if not (lo < mid < hi):
        return value
    lv, le = panel(feval, lo, mid)
    rv, re_ = panel(feval, mid, hi)
    half = 0.5 * budget
    return (_ref_adapt(panel, feval, lo, mid, lv, le, half, floor, depth - 1)
            + _ref_adapt(panel, feval, mid, hi, rv, re_, half, floor, depth - 1))


def ref_eval_array(f, xs, panels):
    s = f.source
    if isinstance(s, fs.IntegralSource):
        return np.array([ref_integrate(s.inner, s.base, float(x), s.cfg, panels)
                         for x in xs])
    return f.eval_array(xs)


def ref_integrate(f, a, x, cfg, panels):
    """The recursive engine; panels[0] counts rule calls."""
    a = float(a)
    x = float(x)
    if x == a:
        return 0.0
    sign = 1.0
    lo, hi = a, x
    if hi < lo:
        lo, hi = hi, lo
        sign = -1.0
    if not (f.domain.contains(lo) and f.domain.contains(hi)):
        raise ValueError("integration range outside domain")

    def panel(feval, lo, hi):
        panels[0] += 1
        return _ref_gk15(feval, lo, hi)

    def feval(ts):
        return ref_eval_array(f, ts, panels)

    value, err = panel(feval, lo, hi)
    budget = max(cfg.abs_tolerance, cfg.rel_tolerance * abs(value))
    floor = 1e-15 * (1.0 + abs(value))
    return sign * _ref_adapt(panel, feval, lo, hi, value, err, budget, floor,
                             cfg.max_subdivision_depth)


@contextlib.contextmanager
def counted_panels():
    """Count the panels the engine accepts or splits, over every rule call."""
    panels = [0]
    saved = dict(fs.PANEL_RULES)

    def counting(rule):
        def wrapper(feval, lo, hi):
            panels[0] += len(lo)
            return rule(feval, lo, hi)
        return wrapper

    fs.PANEL_RULES.update({name: counting(rule) for name, rule in saved.items()})
    try:
        yield panels
    finally:
        fs.PANEL_RULES.update(saved)


NEST_IV = Interval(-1.0, 1.5)
limits = st.floats(min_value=-1.0, max_value=1.5)


@given(
    text=st.sampled_from(NEST_POOL),
    tol=st.sampled_from([1e-6, 1e-9, 1e-12]),
    rel=st.sampled_from([0.0, 1e-9]),
    bases=st.lists(limits, max_size=3),
    a=limits,
    xs=st.lists(limits, min_size=1, max_size=4),
    with_a=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_integrate_many_matches_recursive_reference(text, tol, rel, bases, a, xs,
                                                    with_a):
    # each nesting level multiplies the reference's cost by ~15
    assume(len(bases) < 2 or tol >= 1e-9)
    assume(len(bases) < 3 or (tol >= 1e-6 and len(xs) <= 2))
    cfg = QuadratureConfig(abs_tolerance=tol, rel_tolerance=rel)
    g = from_expr(parse(text), NEST_IV)
    for base in bases:
        g = from_integral(base, g, cfg)
    if with_a:
        xs = xs[:1] + [a] + xs[1:]   # x == a inside a mixed batch
    ref_panels = [0]
    want = [ref_integrate(g, a, x, cfg, ref_panels) for x in xs]
    with counted_panels() as panels:
        got = integrate_many(g, a, xs, cfg)
    assert [v.hex() for v in got.tolist()] == [float(v).hex() for v in want]
    assert panels[0] == ref_panels[0]
    for x, v in zip(xs, want):
        assert integrate(g, a, x, cfg) == v


def test_integrate_many_empty_and_coincident_limits():
    f = f_of("exp(x)")
    assert integrate_many(f, 0.5, []).shape == (0,)
    assert integrate_many(f, 0.5, [0.5, 0.5]).tolist() == [0.0, 0.0]


def test_integrate_many_rejects_limits_outside_domain():
    f = f_of("x", Interval(0.0, 1.0))
    with pytest.raises(ValueError, match="outside domain"):
        integrate_many(f, 0.0, [0.5, 2.0, 0.25])


def test_tolerance_not_met_message_matches_reference():
    # several integrals fail in the same round: the first one's leftmost
    # failing panel is reported, as the one-at-a-time recursion reports it
    f = from_callable(lambda t: np.abs(t) ** 0.3, Interval(-1.0, 1.0), "kink")
    cfg = QuadratureConfig(abs_tolerance=1e-12, max_subdivision_depth=1)
    with pytest.raises(ToleranceNotMetError) as want:
        ref_integrate(f, 0.9, -0.7, cfg, [0])
    with pytest.raises(ToleranceNotMetError) as got:
        integrate_many(f, 0.9, [-0.7, -1.0, 0.9, 0.2], cfg)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("quadrature error estimate ")
    assert all(type(v) is float for v in got.value.interval)
    with pytest.raises(ToleranceNotMetError) as got:
        integrate(f, 0.9, -0.7, cfg)
    assert str(got.value) == str(want.value)


def test_panel_rules_are_batch_independent():
    rng = np.random.default_rng(7)
    lo = rng.uniform(-1.0, 1.0, 300)
    hi = lo + rng.uniform(1e-6, 0.5, 300)
    f = f_of("sin(3*x)*exp(x)")
    for name, rule in fs.PANEL_RULES.items():
        high, err = rule(f.eval_array, lo, hi)
        for i in (0, 1, 150, 299):
            want = REF_RULES[name](f.eval_array, lo[i], hi[i])
            assert (high[i], err[i]) == want
            alone = rule(f.eval_array, lo[i:i + 1], hi[i:i + 1])
            assert (alone[0].tolist(), alone[1].tolist()) == ([want[0]], [want[1]])


def test_integral_backed_function_is_batch_consistent():
    g = from_integral(0.25, from_integral(-0.5, f_of("sin(3*x)+x^2", NEST_IV)))
    xs = np.concatenate([np.linspace(-1.0, 1.5, 41), [0.25]])
    batch = g.eval_array(xs)
    assert [g(float(x)) for x in xs] == batch.tolist()


def test_float_resolution_stops_splitting():
    # on intervals one or two ulps wide, a large integrand's error estimate
    # (the rule pair's weight-sum bias) stays above budget and floor, so
    # bisection runs down to float resolution and stops there
    big = from_callable(lambda t: np.full_like(t, 1e30), Interval(0.5, 2.0), "1e30")
    xs = [math.nextafter(1.0, 2.0), math.nextafter(math.nextafter(1.0, 2.0), 2.0), 1.5]
    ref_panels = [0]
    want = [ref_integrate(big, 1.0, x, DEFAULT_QUAD_CONFIG, ref_panels) for x in xs]
    with counted_panels() as panels:
        got = integrate_many(big, 1.0, xs)
    assert got.tolist() == want
    assert panels[0] == ref_panels[0]


def test_nan_error_estimate_fails_at_once():
    # a NaN error is never within budget; bisecting it would double the
    # panels of every round down to max_subdivision_depth
    f = from_callable(lambda t: np.full_like(t, math.nan), Interval(0.0, 1.0), "nan")
    with counted_panels() as panels, pytest.raises(ToleranceNotMetError, match="nan"):
        integrate_many(f, 0.0, [0.5, 1.0])
    assert panels[0] == 2
