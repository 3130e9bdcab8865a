import contextlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from opcalc import funcspace as fs
from opcalc.expr import DomainError, const, parse
from opcalc.funcspace import (
    DEFAULT_QUAD_CONFIG, Interval, QuadratureConfig, ToleranceNotMetError,
    constant_one, from_callable, from_expr, integrate, integrate_many,
    linear_combination, sup_abs, sup_abs_many,
)
from opcalc.operators import iterated_integral

IV = Interval(-4.0, 4.0)
TOL = DEFAULT_QUAD_CONFIG.abs_tolerance


NEST_POOL = ["exp(x)", "sin(3*x)", "x^5-x", "(x+2)^0.5", "cos(x)/(2+x)",
             "exp(-x^2)", "ln(2+x)"]


def f_of(text, iv=IV):
    return from_expr(parse(text), iv)


# ---------------------------------------------------------------------------
# The reference rule: Gauss-Kronrod 15 with its embedded 7-point Gauss rule,
# at the standard published values (the odd-indexed abscissae are exactly
# the 7-point Gauss nodes).  opcalc does not use it; the tests below pin its
# constants by independent oracles (numpy's Legendre nodes and degree
# exactness), and the recursive reference engine further down runs on it.
# ---------------------------------------------------------------------------

GK15_ABSCISSAE_HALF = np.array([
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.000000000000000,
])

GK15_WEIGHTS_HALF = np.array([
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
])

G7_WEIGHTS_HALF = np.array([
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
])


def mirror(half, negate):
    head = -half[:-1] if negate else half[:-1]
    return np.concatenate([head, half[::-1]])


GK15_NODES = mirror(GK15_ABSCISSAE_HALF, negate=True)       # ascending, 15
GK15_WEIGHTS = mirror(GK15_WEIGHTS_HALF, negate=False)
G7_EMBEDDED = np.zeros(15)
G7_EMBEDDED[1::2] = mirror(G7_WEIGHTS_HALF, negate=False)   # Gauss nodes sit at odd slots


def test_gk15_gauss_subset_matches_legendre_solver():
    nodes, weights = np.polynomial.legendre.leggauss(7)
    assert np.allclose(GK15_NODES[1::2], nodes, atol=5e-14)
    assert np.allclose(G7_EMBEDDED[1::2], weights, atol=5e-14)


def test_gk15_weights_sum_to_interval_length():
    assert abs(GK15_WEIGHTS.sum() - 2.0) < 5e-14


@pytest.mark.parametrize("degree", range(0, 23))
def test_gk15_polynomial_degree_exactness(degree):
    # moment of t^k on [-1, 1]: 0 for odd k, 2/(k+1) for even k
    value = float(np.dot(GK15_WEIGHTS, GK15_NODES ** degree))
    exact = 0.0 if degree % 2 else 2.0 / (degree + 1)
    assert abs(value - exact) < 1e-13


def test_integrate_matches_closed_form():
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


def test_kink_is_resolved_by_subdivision():
    # a single panel cannot resolve the |x|^0.3 kink; bisection towards it can
    f = from_callable(lambda t: abs(t) ** 0.3, Interval(-1.0, 1.0), "kink")
    got = integrate(f, -1.0, 1.0, QuadratureConfig(abs_tolerance=1e-9))
    assert got == pytest.approx(2.0 / 1.3, abs=1e-8)


@pytest.mark.parametrize("p, want", [(-0.5, 2.0), (-0.75, 4.0), (-0.9, 10.0)])
def test_integrable_endpoint_singularity(p, want):
    # the integral of x^p on [0, 1] is 1/(1+p); panels crowd towards 0 until
    # their shares add up to within budget, far below the panel cap
    f = f_of(f"x^({p})", Interval(0.0, 1.0))
    assert integrate(f, 0.0, 1.0) == pytest.approx(want, abs=TOL)


def test_non_integrable_singularity_reports_the_points_own_budget():
    f = f_of("x^(-1)", Interval(0.0, 1.0))
    with pytest.raises(ToleranceNotMetError) as info:
        integrate(f, 0.0, 1.0)
    assert info.value.requested == TOL  # what was asked for, not a halved panel budget
    assert info.value.achieved > TOL
    assert info.value.limit == f"at the cap of {fs._MAX_PANELS} panels for one point"
    assert str(info.value).startswith(f"quadrature error estimate {info.value.achieved:.3e} "
                                      "exceeds budget 1.000e-10 on (0.0, 1.0) ")


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
    assert constant_one(iv).eval_array(np.array([0.1, 0.9])).tolist() == [1.0, 1.0]
    assert constant_one(iv).label == "1" and constant_one(iv).is_expr_backed()
    assert constant_one(iv).as_expr() is const(1.0)
    assert integrate(constant_one(Interval(0.0, 2.0)), 0.0, 2.0) == pytest.approx(2.0, abs=TOL)
    assert sup_abs(constant_one(iv), iv) == 1.0


# ---------------------------------------------------------------------------
# integrate_many against the reference engine: recursive GK15 bisection,
# one panel per rule call, one integral per point (nested levels included).
# ---------------------------------------------------------------------------

REF_MAX_DEPTH = 48  # bisection levels the recursive reference allows


def _ref_gk15(feval, lo, hi):
    hw = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    vals = feval(mid + hw * GK15_NODES)
    high = hw * float(np.dot(GK15_WEIGHTS, vals))
    low = hw * float(np.dot(G7_EMBEDDED, vals))
    return high, abs(high - low)


def _ref_adapt(panel, feval, lo, hi, value, err, budget, floor, depth):
    if err <= budget or err <= floor:
        return value
    mid = 0.5 * (lo + hi)
    if depth <= 0:
        raise ToleranceNotMetError(budget, err, (lo, hi), "at the reference's maximum depth")
    if not (lo < mid < hi):
        return value
    lv, le = panel(feval, lo, mid)
    rv, re_ = panel(feval, mid, hi)
    half = 0.5 * budget
    return (_ref_adapt(panel, feval, lo, mid, lv, le, half, floor, depth - 1)
            + _ref_adapt(panel, feval, mid, hi, rv, re_, half, floor, depth - 1))


def ref_eval_array(f, xs, panels):
    s = f.source
    if isinstance(s, fs.NestSource):  # I^depth g is I of I^(depth-1) g
        inner = s.integrand if s.depth == 1 else iterated_integral(
            s.integrand, s.depth - 1, s.base, s.cfg)
        return np.array([ref_integrate(inner, s.base, float(x), s.cfg, panels)
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
                             REF_MAX_DEPTH)


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
        g = iterated_integral(g, 1, base, cfg)
    if with_a:
        xs = xs[:1] + [a] + xs[1:]   # x == a inside a mixed batch
    want = [ref_integrate(g, a, x, cfg, [0]) for x in xs]
    got = integrate_many(g, a, xs, cfg)
    for x, v, w in zip(xs, got.tolist(), want):
        assert abs(v - w) <= 10 * TOL
        assert integrate(g, a, x, cfg) == v
        assert v == 0.0 or x != a


def test_integrate_many_empty_and_coincident_limits():
    f = f_of("exp(x)")
    assert integrate_many(f, 0.5, []).shape == (0,)
    assert integrate_many(f, 0.5, [0.5, 0.5]).tolist() == [0.0, 0.0]


def test_integrate_many_weights_each_node_by_its_own_point():
    # the integral of (x - t) * 1 from 0 to x is x^2 / 2, for x on either side
    xs = np.array([0.5, -1.5, 0.0, 2.0, 0.5])
    got = integrate_many(constant_one(IV), 0.0, xs, kernel=lambda x, t: x - t)
    assert got == pytest.approx(xs ** 2 / 2, abs=TOL)


def test_integrate_many_refuses_a_non_finite_weighted_integrand():
    # exp overflows with the warning silenced, as evaluate_array does
    with pytest.raises(DomainError, match="non-finite result"):
        integrate_many(constant_one(IV), 0.0, [1.0, 2.0], kernel=lambda x, t: np.exp(1e3 * t))


def test_integrate_many_rejects_limits_outside_domain():
    f = f_of("x", Interval(0.0, 1.0))
    with pytest.raises(ValueError, match="outside domain"):
        integrate_many(f, 0.0, [0.5, 2.0, 0.25])


def test_tolerance_not_met_message_matches_reference():
    # every integral fails in the first round: the first one's failure is
    # reported, as the one-point call reports it
    f = from_callable(lambda t: np.full_like(t, math.nan), Interval(-1.0, 1.0), "nan")
    cfg = QuadratureConfig(abs_tolerance=1e-12)
    with pytest.raises(ToleranceNotMetError) as want:
        integrate(f, 0.9, -0.7, cfg)
    with pytest.raises(ToleranceNotMetError) as got:
        integrate_many(f, 0.9, [-0.7, -1.0, 0.9, 0.2], cfg)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("quadrature error estimate ")
    assert got.value.interval == (-0.7, 0.9)
    assert all(type(v) is float for v in got.value.interval)


def test_tolerance_not_met_names_the_panel_cap():
    # panels a millionth wide resolve sin(1e6 x); the cap stops at 1,024
    f = from_callable(lambda t: np.sin(1e6 * t), Interval(0.0, 1.0), "fast")
    with counted_panels() as panels, pytest.raises(ToleranceNotMetError) as info:
        integrate(f, 0.0, 1.0)
    assert str(info.value).startswith("quadrature error estimate ")
    assert str(info.value).endswith(f"at the cap of {fs._MAX_PANELS} panels for one point")
    assert info.value.requested == TOL
    assert panels[0] < 4 * fs._MAX_PANELS


def test_nan_error_estimate_fails_at_once():
    # a NaN error is never within budget; bisecting it would double the
    # panels of every round up to the panel cap
    f = from_callable(lambda t: np.full_like(t, math.nan), Interval(0.0, 1.0), "nan")
    with counted_panels() as panels, pytest.raises(ToleranceNotMetError, match="nan") as info:
        integrate_many(f, 0.0, [0.5, 1.0])
    assert panels[0] == 2
    assert info.value.limit == "because the estimate is NaN"
    assert info.value.interval == (0.0, 0.5)


def test_panel_rules_are_batch_independent():
    rng = np.random.default_rng(7)
    lo = rng.uniform(-1.0, 1.0, 300)
    hi = lo + rng.uniform(1e-6, 0.5, 300) * rng.choice([-1.0, 1.0], 300)
    f = f_of("sin(3*x)*exp(x)")
    t = np.polynomial.legendre.leggauss(16)[0]
    for rule in fs.PANEL_RULES.values():
        vals, tail = rule(f.eval_array, lo, hi)
        for i in (0, 1, 150, 299):
            # the integrand at the panel's Gauss-Legendre nodes, and the size
            # of the interpolant's top two Legendre coefficients
            nodes = 0.5 * (lo[i] + hi[i]) + 0.5 * (hi[i] - lo[i]) * t
            assert np.abs(vals[i] - f.eval_array(nodes)).max() <= 1e-14 * np.abs(vals[i]).max()
            coeffs = np.polynomial.legendre.legfit(t, vals[i], 15)
            assert abs(tail[i] - np.abs(coeffs[14:]).sum()) <= 1e-13 * np.abs(vals[i]).max()
            alone = rule(f.eval_array, lo[i:i + 1], hi[i:i + 1])
            assert (alone[0].tolist(), alone[1].tolist()) == ([vals[i].tolist()], [tail[i]])


def test_integral_backed_function_is_batch_consistent():
    g = iterated_integral(iterated_integral(f_of("sin(3*x)+x^2", NEST_IV), 1, -0.5), 1, 0.25)
    xs = np.concatenate([np.linspace(-1.0, 1.5, 41), [0.25]])
    batch = g.eval_array(xs)
    assert [g(float(x)) for x in xs] == batch.tolist()


def test_float_resolution_stops_splitting():
    # a jump of 1e30 one ulp above a: on [a, a + 2 ulps] the Legendre tail
    # stays far above budget and floor, so that panel splits once, into two
    # one ulp wide, which are at float resolution and are kept
    a = 1.0
    c = math.nextafter(a, 2.0)
    x = math.nextafter(c, 2.0)
    jump = from_callable(lambda t: np.where(t >= c, 1e30, 0.0), Interval(0.5, 2.0), "jump")
    with counted_panels() as panels:
        got = integrate_many(jump, a, [c, x])
    assert got.tolist() == [0.0, 1e30 * (x - c)]
    assert panels[0] == 2 + 2
