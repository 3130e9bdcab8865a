import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opcalc.expr import DomainError, parse
from opcalc.funcspace import (
    DEFAULT_QUAD_CONFIG, NestSource, QuadratureConfig, ToleranceNotMetError,
    constant_one, from_callable, from_expr, sup_abs,
)
from opcalc.operators import (
    Compose, Differentiate, EvaluateAt, IntegrateFrom, Scale, Sum,
    UnsupportedDifferentiationError, apply, check_linearity, describe,
    ftoc_operator, iterated_integral, iterated_integral_one, monotone_bound,
)
from opcalc.pool import default_pool
from test_funcspace import ref_integrate

TOL = DEFAULT_QUAD_CONFIG.abs_tolerance
SRC = Path(__file__).resolve().parent.parent / "src"


def f_of(text):
    return from_expr(parse(text))


# ---------------------------------------------------------------------------
# apply
# ---------------------------------------------------------------------------

def test_apply_differentiate_exp():
    g = apply(Differentiate(), f_of("exp(x)"))
    assert g(0.0) == 1.0


def test_apply_integrate_one():
    g = apply(IntegrateFrom(0.0), constant_one())
    assert g(0.5) == pytest.approx(0.5, abs=TOL)


def test_apply_evaluate_at_makes_constant():
    g = apply(EvaluateAt(0.0), f_of("sin(x)"))
    assert g(7.3) == 0.0
    assert g(-2.0) == 0.0


def test_apply_scale_and_sum():
    f = f_of("x")
    g = apply(Scale(3.0), f)
    assert g(2.0) == 6.0
    h = apply(Sum(Scale(2.0), Scale(-1.0)), f)  # (2 - 1) * x
    assert h(5.0) == pytest.approx(5.0, abs=1e-14)


def test_differentiate_requires_symbolic_backing():
    from opcalc.funcspace import from_callable

    f = from_callable(lambda x: x * x, "opaque")
    with pytest.raises(UnsupportedDifferentiationError):
        apply(Differentiate(), f)


def test_differentiate_undoes_integral_exactly():
    # FTOC part 2: the derivative of the running integral is the integrand
    f = f_of("sin(x)*exp(x)")
    integral = apply(IntegrateFrom(0.0), f)
    recovered = apply(Differentiate(), integral)
    assert recovered is f


def test_compose_d_with_integral_cancels():
    f = f_of("sin(x)*exp(x)")
    g = apply(Compose(Differentiate(), IntegrateFrom(0.0)), f)
    assert g is f


def test_compose_d_with_integral_checks_the_base():
    # D cancels I_a through provenance, with no quadrature run, so the base is
    # checked where an integral runs: the engine refuses one that is not finite
    f = f_of("x")
    assert apply(Compose(Differentiate(), IntegrateFrom(5.0)), f) is f
    with pytest.raises(ValueError, match="^integration limit a=inf is not finite$"):
        apply(Compose(IntegrateFrom(math.inf), Differentiate()), f)(0.5)


def test_cancellation_inside_longer_chains():
    f = f_of("exp(x)")
    # D I D -> D after cancelling the leading pair
    chain = Compose(Differentiate(), Compose(IntegrateFrom(0.0), Differentiate()))
    g = apply(chain, f)
    assert g(0.7) == pytest.approx(math.exp(0.7), rel=1e-12)


def test_integrals_from_one_base_fold_into_one_nest():
    # I_a of a nest from a deepens it: one engine call, not a quadrature
    # inside a quadrature
    f = f_of("sin(x)*exp(x)")
    xs = np.linspace(-1.0, 2.0, 20)
    i = IntegrateFrom(0.25)
    g = apply(Compose(i, Compose(i, Compose(i, i))), f)
    assert g.source == NestSource(0.25, f, 4, DEFAULT_QUAD_CONFIG)
    assert g.eval_array(xs).tolist() == iterated_integral(f, 4, 0.25).eval_array(xs).tolist()
    assert apply(Differentiate(), g).source == NestSource(0.25, f, 3, DEFAULT_QUAD_CONFIG)
    # a nest from another base, or under another cfg, is the operand of a new one
    inner = iterated_integral(f, 1, 0.25)
    cfg = QuadratureConfig(abs_tolerance=1e-8)
    assert apply(IntegrateFrom(0.0), inner).source == NestSource(0.0, inner, 1, inner.source.cfg)
    assert apply(IntegrateFrom(0.25), inner, cfg).source == NestSource(0.25, inner, 1, cfg)


# ---------------------------------------------------------------------------
# ftoc_operator
# ---------------------------------------------------------------------------

def test_ftoc_operator_restores_exp():
    # oracle: direct evaluation exp(1)
    g = apply(ftoc_operator(0.0), f_of("exp(x)"))
    assert g(1.0) == pytest.approx(math.e, abs=5 * TOL)


def test_ftoc_operator_fixes_constant_one():
    one = constant_one()
    g = apply(ftoc_operator(0.0), one)
    for x in (-1.5, -0.3, 0.0, 0.9, 2.0):
        assert g(x) == pytest.approx(1.0, abs=5 * TOL)


def test_ftoc_operator_square_from_base_two():
    # oracle: f(2) + integral from 2 to 3 of 2t dt = 4 + 5 = 9
    g = apply(ftoc_operator(2.0), f_of("x^2"))
    assert g(3.0) == pytest.approx(9.0, abs=5 * TOL)


POOL = ["exp(x)", "sin(x)", "cos(x)", "x^3", "(1+x)^(-1)"]
POOL_LO = {"(1+x)^(-1)": -0.45}  # probes start above the reciprocal's pole at -1


@pytest.mark.parametrize("text", POOL)
def test_ftoc_fixed_point_invariant(text):
    f = f_of(text)
    a = 0.0
    g = apply(ftoc_operator(a), f)
    lo = POOL_LO.get(text, a - 2.0)
    hi = a + 2.0
    for k in range(20):
        x = lo + (hi - lo) * k / 19.0
        assert abs(g(x) - f(x)) <= 5.0 * TOL


# ---------------------------------------------------------------------------
# iterated_integral
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_iterated_integral_of_exp_matches_closed_form(n):
    # I_0^n exp = exp(x) - sum_{k<n} x^k/k!, on both sides of the base
    nested = iterated_integral(f_of("exp(x)"), n, 0.0)
    for x in (-1.5, -0.5, 0.7, 1.5):
        closed = math.exp(x) - sum(x ** k / math.factorial(k) for k in range(n))
        assert nested(x) == pytest.approx(closed, abs=10 * TOL)


def test_iterated_integral_levels_differentiate_back_to_the_level_below():
    g = f_of("sin(x)")
    nested = iterated_integral(g, 4, 0.25)
    assert nested.source.cfg is DEFAULT_QUAD_CONFIG
    xs = np.array([-0.5, 0.25, 0.9, 1.7])
    level = nested
    for depth in (3, 2, 1, 0):
        below = apply(Differentiate(), level)
        if depth:
            assert below.source == NestSource(0.25, g, depth, DEFAULT_QUAD_CONFIG)
            want = iterated_integral(g, depth, 0.25).eval_array(xs)
        else:
            want = g.eval_array(xs)
        assert below.eval_array(xs).tolist() == want.tolist()
        level = below
    assert level is g


# The adaptive reference: n literal applications of I_a, each one recursive
# GK15 quadrature (tests/test_funcspace.py) at the full configuration.
def adaptive_nest(g, n, a):
    for _ in range(n):
        g = from_callable(lambda xs, g=g: np.array(
            [ref_integrate(g, a, x, DEFAULT_QUAD_CONFIG, [0]) for x in xs]),
            f"I[{a}]({g.label})")
    return g


@given(
    index=st.integers(min_value=0, max_value=len(default_pool()) - 1),
    n=st.integers(min_value=1, max_value=4),
    u=st.floats(min_value=0.0, max_value=1.0),
    vs=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=4),
)
@settings(max_examples=30, deadline=None)
def test_iterated_integral_matches_the_adaptive_nest(index, n, u, vs):
    pf = default_pool()[index]
    g = pf.function()
    width = pf.probe_hi - pf.probe_lo
    a = pf.probe_lo + u * width
    xs = [a] + [pf.probe_lo + v * width for v in vs]  # x == a inside the batch
    got = iterated_integral(g, n, a).eval_array(xs)
    assert got[0] == 0.0
    reference = adaptive_nest(g, n, a)
    for x, value in zip(xs, got.tolist()):
        assert abs(value - reference(x)) <= 10 * TOL


def test_iterated_integral_of_one_at_depth_12_against_the_rational_value():
    a, x = -0.3, 1.2
    iterated_integral_one(12, a, x)  # build the rule first
    started = time.perf_counter()
    got = iterated_integral_one(12, a, x)
    elapsed = time.perf_counter() - started
    want = Fraction(1, math.factorial(12)) * (Fraction(x) - Fraction(a)) ** 12
    assert abs(Fraction(got) - want) <= Fraction(1e-14) * want
    assert elapsed < 0.05


@pytest.mark.parametrize("text, n", [("exp(x)", 1), ("sin(3*x)*exp(x)", 3),
                                     ("(1+x)^(-1)", 4), ("cos(x)", 7)])
def test_iterated_integral_points_do_not_depend_on_their_batch(text, n):
    g = f_of(text)
    a = 0.25
    xs = [0.25, 1.5, -0.4, 1.5, 0.3, -0.45, 0.25, 1.9, 0.26]
    nest = iterated_integral(g, n, a)
    want = [nest(x).hex() for x in xs]
    assert [v.hex() for v in nest.eval_array(xs).tolist()] == want


def test_iterated_integral_of_nan_raises_at_once():
    calls = []

    def nan(ts):
        calls.append(len(ts))
        return np.full(len(ts), math.nan)

    g = from_callable(nan, "nan")
    with pytest.raises(ToleranceNotMetError):
        iterated_integral(g, 2, 0.0).eval_array([0.5, 1.0])
    assert calls == [32]  # the first evaluation's NaN error share ends the nest


def test_iterated_integral_bisects_only_towards_a_jump():
    calls = []

    def step(ts):
        calls.append(len(ts))
        return np.where(ts < 0.3, -1.0, 1.0)

    g = from_callable(step, "step")
    got = iterated_integral(g, 2, 0.0).eval_array([1.0, -0.5])
    assert abs(got[0] - (-0.01)) <= 10 * TOL
    assert abs(got[1] - (-0.125)) <= 10 * TOL
    # the first round's two panels, then two halves per round bisecting
    # towards the jump, for at most 54 rounds: a panel about 0.3 is at float
    # resolution after 54 halvings.  Equal panels would need 2^40 or more
    assert sum(calls) <= 16 * 2 * (1 + 54)


def test_iterated_integral_resolves_a_pole_near_the_range():
    g = f_of("x^(-1)")
    got = iterated_integral(g, 1, 1.0).eval_array([0.01, 1e-3])
    assert np.abs(got - np.log([0.01, 1e-3])).max() <= 10 * TOL


def test_iterated_integral_that_cannot_converge_names_its_interval():
    rng = np.random.default_rng(7)
    g = from_callable(lambda ts: rng.standard_normal(len(ts)), "noise")
    with pytest.raises(ToleranceNotMetError) as info:
        iterated_integral(g, 2, 0.5).eval_array([0.5, -1.25])
    assert info.value.interval == (0.5, -1.25)


def test_iterated_integral_checks_base_and_range():
    g = f_of("x")
    with pytest.raises(ValueError, match="^integration limit a=-inf is not finite$"):
        iterated_integral(g, 2, -math.inf).eval_array([0.5])
    with pytest.raises(ValueError, match="^integration limit x=inf is not finite$"):
        iterated_integral(g, 2, 0.0).eval_array([0.5, math.inf])
    with pytest.raises(ValueError):
        iterated_integral(g, -1, 0.0)
    assert iterated_integral(g, 0, 0.0) is g


def test_spectral_rule_is_gauss_legendre_and_integrates_polynomials():
    from numpy.polynomial.legendre import leggauss

    from numpy.polynomial.legendre import legval

    from opcalc.funcspace import _spectral_rule

    t, rule, top = _spectral_rule()
    nodes, weights = leggauss(16)
    assert t.tolist() == nodes.tolist()
    assert np.abs(rule[-1] - weights).max() <= 1e-15
    for k in range(16):  # row i integrates t^k from -1 to t_i, exactly up to rounding
        want = (t ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
        assert np.abs(np.vecdot(rule[:-1], t ** k) - want).max() <= 1e-14
        # the top rows read off the Legendre coefficients 14 and 15
        want = [float(k == 14), float(k == 15)]
        assert np.abs(top @ legval(t, np.eye(16)[k]) - want).max() <= 1e-13


def test_nesting_does_not_import_numpy_polynomial_or_ma():
    # each costs about 1 MB of peak memory (np.unique, for one, loads numpy.ma)
    probe = ("import sys; import opcalc.cli; from opcalc.operators import "
             "iterated_integral_one; iterated_integral_one(5, 0.0, 1.0); "
             "print(sorted({'numpy.polynomial', 'numpy.ma'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# iterated_integral_one (closed-form basis values)
# ---------------------------------------------------------------------------

def test_iterated_integral_one_linear():
    assert iterated_integral_one(1, 0.0, 1.0) == pytest.approx(1.0, abs=10 * TOL)


def test_iterated_integral_one_cubic():
    assert iterated_integral_one(3, 0.0, 1.0) == pytest.approx(1.0 / 6.0, abs=10 * TOL)


def test_iterated_integral_one_empty_interval():
    assert iterated_integral_one(2, 1.0, 1.0) == 0.0


def test_iterated_integral_one_guards():
    with pytest.raises(ValueError):
        iterated_integral_one(0, 0.0, 1.0)
    with pytest.raises(ValueError):
        iterated_integral_one(13, 0.0, 1.0)


@pytest.mark.parametrize("a, x, name", [(0.0, math.inf, "x=inf"), (math.nan, 1.0, "a=nan")])
def test_iterated_integral_one_refuses_a_non_finite_limit(a, x, name):
    # without the engine's check, I_0^2 1 at inf would nest to inf
    with pytest.raises(ValueError, match=f"^integration limit {name} is not finite$"):
        iterated_integral_one(2, a, x)


def test_nested_basis_integral_memory_is_bounded():
    # each pass of the nest hands eval_array a bounded slice of nodes
    tracemalloc.start()
    try:
        got = iterated_integral_one(5, -0.3, 1.2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == pytest.approx(1.5 ** 5 / 120, abs=10 * TOL)
    assert peak < 2 * 2 ** 20


@given(
    n=st.integers(min_value=1, max_value=4),
    a=st.floats(min_value=-1.0, max_value=1.0),
    dx=st.floats(min_value=-2.0, max_value=2.0),
)
@settings(max_examples=25, deadline=None)
def test_iterated_integral_one_closed_form(n, a, dx):
    x = a + dx
    got = iterated_integral_one(n, a, x)
    expected = dx ** n / math.factorial(n)
    assert abs(got - expected) <= 10.0 * TOL


# ---------------------------------------------------------------------------
# monotone_bound
# ---------------------------------------------------------------------------

def test_monotone_bound_one():
    one = constant_one()
    assert monotone_bound(1, one, 0.0, 1.0) == pytest.approx(1.0, rel=1e-12)


def test_monotone_bound_exp():
    # closed form: sup of exp on [0,1] is e; basis factor 1/3!
    got = monotone_bound(3, f_of("exp(x)"), 0.0, 1.0)
    assert got == pytest.approx(math.e / 6.0, rel=1e-9)


def test_monotone_bound_sin():
    got = monotone_bound(2, f_of("sin(x)"), 0.0, math.pi / 2.0)
    assert got == pytest.approx((math.pi / 2.0) ** 2 / 2.0, rel=1e-9)


def test_monotone_bound_is_inf_where_its_factor_overflows_and_0_where_the_sup_is():
    # (x-a)^4 at x = 1e80 overflows a Python float
    got = monotone_bound(4, constant_one(), 0.0, [1.0, 1e80])
    assert got.tolist() == [1.0 / 24.0, math.inf]
    assert monotone_bound(4, f_of("0*x"), 0.0, [1.0, 1e80]).tolist() == [0.0, 0.0]
    assert monotone_bound(4, f_of("0*x"), -1e80, 1e80) == 0.0
    # 1e308 - (-1e308) overflows while the sup's grid is built, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert monotone_bound(1, constant_one(), -1e308, 1e308) == math.inf
        with pytest.raises(DomainError, match="non-finite result"):
            monotone_bound(1, f_of("x"), -1e308, 1e308)


def test_monotone_bound_rejects_reversed_interval():
    with pytest.raises(ValueError):
        monotone_bound(1, f_of("exp(x)"), 1.0, 0.0)
    with pytest.raises(ValueError):
        monotone_bound(1, f_of("exp(x)"), 0.0, [0.5, -0.5])


def test_monotone_bound_array_form_matches_one_point_calls():
    g = f_of("sin(3*x)*exp(x)")
    a = [0.0, -1.0, 0.25, 0.25, -2.0]
    x = [1.0, 0.5, 0.25, 2.0, -1.5]  # x == a included
    got = monotone_bound(3, g, a, x)
    assert [v.hex() for v in got.tolist()] == [
        monotone_bound(3, g, p, q).hex() for p, q in zip(a, x)]
    assert got[2] == 0.0
    assert monotone_bound(2, g, 0.5, [0.5, 1.5]).tolist() == [
        0.0, monotone_bound(2, g, 0.5, 1.5)]


@pytest.mark.parametrize("n", range(1, 7))
def test_monotone_bound_powers_in_python_floats(n):
    # numpy's power differs from Python's in the last bit at some points
    g = f_of("exp(x)")
    xs = [-0.7 + 0.037 * k for k in range(60)]
    want = [sup_abs(g, -0.75, x) * (x + 0.75) ** n / math.factorial(n)
            for x in xs]
    assert monotone_bound(n, g, -0.75, xs).tolist() == want


@pytest.mark.parametrize("text", POOL)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_monotone_bound_dominates_iterated_integral(text, n):
    g = f_of(text)
    a = 0.0
    probes = [a + 2.0 * k / 19.0 for k in range(1, 20)]
    for x in probes:
        nested = g
        for _ in range(n):
            nested = apply(IntegrateFrom(a), nested)
        lhs = abs(nested(x))
        assert lhs <= monotone_bound(n, g, a, x) * (1.0 + 1e-9) + 1e-12


# ---------------------------------------------------------------------------
# check_linearity
# ---------------------------------------------------------------------------

def test_linearity_of_differentiation():
    report = check_linearity(Differentiate(), f_of("sin(x)"), f_of("exp(x)"),
                             2.0, -1.0, [0.0, 0.5, 1.0, -0.7])
    assert report.passed
    assert report.measured_gap <= 1e-10


def test_linearity_of_integration():
    one = constant_one()
    report = check_linearity(IntegrateFrom(0.0), one, one, 1.0, 1.0,
                             [0.25, 0.5, 1.0])
    assert report.passed


def test_linearity_of_evaluation():
    report = check_linearity(EvaluateAt(0.0), f_of("sin(x)"), f_of("cos(x)"),
                             3.0, 4.0, [1.0, 2.0, -3.0])
    assert report.passed
    # both sides are the constant 4
    combo_applied = apply(EvaluateAt(0.0),
                          f_of("3*sin(x)+4*cos(x)"))
    assert combo_applied(2.5) == 4.0


# ---------------------------------------------------------------------------
# Associativity of composition
# ---------------------------------------------------------------------------

_OP_CHOICES = [
    Differentiate(),
    IntegrateFrom(0.0),
    IntegrateFrom(0.5),
    EvaluateAt(0.0),
    EvaluateAt(-0.5),
    Scale(2.0),
    Scale(-0.5),
]


@given(
    i=st.integers(min_value=0, max_value=len(_OP_CHOICES) - 1),
    j=st.integers(min_value=0, max_value=len(_OP_CHOICES) - 1),
    k=st.integers(min_value=0, max_value=len(_OP_CHOICES) - 1),
    fidx=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=60, deadline=None)
def test_composition_associativity(i, j, k, fidx):
    ops = (_OP_CHOICES[i], _OP_CHOICES[j], _OP_CHOICES[k])
    f = f_of(["exp(x)", "sin(x)", "cos(x)", "x^3"][fidx])
    left = Compose(Compose(ops[0], ops[1]), ops[2])
    right = Compose(ops[0], Compose(ops[1], ops[2]))
    try:
        gl = apply(left, f)
    except UnsupportedDifferentiationError:
        with pytest.raises(UnsupportedDifferentiationError):
            apply(right, f)
        return
    gr = apply(right, f)
    probes = [-1.5 + 3.0 * t / 49.0 for t in range(50)]
    for x in probes:
        assert abs(gl(x) - gr(x)) <= 5.0 * TOL


def test_describe_round_trips_structure():
    op = Sum(EvaluateAt(0.0), Compose(IntegrateFrom(0.0), Differentiate()))
    text = describe(op)
    assert "eval[0.0]" in text and "I[0.0]" in text and "D" in text
