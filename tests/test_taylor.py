import json
import math
import os
import struct
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import mpmath
import numpy as np
import pytest

from opcalc import taylor, verify
from opcalc.cli import main
from opcalc import funcspace
from opcalc.expr import (
    DomainError, const, differentiate, evaluate, mul, parse, power, render,
    simplify, sub, var,
)
from opcalc.funcspace import DEFAULT_QUAD_CONFIG, from_expr, integrate
from opcalc.pool import default_pool
from opcalc.simplex import remainder_by_slicing
from opcalc.verify import VerifyConfig, _expr_corpus, suite_taylor
from opcalc.taylor import (
    NESTED_MAX_DEPTH, TaylorExpansion, evaluate_polynomial, expand, ftoc_step,
    remainder_bound, remainder_direct, remainder_exact, remainder_nested,
    remainder_routes, verify_exchange,
)

TOL = DEFAULT_QUAD_CONFIG.abs_tolerance
POOL = default_pool()


# ---------------------------------------------------------------------------
# ftoc_step / expand
# ---------------------------------------------------------------------------

def test_order_zero_is_one_ftoc_step_from_all_residual():
    f = parse("sin(x)*exp(x)")
    t = expand(f, 0.3, 0)
    assert t.coefficients == (evaluate(f, 0.3),)
    first, second = t.derivative_exprs
    assert first is f and second is simplify(differentiate(f))
    minus_one = TaylorExpansion(0.3, (), (f,))
    assert (minus_one.order, minus_one.source) == (-1, f)
    assert ftoc_step(minus_one) == t


def test_single_step_from_exp_base_case():
    t0 = expand(parse("exp(x)"), 0.0, 0)
    assert t0.coefficients == (1.0,)
    t1 = ftoc_step(t0)
    assert t1.order == 1
    assert t1.coefficients == (1.0, 1.0)
    # residual integrand is now the second derivative
    assert evaluate(t1.residual_integrand(), 0.3) == math.exp(0.3)


def test_step_on_constant_adds_zero_coefficient():
    t0 = expand(parse("5"), 0.0, 0)
    t1 = ftoc_step(t0)
    assert t1.coefficients == (5.0, 0.0)
    assert t1.residual_integrand() == const(0.0)


def test_two_steps_for_square():
    t = expand(parse("x^2"), 0.0, 2)
    assert t.coefficients == (0.0, 0.0, 2.0)
    # third derivative vanishes identically
    assert t.residual_integrand() == const(0.0)


def test_expand_exp_coefficients():
    t = expand(parse("exp(x)"), 0.0, 3)
    assert t.coefficients == (1.0, 1.0, 1.0, 1.0)


def test_expand_shifted_quadratic():
    t = expand(parse("x^2-2"), 1.0, 2)
    assert t.coefficients == (-1.0, 2.0, 2.0)


def test_expand_constant_one():
    t = expand(parse("1"), 0.5, 4)
    assert t.coefficients == (1.0, 0.0, 0.0, 0.0, 0.0)


def test_expand_guards():
    with pytest.raises(ValueError):
        expand(parse("x"), 0.0, -1)
    with pytest.raises(ValueError):
        expand(parse("x"), 0.0, 13)


def test_expansion_field_invariants():
    t = expand(parse("sin(x)"), 0.25, 5)
    assert len(t.coefficients) == 6
    assert len(t.derivative_exprs) == 7
    for n, c in enumerate(t.coefficients):
        assert c == evaluate(t.derivative_exprs[n], 0.25)
    with pytest.raises(ValueError):
        TaylorExpansion(0.0, (1.0,), (var(), const(1.0), const(0.0)))


def test_order_and_source_are_derived_and_the_memo_is_shared_but_not_compared():
    f = parse("sin(x)*exp(x)")
    t = expand(f, 0.25, 3)
    assert [fd.name for fd in fields(TaylorExpansion)] == [
        "base", "coefficients", "derivative_exprs", "values"]
    assert t.order == 3 and t.source is f is t.derivative_exprs[0]
    assert t.values  # filled by the steps that built t
    assert ftoc_step(t).values is t.values  # one memo for every order
    fresh = TaylorExpansion(t.base, t.coefficients, t.derivative_exprs)
    assert fresh.values == {} and fresh == t and hash(fresh) == hash(t)
    assert "values" not in repr(t)


def test_coefficients_are_evaluate_bit_for_bit():
    for f in _expr_corpus() + [pf.expr for pf in POOL]:
        for a in (0.0, 0.3, -0.2):
            t = expand(f, a, 12)
            for c, d in zip(t.coefficients, t.derivative_exprs):
                assert struct.pack("<d", c) == struct.pack("<d", evaluate(d, a)), render(f)


def _first_domain_error(f, a, order):
    d = f
    for _ in range(order + 1):
        try:
            evaluate(d, a)
        except DomainError as err:
            return str(err)
        d = simplify(differentiate(d))
    raise AssertionError("no order fails")


@pytest.mark.parametrize("text, a", [
    ("ln(x)", 0.0),                 # a guard at order 0
    ("x^0.5+sin(x)", 0.0),          # a guard at order 1, below shared nodes
    ("exp(x)*x^2.5", 0.0),          # a guard at order 3
    ("(x+1e200)^2", 0.0),           # math.pow overflows: names the root
    ("x*1e300*1e300+sin(x)", 1.0),  # a non-finite result
])
def test_domain_error_in_expand_has_the_text_of_evaluate(text, a):
    f = parse(text)
    with pytest.raises(DomainError) as err:
        expand(f, a, 6)
    assert str(err.value) == _first_domain_error(f, a, 6)


def test_threads_expanding_one_function_at_different_bases_match_sequential():
    f = parse("x^2*ln(2+x)+cos(x)/(2+x)")
    bases = [0.05 * k for k in range(8)]
    want = {a: expand(f, a, 10).coefficients for a in bases}
    results = {}

    def run(a):
        for _ in range(5):
            results.setdefault(a, set()).add(expand(f, a, 10).coefficients)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=run, args=(a,)) for a in bases]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert results == {a: {c} for a, c in want.items()}


def test_iterated_integral_of_residual_integrand_is_remainder():
    from opcalc.operators import iterated_integral

    t = expand(parse("exp(x)"), 0.0, 2)
    integrand = from_expr(t.residual_integrand())
    residual = iterated_integral(integrand, t.order + 1, t.base)
    assert residual(1.0) == pytest.approx(remainder_direct(t, 1.0), abs=1e-6)


def test_fixed_point_consistency():
    # expanding N times then stepping equals expanding N+1 times, exactly
    for pf in POOL:
        for order in (0, 2, 4):
            stepped = ftoc_step(expand(pf.expr, pf.base, order))
            direct = expand(pf.expr, pf.base, order + 1)
            assert stepped.coefficients == direct.coefficients
            assert stepped.derivative_exprs == direct.derivative_exprs


def test_verify_taylor_suite_runs_each_ftoc_iteration_once(monkeypatch):
    expands, steps = [], []

    def counted(calls, fn):
        return lambda *args: calls.append(args) or fn(*args)

    monkeypatch.setattr(verify, "expand", counted(expands, expand))
    for module in (taylor, verify):
        monkeypatch.setattr(module, "ftoc_step", counted(steps, ftoc_step))
    suite_taylor(VerifyConfig())
    # re-expanding every order from scratch made 160 expand calls and 566 steps
    assert len(expands) <= 20
    assert len(steps) <= 100


def test_verify_fixed_point_consistency_names_the_step_that_drifts(monkeypatch):
    def drifting(partial):
        t = ftoc_step(partial)
        if render(t.source) == "cos(x)" and partial.order == 2:
            t = replace(t, coefficients=t.coefficients[:-1] + (t.coefficients[-1] + 1e-15,))
        return t

    monkeypatch.setattr(verify, "ftoc_step", drifting)  # expand keeps the true step
    report = next(r for r in suite_taylor(VerifyConfig())
                  if r.name == "taylor.fixed_point_consistency")
    assert not report.passed
    assert report.details == {"f": "cos(x)", "order": 2}


# ---------------------------------------------------------------------------
# evaluate_polynomial
# ---------------------------------------------------------------------------

def test_polynomial_value_exp_order_two():
    t = expand(parse("exp(x)"), 0.0, 2)
    assert evaluate_polynomial(t, 1.0) == 2.5


def test_polynomial_at_base_is_first_coefficient():
    t = expand(parse("sin(x)*exp(x)"), 0.7, 4)
    assert evaluate_polynomial(t, 0.7) == t.coefficients[0]


def test_polynomial_reproduces_square_exactly():
    t = expand(parse("x^2"), 0.0, 2)
    assert evaluate_polynomial(t, 3.0) == 9.0


# ---------------------------------------------------------------------------
# remainder routes
# ---------------------------------------------------------------------------

def test_remainder_direct_exp():
    t = expand(parse("exp(x)"), 0.0, 2)
    assert remainder_direct(t, 1.0) == pytest.approx(math.e - 2.5, abs=1e-14)


def test_remainder_direct_cubic_is_zero():
    t = expand(parse("x^3"), 0.0, 3)
    for x in (-2.0, -0.3, 1.7, 4.0):
        assert abs(remainder_direct(t, x)) <= 1e-12 * (1.0 + abs(x) ** 3)


def test_remainder_direct_at_base_is_zero():
    t = expand(parse("ln(1+x)"), 0.0, 3)
    assert remainder_direct(t, 0.0) == 0.0


def test_remainder_exact_matches_direct_exp():
    t = expand(parse("exp(x)"), 0.0, 2)
    direct = remainder_direct(t, 1.0)
    assert remainder_exact(t, 1.0) == pytest.approx(direct, abs=1e-9)
    assert direct == pytest.approx(0.21828183, abs=1e-7)


def test_remainder_exact_zero_integrand():
    t = expand(parse("x^2+3*x"), 0.0, 3)
    assert remainder_exact(t, 2.0) == pytest.approx(0.0, abs=TOL)


def test_remainder_exact_sin_order_one():
    t = expand(parse("sin(x)"), 0.0, 1)
    expected = math.sin(0.5) - 0.5  # direct-evaluation oracle
    assert remainder_exact(t, 0.5) == pytest.approx(expected, abs=1e-9)
    assert expected == pytest.approx(-0.02057446, abs=1e-7)


def test_remainder_nested_matches_exact():
    t = expand(parse("exp(x)"), 0.0, 2)
    nested = remainder_nested(t, 1.0)
    assert nested == pytest.approx(remainder_exact(t, 1.0), abs=1e-6)


def test_remainder_nested_constant_function():
    t = expand(parse("4"), 0.0, 2)
    assert remainder_nested(t, 1.0) == pytest.approx(0.0, abs=TOL)


def test_remainder_nested_quartic():
    # P_3 of x^4 about 0 vanishes, so the residual at 1 is exactly 1
    t = expand(parse("x^4"), 0.0, 3)
    assert remainder_nested(t, 1.0) == pytest.approx(1.0, abs=1e-6)


def test_remainder_nested_depth_guard():
    t = expand(parse("exp(x)"), 0.0, NESTED_MAX_DEPTH)
    with pytest.raises(ValueError):
        remainder_nested(t, 1.0)


def test_remainder_bound_exp():
    t = expand(parse("exp(x)"), 0.0, 2)
    assert remainder_bound(t, 1.0) == pytest.approx(math.e / 6.0, rel=1e-9)


def test_remainder_bound_polynomial_is_zero():
    t = expand(parse("x^2"), 0.0, 3)
    assert remainder_bound(t, 1.5) == 0.0


def test_remainder_bound_sin_order_three():
    # sin^(4) = sin, increasing on [0,1]: closed form sin(1)/4!
    t = expand(parse("sin(x)"), 0.0, 3)
    assert remainder_bound(t, 1.0) == pytest.approx(math.sin(1.0) / 24.0, rel=1e-9)


# ---------------------------------------------------------------------------
# verify_exchange
# ---------------------------------------------------------------------------

def test_exchange_constant_integrand():
    report = verify_exchange((parse("1"), parse("1")), 0.0, 1.0)
    assert report.passed
    assert report.details["lhs"] == pytest.approx(0.5, abs=1e-9)
    assert report.details["rhs"] == pytest.approx(0.5, abs=1e-9)


def test_exchange_exp_second_derivative():
    report = verify_exchange((parse("exp(x)"), parse("1")), 0.0, 1.0)
    assert report.passed
    assert report.details["lhs"] == pytest.approx(math.e - 2.0, abs=1e-8)
    assert report.details["rhs"] == pytest.approx(math.e - 2.0, abs=1e-8)


def test_exchange_empty_region():
    report = verify_exchange((parse("sin(x)"), parse("cos(x)")), 0.5, 0.5)
    assert report.passed
    assert report.details["lhs"] == 0.0
    assert report.details["rhs"] == 0.0


# ---------------------------------------------------------------------------
# remainder_routes
# ---------------------------------------------------------------------------

def test_report_exp():
    report = remainder_routes(expand(parse("exp(x)"), 0.0, 2), [1.0])[0]
    assert report["max_gap"] <= 1e-6
    assert report["bound"] == pytest.approx(0.45304697, abs=1e-7)
    assert abs(report["direct"]) == pytest.approx(0.21828183, abs=1e-7)
    assert report["bound"] >= abs(report["direct"])


def test_report_exact_polynomial_case():
    report = remainder_routes(expand(parse("x^3"), 0.0, 3), [2.0])[0]
    assert abs(report["direct"]) <= 10 * TOL
    assert abs(report["exact_integral"]) <= 10 * TOL
    assert abs(report["nested_integral"]) <= 1e-6
    assert report["bound"] == 0.0


def test_report_sin_order_four():
    # oracle: direct evaluation sin(1) - P_4(1), with P_4 = x - x^3/6
    report = remainder_routes(expand(parse("sin(x)"), 0.0, 4), [1.0])[0]
    expected = math.sin(1.0) - (1.0 - 1.0 / 6.0)
    assert report["direct"] == pytest.approx(expected, abs=1e-12)
    assert report["nested_integral"] is None  # order+1 = 5 exceeds the depth guard
    assert abs(report["direct"]) <= report["bound"]
    assert report["bound"] == pytest.approx(1.0 / 120.0, rel=1e-9)


def test_routes_are_the_cli_remainder_row(capsys):
    t = expand(parse("ln(1+x)"), 0.0, 2)
    report = remainder_routes(t, [-0.4])[0]
    argv = ["remainder", "--f", "ln(1+x)", "--n", "2", "--points=-0.4", "--format", "csv"]
    assert main(argv) == 0
    header = capsys.readouterr().out.split("\r\n")[0]
    assert list(report) == header.split(",")
    assert report["sliced"] == remainder_by_slicing(t, -0.4)


def test_routes_refuse_a_non_finite_direct_value_at_the_requested_point(monkeypatch):
    t = expand(parse("sin(x)"), 0.0, 5)

    def not_reached(*args):
        raise AssertionError("the exact route ran")

    monkeypatch.setattr(taylor, "remainder_exact", not_reached)
    with pytest.raises(ArithmeticError, match=r"not finite at x=1e\+100: -inf$"):
        remainder_routes(t, [0.5, 1e100])


def test_quadrature_routes_overflow_to_inf_without_a_warning(monkeypatch):
    # exp(t) near 709.7 times a panel's weights overflows; warnings are errors here
    t = expand(parse("exp(x)"), 0.0, 1)
    assert remainder_exact(t, 709.7) == math.inf
    assert remainder_by_slicing(t, 709.7) == math.inf
    # from about 703.2 on, the nest's float floor, e^x times its kernel's reach x,
    # overflows, so its error cannot be bounded and its value is not to be trusted
    assert remainder_nested(t, [705.0, 709.7]).tolist() == [math.inf, math.inf]
    assert remainder_nested(t, 700.0) == pytest.approx(math.exp(700.0) - 701.0, rel=1e-12)
    monkeypatch.setattr(taylor, "remainder_nested", None)  # refused before the cross-checks
    with pytest.raises(ArithmeticError, match=r"^exact_integral is not finite at x=709.7: inf$"):
        remainder_routes(t, [1.0, 709.7])


def test_routes_keep_a_non_finite_cross_check_value_for_the_caller():
    # verify fails on it; the CLI nulls it with a warning line
    row = remainder_routes(expand(parse("exp(x)"), 0.0, 1), [700.0])[0]
    assert row["bound"] == math.inf
    assert row["max_gap"] < 1e-10 * row["exact_integral"]


def _bits(row):
    return {k: v.hex() if isinstance(v, float) else v for k, v in row.items()}


@pytest.mark.parametrize("text, order", [
    ("exp(x)", 0), ("ln(1+x)", 2), ("sin(x)", 3), ("cos(x)/(2+x)", 4), ("x^5", 5),
])
def test_remainder_routes_rows_match_one_point_calls(monkeypatch, text, order):
    t = expand(parse(text), 0.0, order)
    points = [0.0, 0.5, -0.4, 0.5, -0.0, 0.75, -0.4, 0.1]  # x == a, both sides, repeats
    want = [_bits(remainder_routes(t, [x])[0]) for x in points]
    assert [_bits(row) for row in remainder_routes(t, points)] == want
    monkeypatch.setattr(taylor, "_ROUTE_CHUNK", 3)  # batches end mid-list
    rows = remainder_routes(t, points)
    assert [_bits(row) for row in rows] == want
    for x, row in zip(points, rows):  # the one-point forms of the array routes
        assert row["bound"].hex() == remainder_bound(t, x).hex()
        if order + 1 <= NESTED_MAX_DEPTH:
            assert row["nested_integral"].hex() == remainder_nested(t, x).hex()


ARRAY_ROUTES = {"direct": remainder_direct, "exact": remainder_exact,
                "sliced": remainder_by_slicing}


@pytest.mark.parametrize("route", ARRAY_ROUTES.values(), ids=ARRAY_ROUTES)
@pytest.mark.parametrize("points", [
    [0.1, -0.4, 0.1, 0.75, -0.0, -0.9, 0.35],  # x == a, both sides of a, repeats
    [-0.9 + 1.8 * k / 299 for k in range(300)],
], ids=["mixed", "batch300"])
def test_array_routes_match_one_point_calls_bit_for_bit(route, points):
    # 300 points of 16 nodes each pass _PASS_NODES in the engine's first round
    assert 300 * funcspace._NODES > funcspace._PASS_NODES
    t = expand(parse("ln(1+x)"), 0.1, 3)
    got = route(t, points)
    assert isinstance(got, np.ndarray) and got.shape == (len(points),)
    one = [route(t, x) for x in points]
    assert all(type(v) is float for v in one)
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in one]


def reference_exact(t, x):
    """The exact route as one expression integrand per point,
    (1/N!)*(x-s)^N * f^(N+1)(s), evaluated by evaluate_array."""
    n = t.order
    kernel = mul(const(1.0 / math.factorial(n)), power(sub(const(x), var()), float(n)))
    f = from_expr(mul(kernel, t.derivative_exprs[-1]))
    return integrate(f, t.base, x)


@pytest.mark.parametrize("route", [remainder_exact, remainder_nested, remainder_by_slicing])
@pytest.mark.parametrize("x, name", [(math.inf, "x=inf"), (math.nan, "x=nan")])
def test_integral_routes_refuse_a_non_finite_point_in_the_engine(route, x, name):
    # no route checks x itself: the engine refuses the limit, not a node
    t = expand(parse("exp(x)"), 0.0, 2)
    for xs in (x, [0.5, x]):
        with pytest.raises(ValueError, match=f"^integration limit {name} is not finite$"):
            route(t, xs)


@pytest.mark.parametrize("text", ["exp(x)", "ln(1+x)", "sin(3*x)+x^2"])
def test_remainder_exact_matches_one_expression_integrand_bit_for_bit(text):
    for order in range(13):
        t = expand(parse(text), 0.1, order)
        for x in (0.93, -0.57):
            assert remainder_exact(t, x) == reference_exact(t, x), (order, x)


def test_remainder_routes_memory_is_bounded_by_its_batches():
    t = expand(parse("exp(x)"), 0.0, 0)
    remainder_routes(t, [0.3])  # compile the evaluation tapes first

    def peak(count):
        tracemalloc.start()
        try:
            remainder_routes(t, [-0.5 + k / count for k in range(count)])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(1024) <= 2 * peak(64)


# ---------------------------------------------------------------------------
# pool-wide invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("pf", POOL, ids=lambda pf: pf.label)
@pytest.mark.parametrize("order", range(6))
def test_remainder_agreement_exact_vs_direct(pf, order):
    t = expand(pf.expr, pf.base, order)
    for x in pf.probes(10):
        direct = remainder_direct(t, x)
        exact = remainder_exact(t, x)
        assert abs(exact - direct) <= max(1e-8, 1e-6 * abs(direct))


@pytest.mark.parametrize("pf", POOL, ids=lambda pf: pf.label)
@pytest.mark.parametrize("order", range(NESTED_MAX_DEPTH - 2))
def test_remainder_agreement_nested_vs_exact(pf, order):
    t = expand(pf.expr, pf.base, order)
    for x in pf.probes(5):
        nested = remainder_nested(t, x)
        exact = remainder_exact(t, x)
        assert abs(nested - exact) <= 1e-6


@pytest.mark.parametrize("pf", POOL, ids=lambda pf: pf.label)
@pytest.mark.parametrize("order", range(6))
def test_remainder_bound_validity(pf, order):
    t = expand(pf.expr, pf.base, order)
    for x in pf.probes(10, nonnegative_only=True):
        direct = remainder_direct(t, x)
        bound = remainder_bound(t, x)
        assert abs(direct) <= bound * (1.0 + 1e-9) + 1e-12


def test_bound_rate_factorial_decay():
    # ratio of successive bounds for exp at x=0.5 is 0.5/(N+2) exactly
    for order in range(5):
        t_n = expand(parse("exp(x)"), 0.0, order)
        t_n1 = expand(parse("exp(x)"), 0.0, order + 1)
        ratio = remainder_bound(t_n1, 0.5) / remainder_bound(t_n, 0.5)
        assert ratio == pytest.approx(0.5 / (order + 2), abs=1e-9)


@pytest.mark.parametrize("text,degree", [("x^2", 2), ("x^3-2*x", 3), ("1+x", 1)])
def test_polynomial_exactness_all_routes(text, degree):
    f = parse(text)
    for order in range(degree, degree + 2):
        t = expand(f, 0.0, order)
        for x in (0.5, 1.0, 1.8):
            assert abs(remainder_direct(t, x)) <= 10 * TOL
            assert abs(remainder_exact(t, x)) <= 10 * TOL
            assert remainder_bound(t, x) <= 10 * TOL
            if order + 1 <= NESTED_MAX_DEPTH:
                assert abs(remainder_nested(t, x)) <= 1e-6


# ---------------------------------------------------------------------------
# The advertised order limit: expand(f, 0, 12) in bounded time and memory
# ---------------------------------------------------------------------------

_EXPAND_IN_CHILD = """
import json, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from opcalc.expr import DomainError, parse
from opcalc.taylor import expand
results = []
for text, order in json.loads(sys.argv[1]):
    started = time.perf_counter()
    try:
        outcome = list(expand(parse(text), 0.0, order).coefficients)
    except DomainError as err:
        outcome = str(err)
    results.append((time.perf_counter() - started, outcome))
print(json.dumps(results))
"""

def _taylor_reference(text, order):
    namespace = {"sin": mpmath.sin, "cos": mpmath.cos, "exp": mpmath.exp,
                 "ln": mpmath.log}
    code = compile(text.replace("^", "**"), "<expression>", "eval")
    with mpmath.workdps(40):
        coeffs = mpmath.taylor(lambda t: eval(code, dict(namespace, x=t)), 0, order)
        return [float(c * mpmath.factorial(k)) for k, c in enumerate(coeffs)]


def test_expand_to_order_12_in_bounded_time_and_memory():
    texts = list(dict.fromkeys(render(e) for e in
                               _expr_corpus() + [pf.expr for pf in POOL]))
    assert {"cos(x)/(2.0+x)", "x^2.0*ln(2.0+x)"} <= set(texts)  # quotients
    cases = [(t, 12) for t in texts]
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", _EXPAND_IN_CHILD, json.dumps(cases)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    for (text, order), (seconds, outcome) in zip(cases, json.loads(proc.stdout)):
        assert seconds < 0.5, (text, order, seconds)
        assert isinstance(outcome, list) and len(outcome) == order + 1, (text, outcome)
        for k, (got, ref) in enumerate(zip(outcome, _taylor_reference(text, order))):
            assert abs(got - ref) <= 1e-10 * (1.0 + abs(ref)), (text, k, got, ref)
