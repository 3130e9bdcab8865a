import copy
import gc
import math
import pickle
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import opcalc.expr as ex
from opcalc.expr import (
    DomainError, ParseError, brief, const, differentiate, evaluate,
    evaluate_array, parse, render, simplify, var,
)


# ---------------------------------------------------------------------------
# parse
# ---------------------------------------------------------------------------

def test_parse_power_minus_constant():
    e = parse("x^2 - 2")
    assert e == ex.sub(ex.power(var(), 2.0), const(2.0))


def test_parse_product_of_functions():
    e = parse("sin(x)*exp(x)")
    assert e == ex.mul(ex.sin(var()), ex.exp(var()))


def test_parse_rejects_variable_exponent():
    with pytest.raises(ParseError) as err:
        parse("x^x")
    assert err.value.offset == 2
    assert "constant" in err.value.message


def test_parse_rejects_double_caret():
    with pytest.raises(ParseError) as err:
        parse("x^^2")
    assert err.value.offset == 2


def test_parse_empty_and_unbalanced():
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("sin(x")
    with pytest.raises(ParseError):
        parse("(1+x")
    with pytest.raises(ParseError):
        parse("x + ")


def test_parse_unknown_tokens():
    with pytest.raises(ParseError) as err:
        parse("x + $")
    assert err.value.offset == 4
    with pytest.raises(ParseError):
        parse("tan(x)")
    with pytest.raises(ParseError):
        parse("y + 1")


def test_parse_precedence_and_associativity():
    assert parse("1+2*x") == ex.add(const(1.0), ex.mul(const(2.0), var()))
    # left-associative chains
    assert parse("1-2-3") == ex.sub(ex.sub(const(1.0), const(2.0)), const(3.0))
    assert parse("8/4/2") == ex.div(ex.div(const(8.0), const(4.0)), const(2.0))
    # unary minus binds looser than power
    assert parse("-x^2") == ex.neg(ex.power(var(), 2.0))
    # unary minus on a literal folds into the constant
    assert parse("-2") == const(-2.0)


def test_parse_signed_and_parenthesized_exponents():
    assert parse("x^-1") == ex.power(var(), -1.0)
    assert parse("(1+x)^(-1)") == ex.power(ex.add(const(1.0), var()), -1.0)
    assert parse("x^(2)") == ex.power(var(), 2.0)
    with pytest.raises(ParseError):
        parse("x^(1+x)")


def test_parse_numbers():
    assert parse("1.5e2") == const(150.0)
    assert parse(".5") == const(0.5)
    assert parse("2.") == const(2.0)


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_quadratic():
    assert evaluate(parse("x^2 - 2"), 1.5) == 0.25


def test_evaluate_exp_at_zero():
    assert evaluate(parse("exp(x)"), 0.0) == 1.0


def test_evaluate_ln_negative_is_domain_error():
    with pytest.raises(DomainError) as err:
        evaluate(parse("ln(x)"), -1.0)
    assert "ln(x)" in str(err.value)
    assert err.value.x == -1.0


def test_evaluate_division_by_zero():
    with pytest.raises(DomainError):
        evaluate(parse("1/x"), 0.0)


def test_evaluate_power_domain():
    with pytest.raises(DomainError):
        evaluate(parse("x^-1"), 0.0)
    with pytest.raises(DomainError):
        evaluate(parse("x^0.5"), -4.0)
    assert evaluate(parse("x^0.5"), 4.0) == 2.0


def test_evaluate_array_matches_scalar():
    import numpy as np

    e = parse("sin(x)*exp(x) + x^3")
    xs = np.linspace(-2.0, 2.0, 37)
    vals = evaluate_array(e, xs)
    for x, v in zip(xs, vals):
        assert v == evaluate(e, float(x))


def test_evaluate_array_domain_error():
    import numpy as np

    with pytest.raises(DomainError):
        evaluate_array(parse("ln(x)"), np.array([0.5, 1.0, -2.0]))


# ---------------------------------------------------------------------------
# differentiate
# ---------------------------------------------------------------------------

def test_derivative_of_sin_is_cos():
    assert differentiate(parse("sin(x)")) == parse("cos(x)")


def test_derivative_power_rule():
    assert differentiate(parse("x^3")) == parse("3.0*x^2")


def test_exp_fifth_derivative_is_exp():
    e = parse("exp(x)")
    for _ in range(5):
        e = simplify(differentiate(e))
    assert e == parse("exp(x)")


def test_derivative_of_reciprocal_power():
    # (1+x)^(-1) has m-th derivative (-1)^m m! (1+x)^(-m-1)
    e = parse("(1+x)^(-1)")
    d = e
    for m in range(1, 5):
        d = simplify(differentiate(d))
        expected = ((-1) ** m) * math.factorial(m) * (1.5 ** (-m - 1))
        assert evaluate(d, 0.5) == pytest.approx(expected, rel=1e-12)


def test_derivative_quotient_rule():
    d = differentiate(parse("sin(x)/x"))
    x = 1.3
    expected = (math.cos(x) * x - math.sin(x)) / x**2
    assert evaluate(d, x) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# simplify
# ---------------------------------------------------------------------------

def test_simplify_drops_zero_product():
    assert simplify(parse("0*sin(x)+x")) == var()


def test_simplify_drops_the_domain_error_of_a_zero_product():
    # value kept wherever the original evaluates, not its domain errors
    s = simplify(parse("0*ln(x)"))
    assert s is const(0.0)
    assert evaluate(s, -1.0) == 0.0
    with pytest.raises(DomainError):
        evaluate(parse("0*ln(x)"), -1.0)


def test_simplify_folds_constants():
    assert simplify(parse("2*3")) == const(6.0)


def test_simplify_derivative_of_square():
    assert simplify(differentiate(parse("x^2"))) == parse("2.0*x")


def test_simplify_never_folds_erroring_constants():
    e = parse("1/(x*0)")  # denominator folds to 0; division must stay unfolded
    s = simplify(e)
    with pytest.raises(DomainError):
        evaluate(s, 3.0)


# Constant operands: signed zeros, negatives, exp(710), products and sums
# that overflow, and with the exponents a zero base with a negative
# exponent and a negative base with a non-integer one.
_FOLD_OPERANDS = (0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3.0, 710.0, 1e200, -1e200,
                  1.7e308, 1e-300)
_FOLD_EXPONENTS = (-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0, 3.0)


def _constant_nodes():
    for a in map(const, _FOLD_OPERANDS):
        for kind in (ex.NEG, ex.SIN, ex.COS, ex.EXP, ex.LN):
            yield ex.Expr(kind, (a,))
        for c in _FOLD_EXPONENTS:
            yield ex.Expr(ex.POW, (a,), c)
        for b in map(const, _FOLD_OPERANDS):
            for kind in (ex.ADD, ex.SUB, ex.MUL, ex.DIV):
                yield ex.Expr(kind, (a, b))


_UNDERFLOWING = (ex.MUL, ex.DIV, ex.POW, ex.EXP)  # nonzero operands, a zero result


def test_constant_folding_is_the_scalar_kernel():
    folded = refused = underflowed = 0
    for node in _constant_nodes():
        try:
            value = evaluate(node, 0.0)
        except DomainError:
            assert simplify(node) is node, render(node)
            refused += 1
        else:  # nodes are interned by the bits of their value
            operands = [c.value for c in node.children]
            if value == 0.0 and 0.0 not in operands and node.kind in _UNDERFLOWING:
                assert simplify(node) is node, render(node)  # an underflow, not a zero
                underflowed += 1
            else:
                assert simplify(node) is const(value), render(node)
                folded += 1
    assert folded > 500 and refused > 50 and underflowed > 5


def test_every_kind_evaluates_differentiates_and_renders():
    u = ex.add(var(), const(2.0))
    nodes = {ex.CONST: const(2.0), ex.VAR: var(), ex.POW: ex.power(u, 3.0)}
    nodes.update({k: ex.Expr(k, (u, var())) for k in (ex.ADD, ex.SUB, ex.MUL, ex.DIV)})
    nodes.update({k: ex.Expr(k, (u,)) for k in (ex.NEG, *ex.FUNC_KINDS)})
    assert set(nodes) == set(ex._OPS) | {ex.VAR}
    x, h = 0.5, 1e-6
    for node in nodes.values():
        assert parse(render(node)) is node
        fd = (evaluate(node, x + h) - evaluate(node, x - h)) / (2.0 * h)
        assert evaluate(differentiate(node), x) == pytest.approx(fd, rel=1e-6, abs=1e-9)
        assert evaluate_array(node, np.array([x]))[0] == evaluate(node, x)
    # an unknown kind is refused when its node is built, so no walk meets one
    with pytest.raises(ValueError, match="unknown node kind 'tan'"):
        ex.Expr("tan", (var(),))


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

_constants = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False).map(const)
_leaves = st.one_of(_constants, st.just(var()))


def _extend(children):
    unary = st.one_of(
        children.map(ex.neg),
        children.map(ex.sin),
        children.map(ex.cos),
        children.map(ex.exp),
        children.map(ex.ln),
    )
    binary = st.tuples(
        st.sampled_from([ex.add, ex.sub, ex.mul, ex.div]), children, children
    ).map(lambda t: t[0](t[1], t[2]))
    powers = st.tuples(
        children, st.sampled_from([-2.0, -1.0, 0.5, 2.0, 3.0, 4.0])
    ).map(lambda t: ex.power(t[0], t[1]))
    return st.one_of(unary, binary, powers)


expr_trees = st.recursive(_leaves, _extend, max_leaves=10)


def _try_eval(e, x):
    try:
        return evaluate(e, x)
    except DomainError:
        return None


def _depends_on_x(e):
    return e.kind == ex.VAR or any(_depends_on_x(c) for c in e.children)


def _shifts_keep_points_apart(e, points):
    """False when adding a constant to an x-dependent subexpression merges
    values it had kept apart at the points, as x + 4.6e90 does for any
    stencil of width 1e-5: the finite difference is then undefined."""
    if e.kind in (ex.ADD, ex.SUB) and sum(map(_depends_on_x, e.children)) == 1:
        moved = next(c for c in e.children if _depends_on_x(c))
        before = {_try_eval(moved, p) for p in points}
        if len({_try_eval(e, p) for p in points}) < len(before):
            return False
    return all(_shifts_keep_points_apart(c, points) for c in e.children)


@given(e=expr_trees, x=st.floats(min_value=-1.5, max_value=1.5))
@example(e=parse("cos(x + 1/2.19e-91)"), x=0.0)
@settings(max_examples=300, deadline=None)
def test_symbolic_derivative_matches_finite_difference(e, x):
    h = 1e-5
    d1 = simplify(differentiate(e))
    d3 = simplify(differentiate(simplify(differentiate(d1))))
    stencil = [x + k * h for k in (-1.0, 0.0, 1.0)]
    values = [_try_eval(e, p) for p in stencil]
    dv = _try_eval(d1, x)
    curvature = _try_eval(d3, x)
    assume(None not in values and dv is not None and curvature is not None)
    assume(_shifts_keep_points_apart(e, stencil))
    assume(all(abs(v) < 50.0 for v in values))
    assume(abs(curvature) < 1e3)
    fd = (values[2] - values[0]) / (2.0 * h)
    assert abs(dv - fd) <= 1e-5 * (1.0 + abs(dv))


@given(e=expr_trees, x=st.floats(min_value=-2.0, max_value=2.0))
@settings(max_examples=300, deadline=None)
def test_simplify_preserves_value_exactly(e, x):
    sv = _try_eval(simplify(e), x)
    v = _try_eval(e, x)
    assume(v is not None)
    assert sv == v


@given(e=expr_trees)
@example(e=ex.sin(ex.exp(ex.power(ex.neg(const(0.0)), -2.0))))
@example(e=ex.neg(ex.power(const(-0.0), -2.0)))
@example(e=ex.sub(var(), const(-0.0)))
@settings(max_examples=400, deadline=None)
def test_render_parse_round_trip(e):
    assert parse(render(e)) == e


_TEXT_PIECES = ("x", "sin", "cos", "exp", "ln", "y", "(", ")", "+", "-", "*", "/", "^",
                "1", "2.5", ".", ".5", "e", "1e3", "1e999", " ", "\t", "é", "١", "²")


@given(text=st.lists(st.sampled_from(_TEXT_PIECES), max_size=20).map("".join))
@example(text="x+١")  # a digit outside ASCII is not 1
@example(text="xé")
@settings(max_examples=500, deadline=None)
def test_text_parses_to_a_round_trip_or_a_parse_error(text):
    try:
        e = parse(text)
    except ParseError as err:
        assert 0 <= err.offset <= len(text)
    else:
        assert text.isascii() and parse(render(e)) is e


def test_negative_zero_is_its_own_node():
    assert const(-0.0) is not const(0.0)
    assert parse(render(const(-0.0))) is const(-0.0)
    assert render(ex.power(const(-0.0), 2.0)) == "(-0.0)^2.0"


@given(e=expr_trees, x=st.floats(min_value=-1.5, max_value=1.5))
@settings(max_examples=200, deadline=None)
def test_derivative_round_trip_through_text(e, x):
    d = simplify(differentiate(e))
    reparsed = parse(render(d))
    v = _try_eval(d, x)
    assume(v is not None)
    assert _try_eval(reparsed, x) == v


# ---------------------------------------------------------------------------
# Hash-consed DAG: identity, memoization, bounded text, tape evaluation
# ---------------------------------------------------------------------------

def test_equal_structure_is_one_node():
    e = parse("sin(x)*x + 2")
    assert e is ex.add(ex.mul(ex.sin(var()), var()), const(2.0))
    assert hash(e) == hash(parse("sin(x)*x+2.0"))
    with pytest.raises(AttributeError):
        e.kind = ex.SUB
    with pytest.raises(AttributeError):
        del e.value


def test_concurrent_building_makes_one_node_per_structure():
    texts = [f"sin({k}*x)*exp(x)/({k}+x^2) + ln(1+{k}*x)" for k in range(1, 121)]
    results = [[] for _ in range(8)]

    def build(out):
        for text in texts:
            out.append(simplify(differentiate(parse(text))))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=build, args=(out,)) for out in results]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert all(len(out) == len(texts) for out in results)
    for built in zip(*results):
        assert all(e is built[0] for e in built)


def test_memoized_derivative_is_shared():
    e = parse("ln(1+x)")
    d = simplify(differentiate(e))
    assert differentiate(e) is differentiate(e)
    assert simplify(differentiate(e)) is d


def _nth_derivative(text, order):
    e = parse(text)
    for _ in range(order):
        e = simplify(differentiate(e))
    return e


def test_brief_bounds_text_of_a_large_dag():
    d = _nth_derivative("cos(x)/(2+x)", 6)  # 9,616 characters rendered
    text = brief(d)
    assert len(text) == ex._BRIEF_LIMIT and text.endswith("...")
    assert render(d).startswith(text[:-3])
    assert brief(parse("sin(x)")) == "sin(x)"


def test_copies_and_pickles_come_back_as_the_same_node():
    e = _nth_derivative("x^2*ln(2+x)", 3)
    assert pickle.loads(pickle.dumps(e)) is e
    assert copy.copy(e) is e and copy.deepcopy(e) is e
    assert pickle.loads(pickle.dumps(const(-0.0))) is const(-0.0)


def test_array_evaluation_frees_intermediates():
    e = var()
    for _ in range(60):
        e = ex.sin(ex.add(e, const(1.0)))
    xs = np.linspace(-1.0, 1.0, 100_000)  # 0.8 MB per intermediate array
    tracemalloc.start()
    try:
        evaluate_array(e, xs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * xs.nbytes  # keeping all 180 intermediates would take 144 MB


def test_domain_error_text_is_bounded():
    d = _nth_derivative("cos(x)/(2+x)", 10)  # divides by (2+x)^11: a pole at -2
    with pytest.raises(DomainError) as err:
        evaluate(d, -2.0)
    assert len(str(err.value)) <= 300 and "division by zero" in str(err.value)
    with pytest.raises(DomainError) as err:
        evaluate_array(d, np.array([0.0, -2.0]))
    assert len(str(err.value)) <= 300 and err.value.x == -2.0


def test_dropped_expansion_leaves_the_node_table():
    from opcalc.taylor import expand

    enabled = gc.isenabled()
    gc.disable()
    try:
        before = len(ex._NODES)
        t = expand(parse("ln(1+x)"), 0.0, 8)
        evaluate_array(t.residual_integrand(), np.linspace(0.0, 0.5, 7))
        assert len(ex._NODES) > before
        del t
        assert len(ex._NODES) == before
    finally:
        if enabled:
            gc.enable()


# Reference evaluators: a naive recursive walk of the expression as a tree,
# with the operations and domain checks in the order the documented
# semantics give them, and no sharing, memo or tape.

def _naive_scalar(e, x):
    k = e.kind
    if k == ex.CONST:
        return e.value
    if k == ex.VAR:
        return x
    if k in (ex.ADD, ex.SUB, ex.MUL, ex.DIV):
        lv = _naive_scalar(e.children[0], x)
        rv = _naive_scalar(e.children[1], x)
        if k == ex.ADD:
            return lv + rv
        if k == ex.SUB:
            return lv - rv
        if k == ex.MUL:
            return lv * rv
        if rv == 0.0:
            raise DomainError(brief(e), x, "division by zero")
        return lv / rv
    v = _naive_scalar(e.children[0], x)
    if k == ex.NEG:
        return -v
    if k == ex.POW:
        c = e.value
        if v == 0.0 and c < 0.0:
            raise DomainError(brief(e), x, "zero base with negative exponent")
        if v < 0.0 and c != int(c):
            raise DomainError(brief(e), x, "negative base with non-integer exponent")
        return math.pow(v, c)
    if k == ex.SIN:
        return math.sin(v)
    if k == ex.COS:
        return math.cos(v)
    if k == ex.EXP:
        if v > ex._EXP_OVERFLOW:
            raise DomainError(brief(e), x, "exp overflow")
        return math.exp(v)
    if v <= 0.0:
        raise DomainError(brief(e), x, f"ln of non-positive value {v}")
    return math.log(v)


def _naive_evaluate(e, x):
    try:
        result = _naive_scalar(e, x)
    except DomainError:
        raise
    except (OverflowError, ValueError) as err:
        raise DomainError(brief(e), x, f"arithmetic failure: {err}") from err
    if not math.isfinite(result):
        raise DomainError(brief(e), x, "non-finite result")
    return result


def _naive_array(e, xs):
    def refuse(bad, reason, operand=None):
        if bad.any():
            k = np.nonzero(bad)[0][0]
            if operand is not None:  # named as the scalar message names it
                reason = f"{reason} {float(operand[k])}"
            raise DomainError(brief(e), float(xs[k]), reason)

    k = e.kind
    if k == ex.CONST:
        return np.full(xs.shape, e.value)
    if k == ex.VAR:
        return xs
    if k in (ex.ADD, ex.SUB, ex.MUL, ex.DIV):
        lv = _naive_array(e.children[0], xs)
        rv = _naive_array(e.children[1], xs)
        if k == ex.ADD:
            return lv + rv
        if k == ex.SUB:
            return lv - rv
        if k == ex.MUL:
            return lv * rv
        refuse(rv == 0.0, "division by zero")
        return lv / rv
    v = _naive_array(e.children[0], xs)
    if k == ex.NEG:
        return -v
    if k == ex.POW:
        if e.value < 0.0:
            refuse(v == 0.0, "zero base with negative exponent")
        if e.value != int(e.value):
            refuse(v < 0.0, "negative base with non-integer exponent")
        return np.power(v, e.value)
    if k == ex.SIN:
        return np.sin(v)
    if k == ex.COS:
        return np.cos(v)
    if k == ex.EXP:
        refuse(v > ex._EXP_OVERFLOW, "exp overflow")
        return np.exp(v)
    refuse(v <= 0.0, "ln of non-positive value", v)
    return np.log(v)


def _naive_evaluate_array(e, xs):
    with np.errstate(all="ignore"):
        result = _naive_array(e, xs)
    bad = ~np.isfinite(result)
    if bad.any():
        raise DomainError(brief(e), float(xs[np.nonzero(bad)[0][0]]), "non-finite result")
    return result


def _outcome(fn, *args):
    """The result's exact bits, or the full DomainError message."""
    try:
        result = fn(*args)
    except DomainError as err:
        return "error", str(err)
    return "value", np.asarray(result, dtype=float).tobytes()


@given(e=expr_trees,
       xs=st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=1, max_size=6))
@settings(max_examples=300, deadline=None)
def test_tape_evaluation_matches_naive_tree_walk(e, xs):
    points = np.array(xs)
    for _ in range(4):  # the expression and its first three derivatives
        assert (_outcome(evaluate_array, e, points)
                == _outcome(_naive_evaluate_array, e, points))
        for x in xs:
            assert _outcome(evaluate, e, x) == _outcome(_naive_evaluate, e, x)
        e = simplify(differentiate(e))


@given(e=expr_trees, x=st.floats(min_value=-2.0, max_value=2.0))
@settings(max_examples=300, deadline=None)
def test_a_shared_memo_values_each_derivative_as_evaluate_does(e, x):
    # one memo for f and its first three derivatives, as expand shares it;
    # the second pass reads the memo that every refusal left partly filled
    chain = [e]
    for _ in range(3):
        chain.append(simplify(differentiate(chain[-1])))
    values = {}
    for d in chain + chain:
        assert _outcome(ex.value_at, d, x, values) == _outcome(evaluate, d, x)


def test_scalar_evaluation_builds_no_tape():
    e = parse("sin(x)*0.8125 + ln(3.0625 + x)/x")  # constants no other test uses
    assert evaluate(e, 0.5) == math.sin(0.5) * 0.8125 + math.log(3.5625) / 0.5
    assert e._tape is None
    evaluate_array(e, np.array([0.5]))
    assert e._tape is not None


# ---------------------------------------------------------------------------
# Derivatives built folded, against the two-pass reference: a raw derivative
# whose nodes only the identities of _build fold, then simplify.  Derivatives
# of simplified expressions are simplified as they are built, so each chain
# must be the reference chain node for node.
# ---------------------------------------------------------------------------

def _raw(kind, kids, value=None):
    """_build without constant folding."""
    zero, one = ex._is_zero, ex._is_one
    if kind == ex.ADD and (zero(kids[0]) or zero(kids[1])):
        return kids[1] if zero(kids[0]) else kids[0]
    if kind == ex.MUL and (zero(kids[0]) or zero(kids[1])):
        return const(0.0)
    if kind == ex.MUL and (one(kids[0]) or one(kids[1])):
        return kids[1] if one(kids[0]) else kids[0]
    if (kind == ex.SUB and zero(kids[1])) or (kind == ex.DIV and one(kids[1])):
        return kids[0]
    if kind == ex.POW and value in (0.0, 1.0):
        return kids[0] if value == 1.0 else const(1.0)
    if kind == ex.NEG and kids[0].kind == ex.NEG:
        return kids[0].children[0]
    return ex.Expr(kind, kids, value)


def _raw_minus(l, r):
    return ex.neg(r) if ex._is_zero(l) and not ex._is_zero(r) else _raw(ex.SUB, (l, r))


def _raw_derivative(e, memo):
    if e in memo:
        return memo[e]
    d = lambda c: _raw_derivative(c, memo)  # noqa: E731
    k, kids = e.kind, e.children
    if k in (ex.CONST, ex.VAR):
        out = const(0.0 if k == ex.CONST else 1.0)
    elif k == ex.ADD:
        out = _raw(ex.ADD, (d(kids[0]), d(kids[1])))
    elif k == ex.SUB:
        out = _raw_minus(d(kids[0]), d(kids[1]))
    elif k == ex.MUL:
        l, r = kids
        out = _raw(ex.ADD, (_raw(ex.MUL, (d(l), r)), _raw(ex.MUL, (l, d(r)))))
    elif k == ex.DIV:
        u, v = kids
        w, c = (v.children[0], v.value) if v.kind == ex.POW and v.value != 0.0 else (v, 1.0)
        num = _raw_minus(_raw(ex.MUL, (d(u), w)),
                         _raw(ex.MUL, (_raw(ex.MUL, (const(c), u)), d(w))))
        out = const(0.0) if ex._is_zero(num) else _raw(ex.DIV, (num, _raw(ex.POW, (w,), c + 1.0)))
    elif ex._is_zero(d(kids[0])):
        out = const(0.0)
    elif k == ex.NEG:
        out = ex.neg(d(kids[0]))
    elif k == ex.LN:
        out = _raw(ex.DIV, (d(kids[0]), kids[0]))
    else:
        u = kids[0]
        outer = {ex.SIN: lambda: ex.cos(u), ex.COS: lambda: ex.neg(ex.sin(u)),
                 ex.EXP: lambda: e,
                 ex.POW: lambda: _raw(ex.MUL, (const(e.value), _raw(ex.POW, (u,), e.value - 1.0)))}
        out = _raw(ex.MUL, (outer[k](), d(u)))
    memo[e] = out
    return out


def _two_pass_chain(f, order):
    chain = [f]
    for _ in range(order + 1):
        chain.append(simplify(_raw_derivative(chain[-1], {})))
    return chain


def _benchmark_expansion_texts():
    """perfbench's EXPANSIONS texts, read without importing the benchmark."""
    import ast
    from pathlib import Path

    source = (Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py").read_text()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and node.targets[0].id == "EXPANSIONS":
            return [text for text, _ in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/workloads.py defines no EXPANSIONS")


def test_folded_chains_are_the_two_pass_chains(monkeypatch):
    from opcalc import taylor
    from opcalc.pool import default_pool
    from opcalc.verify import _expr_corpus

    walked = []

    def counted(e, simplify=simplify):
        walked.append(e)
        return simplify(e)

    monkeypatch.setattr(ex, "simplify", counted)  # simplify recurses through it
    monkeypatch.setattr(taylor, "simplify", counted)
    texts = _benchmark_expansion_texts()
    assert len(texts) == 16
    fs = [parse(t) for t in texts] + [pf.expr for pf in default_pool()] + _expr_corpus()
    for f in fs:
        t = taylor.expand(f, 0.25, 0)
        for _ in range(12):  # simplified as built: simplify returns it at once
            walked.clear()
            t = taylor.ftoc_step(t)
            assert walked == [t.derivative_exprs[-1]], render(f)
        assert all(d is r for d, r in zip(t.derivative_exprs, _two_pass_chain(f, 12))), render(f)
        for k in range(1, 13):
            assert differentiate(t.derivative_exprs[k]) is t.derivative_exprs[k + 1]


def _coefficients(chain, x):
    try:
        return [evaluate(d, x) for d in chain[:-1]]
    except DomainError:
        return None


@given(e=expr_trees, x=st.floats(min_value=-1.5, max_value=1.5))
@example(e=parse("(x-x)/x"), x=1.0)  # builds -r where the reference built 0.0 - r
@example(e=parse("-(x-x)"), x=1.0)   # u' is 0 only once folded: 0.0, not -0.0
@example(e=parse("sin(sin(ln(2.714487946141355e-254*x)))"), x=1.0)
@settings(max_examples=300, deadline=None)
def test_folded_expansion_differs_from_two_pass_only_in_the_sign_of_zero(e, x):
    from opcalc.taylor import expand

    reference = _coefficients(_two_pass_chain(e, 4), x)
    if reference is None:
        with pytest.raises(DomainError):
            expand(e, x, 4)
        return
    got = expand(e, x, 4).coefficients
    for c, r in zip(got, reference):
        assert ex._DOUBLE_BITS(c) == ex._DOUBLE_BITS(r) or c == r == 0.0, (render(e), got, reference)


def test_sign_of_zero_differences_from_the_two_pass_chain():
    from opcalc.taylor import expand

    quotient = expand(parse("(x-x)/x"), 1.0, 2)
    assert _two_pass_chain(parse("(x-x)/x"), 2)[1] is parse("(0.0-(x-x))/x^2.0")
    assert quotient.derivative_exprs[1] is parse("-(x-x)/x^2.0")
    assert ex._DOUBLE_BITS(quotient.coefficients[1]) == ex._DOUBLE_BITS(-0.0)
    assert expand(parse("-(x-x)"), 1.0, 1).derivative_exprs[1] is const(0.0)
    assert _two_pass_chain(parse("-(x-x)"), 1)[1] is const(-0.0)
