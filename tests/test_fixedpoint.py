import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from opcalc import fixedpoint
from opcalc.expr import const, evaluate, mul, parse, sub, var
from opcalc.fixedpoint import (
    IterationDomainError, IterationTrace, PowerMethodResult, SmallMatrix,
    ZeroDerivativeError, ZeroImageError, iterate_scalar, newton, power_method,
    root_as_fixed_point,
)
from opcalc.funcspace import from_expr
from opcalc.rng import CounterStream
from opcalc.verify import VerifyConfig, suite_fixedpoint

DEMO = Path(__file__).resolve().parents[1] / "scripts" / "fixedpoint_demo.py"


def g_of(text):
    return from_expr(parse(text))


# ---------------------------------------------------------------------------
# iterate_scalar
# ---------------------------------------------------------------------------

def test_cosine_iteration_reaches_dottie():
    # brute-force oracle: iterate cos in plain Python
    expected = 1.0
    for _ in range(200):
        expected = math.cos(expected)
    trace = iterate_scalar(g_of("cos(x)"), 1.0, 1e-10, 200)
    assert trace.converged
    assert trace.final() == pytest.approx(expected, abs=1e-9)
    assert trace.final() == pytest.approx(0.7390851332, abs=1e-9)


def test_identity_converges_in_one_step():
    trace = iterate_scalar(g_of("x"), 3.7, 1e-12, 50)
    assert trace.converged
    assert trace.iterations_used == 1
    assert trace.final() == 3.7


def test_doubling_map_diverges():
    trace = iterate_scalar(g_of("2*x"), 1.0, 1e-10, 50)
    assert not trace.converged
    assert trace.iterations_used == 50
    assert all(b > a for a, b in zip(trace.residuals, trace.residuals[1:]))


def test_domain_violation_carries_partial_trace():
    # x -> ln(x) - 1 walks into negative territory from 1.0
    with pytest.raises(IterationDomainError) as err:
        iterate_scalar(g_of("ln(x)-1"), 1.0, 1e-12, 50)
    partial = err.value.trace
    assert partial.iterations_used >= 1
    assert not partial.converged


def test_trace_field_validation():
    with pytest.raises(ValueError):
        IterationTrace((1.0, 2.0), (0.5, 0.5), False, 1)
    with pytest.raises(ValueError):
        IterationTrace((1.0,), (0.5,), False, 1)


# ---------------------------------------------------------------------------
# newton
# ---------------------------------------------------------------------------

def test_newton_sqrt2_trajectory():
    trace = newton(parse("x^2-2"), 1.0, 1e-10, 20)
    assert trace.converged
    assert trace.iterations_used <= 6
    assert trace.iterates[1] == pytest.approx(1.5, abs=1e-12)
    assert trace.iterates[2] == pytest.approx(1.4166667, abs=1e-7)
    assert trace.iterates[3] == pytest.approx(1.4142157, abs=1e-7)
    assert trace.final() == pytest.approx(math.sqrt(2.0), abs=1e-10)


def test_newton_linear_one_step():
    trace = newton(parse("x"), 5.0, 1e-12, 10)
    assert trace.converged
    assert trace.iterations_used == 1
    assert trace.final() == 0.0


def test_newton_zero_derivative():
    with pytest.raises(ZeroDerivativeError) as err:
        newton(parse("x^2"), 0.0, 1e-10, 10)
    assert err.value.iterate == 0.0
    assert err.value.index == 0


def test_newton_quadratic_convergence_ratio():
    # e_{k+1}/e_k^2 approaches 1/(2 sqrt 2) ~ 0.354 for x^2-2
    trace = newton(parse("x^2-2"), 1.0, 1e-14, 20)
    root = math.sqrt(2.0)
    errors = [abs(it - root) for it in trace.iterates]
    ratios = [errors[k + 1] / errors[k] ** 2
              for k in range(1, 4) if errors[k] > 1e-7]
    assert ratios, "expected usable middle iterates"
    for r in ratios:
        assert 0.2 <= r <= 0.6


# ---------------------------------------------------------------------------
# power_method
# ---------------------------------------------------------------------------

def test_power_method_diagonal():
    result = power_method(SmallMatrix([[2.0, 0.0], [0.0, 1.0]]),
                          np.array([1.0, 1.0]) / math.sqrt(2.0), 1e-10, 200)
    assert result.trace.converged
    assert result.eigenvalue == pytest.approx(2.0, abs=1e-8)
    assert abs(result.eigenvector[0]) == pytest.approx(1.0, abs=1e-6)
    assert abs(result.eigenvector[1]) == pytest.approx(0.0, abs=1e-6)


def test_power_method_tied_eigenvalues_do_not_converge():
    result = power_method(SmallMatrix([[0.0, 1.0], [1.0, 0.0]]),
                          np.array([1.0, 0.0]), 1e-10, 60)
    assert not result.trace.converged
    assert result.trace.iterations_used == 60


def test_power_method_symmetric_pair():
    # 2x2 eigen oracle: eigenvalues 3 and 1, dominant vector (1,1)/sqrt(2)
    result = power_method(SmallMatrix([[2.0, 1.0], [1.0, 2.0]]),
                          np.array([1.0, 0.0]), 1e-10, 500)
    assert result.trace.converged
    assert result.eigenvalue == pytest.approx(3.0, abs=1e-8)
    assert abs(result.eigenvector @ (np.ones(2) / math.sqrt(2.0))) == pytest.approx(
        1.0, abs=1e-8)


def test_power_method_residual_bound():
    M = SmallMatrix([[2.0, 1.0], [1.0, 2.0]])
    tol = 1e-9
    result = power_method(M, np.array([1.0, 0.0]), tol, 500)
    residual = np.max(np.abs(M.as_array() @ result.eigenvector
                             - result.eigenvalue * result.eigenvector))
    assert residual <= 10.0 * tol * abs(result.eigenvalue)


def test_power_method_negative_dominant_eigenvalue():
    # eigenvalues -3 and 1: sign alignment must still detect convergence
    result = power_method(SmallMatrix([[-1.0, 2.0], [2.0, -1.0]]),
                          np.array([0.9, 0.1]), 1e-10, 500)
    assert result.trace.converged
    assert result.eigenvalue == pytest.approx(-3.0, abs=1e-8)


def test_power_method_guards():
    M = SmallMatrix([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        power_method(M, np.zeros(2), 1e-10, 10)
    with pytest.raises(ValueError):
        power_method(M, np.ones(3), 1e-10, 10)
    singular = SmallMatrix([[0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ZeroImageError):
        power_method(singular, np.ones(2), 1e-10, 10)


def test_small_matrix_validation():
    with pytest.raises(ValueError):
        SmallMatrix([[1.0]])
    with pytest.raises(ValueError):
        SmallMatrix(np.ones((17, 17)))
    with pytest.raises(ValueError):
        SmallMatrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    with pytest.raises(ValueError):
        SmallMatrix([[1.0, math.inf], [0.0, 1.0]])


def test_power_method_zero_image_names_the_iterate():
    # [[0,1],[0,0]] maps e2 to e1 (step 0) and e1 to zero (step 1)
    with pytest.raises(ZeroImageError, match="^matrix maps iterate 1 to zero$"):
        power_method(SmallMatrix([[0.0, 1.0], [0.0, 0.0]]), np.array([0.0, 1.0]),
                     1e-10, 10)


def test_power_method_eigenvector_is_not_the_traced_array():
    result = power_method(SmallMatrix([[2.0, 1.0], [1.0, 2.0]]),
                          np.array([1.0, 0.0]), 1e-10, 500)
    assert result.eigenvector is not result.trace.iterates[-1]
    assert np.array_equal(result.eigenvector, result.trace.iterates[-1])


# ---------------------------------------------------------------------------
# the shared loop
# ---------------------------------------------------------------------------

def test_zero_iterations_return_the_start_alone():
    for trace in (iterate_scalar(g_of("cos(x)"), 1.0, 1e-10, 0),
                  newton(parse("x^2-2"), 1.0, 1e-10, 0)):
        assert trace.iterates == (1.0,)
        assert trace.residuals == ()
        assert not trace.converged
        assert trace.iterations_used == 0
    result = power_method(SmallMatrix([[2.0, 1.0], [1.0, 2.0]]),
                          np.array([3.0, 4.0]), 1e-10, 0)
    assert not result.trace.converged
    assert result.trace.residuals == ()
    assert np.array_equal(result.trace.iterates[0], [0.6, 0.8])
    assert result.eigenvalue == pytest.approx(2.96, abs=1e-15)


@pytest.mark.parametrize("tol", [-1.0, -1e-300, math.nan])
def test_every_method_rejects_a_tolerance_that_is_not_at_least_zero(tol):
    with pytest.raises(ValueError, match="tol must be >= 0"):
        iterate_scalar(g_of("cos(x)"), 1.0, tol, 40)
    with pytest.raises(ValueError, match="tol must be >= 0"):
        newton(parse("x^2-2"), 1.0, tol, 50)
    with pytest.raises(ValueError, match="tol must be >= 0"):
        power_method(SmallMatrix([[2.0, 1.0], [1.0, 2.0]]), np.array([1.0, 0.0]), tol, 500)


def test_zero_tolerance_converges_on_an_exact_residual():
    assert newton(parse("2*x-1"), 0.0, 0.0, 5).converged
    assert iterate_scalar(g_of("x"), 2.0, 0.0, 5).converged


def test_trace_integrity_fails_on_a_misrecorded_residual(monkeypatch):
    def skewed(*args):
        trace = iterate_scalar(*args)
        return replace(trace, residuals=tuple(r * (1 + 1e-12) for r in trace.residuals))

    def integrity():
        reports = suite_fixedpoint(VerifyConfig(suites=("fixedpoint",)))
        return next(r for r in reports if r.name == "fixedpoint.trace_integrity")

    report = integrity()
    assert report.passed and report.measured_gap == 0.0
    monkeypatch.setattr(fixedpoint, "iterate_scalar", skewed)
    assert not integrity().passed


def test_demo_drives_all_three_methods():
    proc = subprocess.run([sys.executable, str(DEMO)], capture_output=True,
                          text=True, check=True)
    assert "0.7390851332" in proc.stdout          # the Dottie number
    assert "x=1.414213562373" in proc.stdout
    assert "eigenvalue 3.0000000000" in proc.stdout


# ---------------------------------------------------------------------------
# root_as_fixed_point
# ---------------------------------------------------------------------------

def test_root_rewriting_at_sqrt2():
    g = root_as_fixed_point(parse("x^2-2"))
    r = math.sqrt(2.0)
    assert g(r) == pytest.approx(r, abs=1e-9)


def test_root_rewriting_zero_function_is_identity():
    g = root_as_fixed_point(parse("0"))
    for x in (-3.0, 0.0, 1.7):
        assert g(x) == x


def test_root_rewriting_sin_roots_fixed():
    g = root_as_fixed_point(parse("sin(x)"))
    assert g(0.0) == 0.0
    assert g(math.pi) == pytest.approx(math.pi, abs=1e-12)


def test_fixed_point_equivalence_random_cubics():
    # 20 random cubics with well separated roots; Newton finds one, and the
    # rewritten map fixes it
    stream = CounterStream(seed=2024)
    built = 0
    while built < 20:
        roots = sorted(stream.uniform(-2.0, 2.0) for _ in range(3))
        if min(roots[1] - roots[0], roots[2] - roots[1]) < 0.3:
            continue
        built += 1
        f = mul(mul(sub(var(), const(roots[0])), sub(var(), const(roots[1]))),
                sub(var(), const(roots[2])))
        trace = newton(f, roots[0] + 0.05, 1e-12, 100)
        assert trace.converged
        r = trace.final()
        g = root_as_fixed_point(f)
        assert abs(g(r) - r) <= 1e-9
