"""Self-tests of the benchmark's oracles, checks and tracer.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

import mpmath
import pytest

import checks
import oracles
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


# -- oracles ---------------------------------------------------------------

def test_exp_derivatives_are_one():
    for d in oracles.derivatives("exp(x)", 0.0, 12):
        assert abs(d - 1) < mpmath.mpf(10) ** -25


def test_log_derivatives_at_zero():
    derivs = oracles.derivatives("ln(1+x)", 0.0, 10)
    assert abs(derivs[0]) < mpmath.mpf(10) ** -30
    for n in range(1, 11):
        exact = (-1) ** (n - 1) * math.factorial(n - 1)
        assert abs(derivs[n] - exact) < mpmath.mpf(10) ** -20 * math.factorial(n)


def test_expression_translation_keeps_precedence():
    assert oracles.mp_function("-x^2")(3) == -9
    assert oracles.mp_function("(1+x)^(-1)")(mpmath.mpf(1)) == 0.5
    assert abs(oracles.mp_function("exp(-x^2)")(1) - mpmath.exp(-1)) < 1e-30


def test_root_and_simplex_volume():
    with mpmath.workdps(oracles.DPS):
        assert abs(oracles.root("x^2-2", 1.0) - mpmath.sqrt(2)) < 1e-25
    assert oracles.simplex_volume(3, -0.5, 1.0) == 1.5 ** 3 / 6


# -- checks reject wrong outputs ------------------------------------------

def _expand_doc(text, a, order, points):
    derivs = oracles.derivatives(text, a, order)
    rows = [{"row_type": "coefficient", "n": n, "derivative_at_base": float(d),
             "x": None, "polynomial_value": None} for n, d in enumerate(derivs)]
    rows += [{"row_type": "evaluation", "n": None, "derivative_at_base": None,
              "x": x, "polynomial_value": float(oracles.polynomial(derivs, a, x))}
             for x in points]
    poly = {x: oracles.polynomial(derivs, a, x) for x in points}
    return {"rows": rows}, derivs, poly


def test_expand_check_rejects_coefficient_off_by_1e6_relative():
    doc, derivs, poly = _expand_doc("cos(x)/(2+x)", 0.25, 6, (0.5, -0.1))
    assert checks.check_expand(doc, derivs, poly) == []
    doc["rows"][4]["derivative_at_base"] *= 1 + 1e-6
    assert checks.check_expand(doc, derivs, poly)


def test_expand_check_rejects_wrong_polynomial_value():
    doc, derivs, poly = _expand_doc("ln(1+x)", 0.0, 8, (0.3,))
    doc["rows"][-1]["polynomial_value"] *= 1 + 1e-6
    assert checks.check_expand(doc, derivs, poly)


def _remainder_doc(text, order, points):
    derivs = oracles.derivatives(text, 0.0, order)
    refs = {x: oracles.remainder(text, derivs, 0.0, x) for x in points}
    rows = [{"x": x, "direct": float(r), "exact_integral": float(r),
             "nested_integral": float(r) if order <= 3 else None,
             "sliced": float(r), "bound": 2 * abs(float(r)), "max_gap": 0.0}
            for x, r in refs.items()]
    return {"rows": rows}, refs


@pytest.mark.parametrize("order, route", [(2, "nested_integral"), (2, "sliced"),
                                          (4, "exact_integral"), (5, "direct")])
def test_remainder_check_rejects_route_off_by_1e5(order, route):
    doc, refs = _remainder_doc("exp(x)", order, (-0.9, 0.4, 1.0))
    assert checks.check_remainder(doc, order, refs) == []
    doc["rows"][1][route] += 1e-5
    assert checks.check_remainder(doc, order, refs)


def test_remainder_check_rejects_nested_past_the_cap_and_low_bound():
    doc, refs = _remainder_doc("sin(x)", 4, (0.8,))
    doc["rows"][0]["nested_integral"] = doc["rows"][0]["direct"]
    assert checks.check_remainder(doc, 4, refs)
    doc, refs = _remainder_doc("sin(x)", 4, (0.8,))
    doc["rows"][0]["bound"] = 0.5 * abs(doc["rows"][0]["direct"])
    assert checks.check_remainder(doc, 4, refs)


def test_basis_and_newton_checks():
    assert checks.check_basis(5, 2.0 ** 5 / 120, oracles.simplex_volume(5, 0.0, 2.0)) == []
    assert checks.check_basis(5, 2.0 ** 5 / 120 + 2e-9,
                              oracles.simplex_volume(5, 0.0, 2.0))
    ok = {"rows": [{"iterate": math.sqrt(2.0)}], "invariants": [{"pass": True}]}
    assert checks.check_newton(ok, oracles.root("x^2-2", 1.0)) == []
    off = {"rows": [{"iterate": math.sqrt(2.0) + 1e-9}], "invariants": [{"pass": True}]}
    assert checks.check_newton(off, oracles.root("x^2-2", 1.0))


def _simplex_doc(n=3, samples=200_000):
    exact = oracles.simplex_volume(n, 0.0, 1.0)
    se = math.sqrt(exact * (1 - exact) / samples)
    row = {"n": n, "samples": samples, "exact_volume": exact,
           "estimate": exact + se, "std_error": se, "classified": samples - 2,
           "discarded_duplicates": 2, "partition_pass": True}
    return {"rows": [row]}, exact


def test_simplex_check_rejects_estimate_six_standard_errors_out():
    doc, exact = _simplex_doc()
    assert checks.check_simplex(doc, exact, partitioned=True) == []
    row = doc["rows"][0]
    row["estimate"] = exact + 6 * row["std_error"]
    assert checks.check_simplex(doc, exact, partitioned=True)


@pytest.mark.parametrize("field, value", [
    ("std_error", 0.0), ("partition_pass", False), ("classified", 200_000),
    ("exact_volume", math.nextafter(1 / 6, 1.0))])
def test_simplex_check_rejects(field, value):
    doc, exact = _simplex_doc()
    doc["rows"][0][field] = value
    assert checks.check_simplex(doc, exact, partitioned=True)


def _verify_doc(suites, failing=()):
    invariants = [{"name": n, "pass": n not in failing, "measured_gap": 0.0,
                   "threshold": 1.0}
                  for n in checks.VERIFY_INVARIANTS if n.split(".")[0] in suites]
    return {"invariants": invariants}


def test_verify_check_rejects_an_unflagged_fault():
    fault = ("operators.basis_closed_form",)
    flagged = _verify_doc(("operators",), failing=fault)
    assert checks.check_verify(flagged, 1, "failed invariants: " + fault[0],
                               ("operators",), fault) == []
    unflagged = _verify_doc(("operators",))
    assert checks.check_verify(unflagged, 0, "", ("operators",), fault)
    assert checks.check_verify(unflagged, 1, "", ("operators",), fault)


def test_verify_check_rejects_failing_or_missing_invariants():
    suites = ("expr", "taylor")
    assert checks.check_verify(_verify_doc(suites), 0, "", suites) == []
    failing = _verify_doc(suites, failing=("taylor.exchange_identity",))
    assert checks.check_verify(failing, 1, "", suites)
    missing = _verify_doc(suites)
    missing["invariants"].pop(0)
    assert checks.check_verify(missing, 0, "", suites)


# -- workloads, tracer, command ------------------------------------------

def test_inputs_come_from_the_seed():
    for w in workloads.WORKLOADS:
        first = [(op.kind, op.args) for op in workloads.build(w, 7)]
        assert first == [(op.kind, op.args) for op in workloads.build(w, 7)]
        assert first != [(op.kind, op.args) for op in workloads.build(w, 8)]


def test_benchmark_json_names_match():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(tracer.PER_LAYER)
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "wall_s", "peak_rss_mb"]


def test_tree_stats_counts_shared_and_signed_zero_nodes():
    Node = namedtuple("Node", "kind value children")
    zero, negzero = Node("const", 0.0, ()), Node("const", -0.0, ())
    x = Node("var", None, ())
    prod = Node("mul", None, (x, zero))
    root = Node("add", None, (prod, Node("mul", None, (x, zero)), ))
    assert tracer.tree_stats(root) == (7, 4)
    assert tracer.tree_stats(Node("add", None, (zero, negzero))) == (3, 3)


_TRACE_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from tracer import Tracer
t = Tracer(0.0)
t.install()
from opcalc import expr, operators, taylor
t.begin_round()
taylor.expand(expr.parse("exp(x)*x"), 0.0, 3)
operators.iterated_integral_one(3, 0.0, 1.0)
print(json.dumps(t.end_round()))
"""


def test_tracer_counts_outermost_calls_and_every_panel():
    proc = subprocess.run([sys.executable, "-c", _TRACE_PROBE, str(HERE)],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    v = json.loads(proc.stdout)
    assert v["taylor.ftoc_step_calls"] == 3
    assert v["expr.differentiate_calls"] == 4
    assert v["operators.basis_d3_panels"] == 241 == v["funcspace.panels"]
    assert v["funcspace.integrand_points"] == 15 * 241
    assert v["expr.tree_nodes"] > 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "simplex", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
