import ast
import csv
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from opcalc import verify
from opcalc.cli import build_parser, main
from opcalc.pool import default_pool
from opcalc.report import Worst
from opcalc.taylor import expand, remainder_routes
from opcalc.verify import VerifyConfig, run_suites

PKG_ENV = {"PYTHONPATH": "src"}
SRC = Path(__file__).resolve().parent.parent / "src"


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_json(out):
    doc = json.loads(out)
    assert set(doc.keys()) == {"command", "config", "rows", "invariants"}
    return doc


# ---------------------------------------------------------------------------
# expand
# ---------------------------------------------------------------------------

def test_expand_exp_coefficients(capsys):
    code, out, _ = run_main(capsys, "expand", "--f", "exp(x)", "--a", "0",
                            "--n", "3", "--format", "json")
    assert code == 0
    doc = parse_json(out)
    coeff_rows = [r for r in doc["rows"] if r["row_type"] == "coefficient"]
    assert [r["derivative_at_base"] for r in coeff_rows] == [1, 1, 1, 1]
    assert coeff_rows[3]["taylor_coefficient"] == pytest.approx(1 / 6)


def test_expand_order_zero(capsys):
    code, out, _ = run_main(capsys, "expand", "--f", "x^2", "--a", "1", "--n", "0")
    assert code == 0
    doc = parse_json(out)
    assert [r["derivative_at_base"] for r in doc["rows"]] == [1]


def test_expand_with_points(capsys):
    code, out, _ = run_main(capsys, "expand", "--f", "exp(x)", "--a", "0",
                            "--n", "2", "--points", "1.0")
    assert code == 0
    doc = parse_json(out)
    evals = [r for r in doc["rows"] if r["row_type"] == "evaluation"]
    assert evals[0]["polynomial_value"] == 2.5


def test_expand_parse_error_exit_two(capsys):
    code, out, err = run_main(capsys, "expand", "--f", "x^^2", "--a", "0", "--n", "1")
    assert code == 2
    assert out == ""
    assert "offset 2" in err


def test_expand_csv_header(capsys):
    code, out, _ = run_main(capsys, "expand", "--f", "x", "--a", "0", "--n", "1",
                            "--format", "csv")
    assert code == 0
    reader = csv.reader(io.StringIO(out))
    header = next(reader)
    assert header == ["row_type", "n", "derivative_at_base",
                      "taylor_coefficient", "x", "polynomial_value"]
    assert out.endswith("\r\n")


# ---------------------------------------------------------------------------
# remainder
# ---------------------------------------------------------------------------

def test_remainder_exp_row(capsys):
    code, out, _ = run_main(capsys, "remainder", "--f", "exp(x)", "--a", "0",
                            "--n", "2", "--points", "1.0")
    assert code == 0
    row = parse_json(out)["rows"][0]
    assert row["bound"] == pytest.approx(0.45304697, abs=1e-6)
    assert abs(row["direct"]) == pytest.approx(0.21828183, abs=1e-6)
    assert row["bound"] >= abs(row["direct"])
    assert row["max_gap"] <= 1e-6


def test_remainder_at_base_point(capsys):
    code, out, _ = run_main(capsys, "remainder", "--f", "sin(x)", "--a", "0.5",
                            "--n", "2", "--points", "0.5")
    assert code == 0
    row = parse_json(out)["rows"][0]
    for key in ("direct", "exact_integral", "nested_integral", "sliced"):
        assert row[key] == 0.0


def test_remainder_depth_guard_nulls_nested(capsys):
    code, out, _ = run_main(capsys, "remainder", "--f", "exp(x)", "--a", "0",
                            "--n", "5", "--points", "0.5")
    assert code == 0
    row = parse_json(out)["rows"][0]
    assert row["nested_integral"] is None
    assert row["max_gap"] <= 1e-7


def test_remainder_nested_route_resolves_a_kink(capsys):
    # D f jumps at 0.3, so the nest's panels must bisect towards the jump
    code, out, err = run_main(capsys, "remainder", "--f", "((x-0.3)^2)^0.5*x",
                              "--n", "0", "--points", "1")
    assert code == 0, err
    assert abs(parse_json(out)["rows"][0]["nested_integral"] - 0.7) <= 1e-9


def test_remainder_requires_points(capsys):
    code, _, err = run_main(capsys, "remainder", "--f", "x", "--a", "0", "--n", "1")
    assert code == 2
    assert "points" in err


def test_remainder_range_flag(capsys):
    code, out, _ = run_main(capsys, "remainder", "--f", "sin(x)", "--a", "0",
                            "--n", "1", "--range", "0.1", "0.5", "3")
    assert code == 0
    doc = parse_json(out)
    assert [r["x"] for r in doc["rows"]] == pytest.approx([0.1, 0.3, 0.5])


@pytest.mark.parametrize("count", ["inf", "2.5", "nan", "0", "-3"])
def test_remainder_range_count_must_be_a_positive_integer(capsys, count):
    code, out, err = run_main(capsys, "remainder", "--f", "sin(x)", "--a", "0",
                              "--n", "1", "--range", "0.1", "0.5", count)
    assert code == 2
    assert out == ""
    assert err == "error: --range COUNT must be a positive integer\n"


def test_range_count_is_capped(capsys):
    # 1e9 would build a billion points before any work
    for count in ("1000001", "1e9"):
        code, out, err = run_main(capsys, "expand", "--f", "x", "--n", "1",
                                  "--range", "0", "1", count)
        assert code == 2
        assert out == ""
        assert err == "error: --range COUNT must be at most 1000000\n"


def test_remainder_range_count_may_be_written_as_a_float(capsys):
    argv = ["remainder", "--f", "sin(x)", "--a", "0", "--n", "1", "--range", "0.1", "0.5"]
    assert run_main(capsys, *argv, "3.0") == run_main(capsys, *argv, "3")


@pytest.mark.parametrize("argv", [
    ("expand", "--f", "x", "--n", "0", "--range", "-1e308", "1e308", "3"),  # HI - LO overflows
    ("remainder", "--f", "x", "--n", "0", "--range", "-1e308", "1e308", "3"),
    ("expand", "--f", "x", "--n", "0", "--range", "-1e308", "7e307", "1001"),  # (HI - LO) * k does
])
def test_range_points_must_be_finite(capsys, argv):
    assert run_main(capsys, *argv) == (
        2, "", "error: --range gives points that are not finite; narrow LO..HI\n")


_REMAINDER = ("remainder", "--f", "sin(x)", "--n", "1")


@pytest.mark.parametrize("argv", [
    (*_REMAINDER, "--points", "0.5", "--rel-tol", "nan"),
    (*_REMAINDER, "--points", "0.5", "--tol", "inf"),
    (*_REMAINDER, "--points", "0.5,nan"),
    (*_REMAINDER, "--range", "0", "inf", "3"),
    (*_REMAINDER, "--range", "nan", "1", "3"),
    (*_REMAINDER, "--points", "0.5", "--a", "-inf"),
    ("expand", "--f", "sin(x)", "--n", "1", "--a", "nan"),
    ("fixedpoint", "--f", "x^2-2", "--x0", "1", "--tol", "nan"),
    ("fixedpoint", "--f", "x^2-2", "--x0", "inf"),
    ("fixedpoint", "--f", "x^2-2", "--x0", "1", "--max-iter", "-1"),
    ("fixedpoint", "--f", "x^2-2", "--x0", "1", "--max-iter", "1000001"),
    ("simplex", "--n", "3", "--x", "nan"),
    ("verify", "--suite", "expr", "--perturb-basis", "inf"),
])
def test_non_finite_numbers_are_usage_errors(capsys, argv):
    code, out, err = run_main(capsys, *argv)
    assert code == 2
    assert out == ""
    assert 0 < len(err) <= 1024


@pytest.mark.parametrize("argv, key, value", [
    (("expand", "--f", "x", "--n", "1", "--a", "-1e-3"), "a", -1e-3),
    (("fixedpoint", "--f", "x^2-2", "--x0", "-2e0"), "x0", -2.0),
    (("simplex", "--n", "2", "--a", "-1e0", "--samples", "1000"), "a", -1.0),
    (("remainder", "--f", "sin(x)", "--n", "1", "--range", "-1e-1", "1", "3"),
     "points", [-0.1, 0.45, 1.0]),
    (("remainder", "--f", "sin(x)", "--n", "1", "--points", "-0.5,0.5"),
     "points", [-0.5, 0.5]),
])
def test_flag_values_may_be_negative_numbers_in_any_notation(capsys, argv, key, value):
    code, out, err = run_main(capsys, *argv)
    assert code == 0, err
    assert parse_json(out)["config"][key] == pytest.approx(value)


@pytest.mark.parametrize("text, code, offset", [
    ("1e999*x", 2, 0),
    ("x^1e999", 2, 2),
    ("x^(-1e999)", 2, 4),
    ("2*x+1e400", 2, 4),
    ("1e-999*x", 0, None),     # underflows to 0.0: still a number
    ("1e308*10*x", 3, None),   # finite literals whose product overflows
])
def test_overflowing_number_literals_are_parse_errors(capsys, text, code, offset):
    got, out, err = run_main(capsys, "expand", "--f", text, "--n", "1")
    assert got == code
    if offset is not None:
        assert out == ""
        assert err == (f"error: parse error at offset {offset}: number overflows "
                       f"a float (expected a finite number)\n")


def test_remainder_domain_violation_exit_three(capsys):
    code, _, err = run_main(capsys, "remainder", "--f", "ln(x)", "--a", "1",
                            "--n", "2", "--points", "-0.5")
    assert code == 3
    assert "numeric failure" in err
    # the array evaluator names the operand, as evaluate does
    assert err.rstrip().endswith("ln of non-positive value -0.5")


def test_remainder_overflowing_kernel_is_a_domain_failure_without_warnings(capsys):
    # (x-s)^12/12! overflows at x = 1e30, and times f^(13) = 0 it is NaN
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_main(capsys, "remainder", "--f", "x^5", "--a", "0",
                                  "--n", "12", "--points", "1e30")
    assert code == 3 and out == ""
    assert "non-finite result" in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_remainder_of_1_over_x_near_its_pole(capsys):
    # one panel underestimates the integral of f^(3) = -6/x^4 on [0.001, 1]
    # by far, so the float floor must follow the panels' summed integrals
    code, out, err = run_main(capsys, "remainder", "--f", "1/x", "--a", "1",
                              "--n", "2", "--points", "0.001")
    assert code == 0, err
    row = parse_json(out)["rows"][0]
    assert row["direct"] == pytest.approx(997.002999, rel=1e-12)  # 1000 - P_2(0.001)
    for key in ("exact_integral", "nested_integral", "sliced"):
        assert abs(row[key] - row["direct"]) <= 1e-9 * abs(row["direct"]), key


@pytest.mark.parametrize("text", ["x " + "1" * 5000, "y" * 5000])
def test_parse_error_quotes_a_bounded_token(capsys, text):
    code, out, err = run_main(capsys, "expand", "--f", text, "--n", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: parse error at offset ")
    assert len(err.encode()) <= 1024
    assert "...'" in err


@pytest.mark.parametrize("f, n, points", [
    ("ln(1+x)", "1", "0.5,-1.5"),
    # routes run over all points in turn, so the second point's domain
    # violation (direct route) comes before the first point's quadrature failure
    ("ln(1+x)", "3", "-0.999999,-1.5"),
])
def test_remainder_failure_over_several_points_is_one_line(capsys, f, n, points):
    code, out, err = run_main(capsys, "remainder", "--f", f, "--n", n,
                              "--points=" + points)
    assert code == 3
    assert out == ""
    assert err.startswith("numeric failure: ") and err.count("\n") == 1


def _limit_address_space():
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_unresolvable_remainder_stops_at_the_panel_cap_in_bounded_memory():
    # f^(5) of |x-0.3|*x cancels catastrophically near 0.3, so no panel
    # count meets the budget: quadrature must stop at its panel cap, not
    # grow until memory runs out
    proc = subprocess.run(
        [sys.executable, "-m", "opcalc", "remainder", "--f", "((x-0.3)^2)^0.5*x",
         "--n", "4", "--points", "1.0"],
        capture_output=True, text=True, timeout=60, preexec_fn=_limit_address_space,
        env={**__import__("os").environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("numeric failure: quadrature")
    assert proc.stderr.count("\n") == 1
    assert "at the cap of 1024 panels for one point" in proc.stderr


def test_remainder_keeps_the_row_when_only_a_cross_check_route_fails(capsys):
    # f^(3) = 1.875 x^-0.5 is unbounded on [0, 1]: the bound's sup samples x = 0
    code, out, err = run_main(capsys, "remainder", "--f", "x^2.5", "--a", "0",
                              "--n", "2", "--points", "1")
    assert code == 0
    row = parse_json(out)["rows"][0]
    assert row["bound"] is None
    assert abs(row["exact_integral"] - 1.0) <= 1e-11
    assert abs(row["nested_integral"] - 1.0) <= 1e-11
    assert row["max_gap"] == max(abs(row[k] - 1.0) for k in
                                 ("exact_integral", "nested_integral", "sliced"))
    assert err == ("warning: bound is null where it fails: domain violation in "
                   "'x^-0.5' at x=0.0: zero base with negative exponent\n")


def test_remainder_keeps_the_rows_a_cross_check_route_can_serve(capsys):
    code, out, err = run_main(capsys, "remainder", "--f", "x^2.5", "--a", "0.5",
                              "--n", "2", "--points=1,0")
    assert code == 0
    bounds = [row["bound"] for row in parse_json(out)["rows"]]
    assert bounds[0] > 0.0 and bounds[1] is None
    assert err.startswith("warning: bound is null where it fails: ") and err.count("\n") == 1


def test_pool_remainder_rows_keep_a_numeric_bound():
    for pf in default_pool():
        for order in range(6):
            t = expand(pf.expr, pf.base, order)
            rows = remainder_routes(t, [pf.probe_lo, pf.probe_hi])
            assert all(isinstance(row["bound"], float) for row in rows), pf.label


def _cli_process(*argv):
    return subprocess.run([sys.executable, "-m", "opcalc", *argv], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})


@pytest.mark.parametrize("text, order, code", [
    ("+".join(["x"] * 500), "1", 3),
    ("+".join(["x"] * 480), "1", 0),
    ("sin(" * 60 + "x" + ")" * 60, "12", 3),
    ("sin(" * 40 + "x" + ")" * 40, "12", 0),
    ("sin(" * 35 + "x" + ")" * 35, "12", 0),
])
def test_an_expression_too_deep_for_the_recursion_limit_exits_three_in_one_line(text, order, code):
    proc = _cli_process("expand", "--f", text, "--n", order)
    assert proc.returncode == code, proc.stderr[-300:]
    if code:
        assert proc.stdout == ""
        assert proc.stderr.startswith("numeric failure: maximum recursion depth exceeded")
        assert proc.stderr.count("\n") == 1 and len(proc.stderr) <= 300


@pytest.mark.parametrize("argv, code, named", [
    (("expand", "--f", "exp(x)", "--n", "3", "--points", "1e200"), 3, "x=1e+200"),
    (("remainder", "--f", "sin(x)", "--n", "5", "--points", "1e100"), 3, "x="),
    (("simplex", "--n", "2", "--a", "0", "--x", "1e200"), 2, "n=2, a=0.0, x=1e+200"),
    (("simplex", "--n", "3", "--a", "-1e308", "--x", "1e308"), 2, "n=3, a=-1e+308, x=1e+308"),
    (("simplex", "--n", "12", "--a", "0", "--x", "1e-30", "--samples", "1000"), 2,
     "underflows to 0 at n=12, a=0.0, x=1e-30"),
    (("simplex", "--n", "3", "--x", "1e-200"), 2, "underflows to 0 at n=3, a=0.0, x=1e-200"),
    (("remainder", "--f", "sin(x)", "--n", "5", "--points", "0.5,1e100"), 3,
     "not finite at x=1e+100: -inf"),
    # the quadrature engine's products overflow without a numpy warning
    (("remainder", "--f", "exp(x)", "--n", "1", "--points", "709.7"), 3,
     "numeric failure: exact_integral is not finite at x=709.7: inf"),
    # (x-t)^4 overflows in the exact route's kernel: the node and its limit
    (("remainder", "--f", "x", "--n", "4", "--points", "1e80"), 3,
     "non-finite result in the integral to x=1e+80"),
    # x - a overflows in P_N's shifted variable, and f(x) - P_N(x) at order 0
    (("remainder", "--f", "x", "--n", "3", "--a", "-1e308", "--points", "1e308"), 3,
     "f(x) - P_N(x) is not finite at x=1e+308"),
    (("remainder", "--f", "x", "--n", "0", "--a", "-1e308", "--points", "1e308"), 3,
     "f(x) - P_N(x) is not finite at x=1e+308: inf"),
    (("expand", "--f", "x", "--n", "1", "--a", "-1e308", "--points", "1e308"), 3,
     "P_N is not finite at x=1e+308"),
])
def test_an_overflow_exits_in_one_line_naming_its_point_or_cell(argv, code, named):
    proc = _cli_process(*argv)  # numpy's warnings would reach stderr here too
    assert proc.returncode == code and proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and named in proc.stderr, proc.stderr


def test_a_bound_that_overflows_is_null_naming_its_route_and_point():
    # sup|exp| * 700^2/2 overflows a float; every other route is about 1.0142e304
    proc = _cli_process("remainder", "--f", "exp(x)", "--n", "1", "--points", "700")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "warning: bound is null where it is not finite, first at x=700.0: inf\n"
    row = json.loads(proc.stdout)["rows"][0]
    assert row["bound"] is None
    assert all(abs(row[k] / 1.0142e304 - 1.0) < 1e-4
               for k in ("direct", "exact_integral", "nested_integral", "sliced"))


@pytest.mark.parametrize("f, x", [("x", "1e80"), ("x^3", "1e79")])
def test_a_far_point_with_a_zero_residual_is_0_on_every_route(f, x):
    # the nest's kernel bound times |x - a| overflows, and so does (x - a)^4 in
    # the bound; with f^(4) = 0 both are 0, not NaN and not an OverflowError
    proc = _cli_process("remainder", "--f", f, "--n", "3", "--points", x)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    row = json.loads(proc.stdout)["rows"][0]
    assert [row[k] for k in ("direct", "exact_integral", "nested_integral", "sliced",
                             "bound", "max_gap")] == [0] * 6


def test_a_nest_whose_error_overflows_is_null_not_wrong():
    # at 705 the nest's float floor overflows, so its error cannot be bounded
    proc = _cli_process("remainder", "--f", "exp(x)", "--n", "1", "--points", "705")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == (
        "warning: nested_integral is null where it is not finite, first at x=705.0: inf\n"
        "warning: bound is null where it is not finite, first at x=705.0: inf\n")
    row = json.loads(proc.stdout)["rows"][0]
    assert row["nested_integral"] is None and row["bound"] is None
    assert all(abs(row[k] / 1.5052538330631938e306 - 1.0) < 1e-12
               for k in ("direct", "exact_integral", "sliced"))


def test_a_monte_carlo_estimate_with_no_spread_that_misses_the_volume_is_refused():
    # one sample, and it lands in the n=2 cell: estimate 1 against 0.5, standard error 0
    proc = _cli_process("simplex", "--n", "2", "--samples", "1", "--seed", "6")
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("raise --samples\n")
    # at n=1 the cell is the cube, so the same sample is exact
    proc = _cli_process("simplex", "--n", "1", "--samples", "1", "--seed", "6")
    assert (proc.returncode, proc.stderr) == (0, "")
    row = json.loads(proc.stdout)["rows"][0]
    assert row["estimate"] == row["exact_volume"] == 1.0 and row["z_score"] == 0.0


@pytest.mark.parametrize("text", ["(" * 1000 + "x" + ")" * 1000, "-" * 3000 + "x"])
def test_an_expression_nested_too_deeply_to_parse_is_a_parse_error(capsys, text):
    code, out, err = run_main(capsys, "expand", f"--f={text}", "--n", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: parse error at offset ")
    assert err.endswith(": expression nested too deeply\n") and err.count("\n") == 1


@pytest.mark.parametrize("text, offset, char", [("é", 0, "é"), ("x+١", 2, "١")])
def test_a_character_outside_ascii_is_a_parse_error(capsys, text, offset, char):
    code, out, err = run_main(capsys, "expand", "--f", text, "--n", "1")
    assert (code, out) == (2, "")
    assert err == f"error: parse error at offset {offset}: unknown token {char!r}\n"


def test_an_underflowing_constant_is_not_folded_into_a_wrong_derivative(capsys):
    code, out, err = run_main(capsys, "expand", "--f", "ln(1e-200*x)", "--a", "1", "--n", "3")
    assert (code, out) == (3, "")
    assert err.count("\n") == 1 and err.endswith(": division by zero\n"), err
    code, out, _ = run_main(capsys, "expand", "--f", "ln(1e-100*x)", "--a", "1", "--n", "3")
    assert code == 0
    assert [row["derivative_at_base"] for row in parse_json(out)["rows"][2:]] == [-1, 2]


# ---------------------------------------------------------------------------
# simplex
# ---------------------------------------------------------------------------

def test_simplex_three_dimensional(capsys):
    code, out, _ = run_main(capsys, "simplex", "--n", "3", "--samples",
                            "200000", "--seed", "7")
    assert code == 0
    row = parse_json(out)["rows"][0]
    assert row["exact_volume"] == pytest.approx(1 / 6)
    assert abs(row["z_score"]) <= 4.0
    assert row["partition_pass"] is True
    assert row["classified"] + row["discarded_duplicates"] == 200000


def test_simplex_one_dimensional_exact(capsys):
    code, out, _ = run_main(capsys, "simplex", "--n", "1", "--samples", "1000")
    assert code == 0
    row = parse_json(out)["rows"][0]
    assert row["estimate"] == row["exact_volume"] == 1.0
    assert row["std_error"] == 0.0
    assert row["partition_pass"] is None


def test_simplex_unsampled_cell_is_numeric_failure(capsys):
    # the n=9 cell is 1/362880 of the cube: 1e5 samples at seed 2024 miss it,
    # and a zero hit count must not be reported as perfect agreement
    code, out, err = run_main(capsys, "simplex", "--n", "9", "--samples", "100000")
    assert code == 3
    assert out == ""
    assert "--samples" in err


_PARTITION_FIELDS = ("classified", "discarded_duplicates", "chi_square",
                     "chi_square_threshold", "max_cell_z", "partition_pass")


@pytest.mark.parametrize("n,samples,runs", [
    (2, 3, False), (6, 1000, False),    # 1.5 and 1.4 expected per cell
    (2, 10, True), (6, 3600, True),     # exactly 5 per cell
])
def test_simplex_partition_needs_five_expected_per_cell(capsys, n, samples, runs):
    # at seed 1 the Monte Carlo hits the cell even at n=6 with 1,000 samples
    code, out, _ = run_main(capsys, "simplex", "--n", str(n), "--samples", str(samples),
                            "--seed", "1")
    assert code == 0
    row = parse_json(out)["rows"][0]
    assert row["estimate"] is not None
    if runs:
        assert row["classified"] + row["discarded_duplicates"] == samples
        assert all(row[k] is not None for k in _PARTITION_FIELDS)
    else:
        assert all(row[k] is None for k in _PARTITION_FIELDS)


def test_simplex_dimension_guard(capsys):
    code, _, err = run_main(capsys, "simplex", "--n", "13")
    assert code == 2
    assert "dimension" in err


# ---------------------------------------------------------------------------
# high orders: bounded time and bounded error text
# ---------------------------------------------------------------------------

def test_expand_overflow_fails_fast_with_bounded_message(capsys):
    # 100^k exp(100 a) overflows from order 8 at a = 6.6, inside a large DAG
    started = time.perf_counter()
    code, out, err = run_main(capsys, "expand", "--f", "exp(100*x)*cos(x)/(2+x)",
                              "--a", "6.6", "--n", "12")
    assert time.perf_counter() - started < 1.0
    assert code == 3
    assert out == ""
    assert 0 < len(err.encode()) <= 1024


def test_remainder_order_10_is_fast(capsys):
    started = time.perf_counter()
    code, out, _ = run_main(capsys, "remainder", "--f", "ln(1+x)", "--n", "10",
                            "--points", "0.5")
    assert time.perf_counter() - started < 1.0
    assert code == 0
    row = parse_json(out)["rows"][0]
    assert row["max_gap"] <= 1e-9


def test_remainder_of_a_quotient_at_order_12(capsys):
    # the 13th derivative of ln(1+x) divides by (1+x)^13, not by (1+x)^(2^12)
    code, out, _ = run_main(capsys, "remainder", "--f", "ln(1+x)", "--n", "12",
                            "--points", "0.5")
    assert code == 0
    row = parse_json(out)["rows"][0]
    assert row["max_gap"] <= 1e-9


# ---------------------------------------------------------------------------
# fixedpoint
# ---------------------------------------------------------------------------

def test_fixedpoint_newton_sqrt2(capsys):
    code, out, _ = run_main(capsys, "fixedpoint", "--f", "x^2-2", "--x0", "1")
    assert code == 0
    doc = parse_json(out)
    iterates = [r["iterate"] for r in doc["rows"]]
    assert iterates[0] == 1.0
    assert iterates[1] == 1.5
    assert iterates[2] == pytest.approx(1.4166667, abs=1e-7)
    assert iterates[-1] == pytest.approx(math.sqrt(2), abs=1e-10)
    conv = doc["invariants"][0]
    assert conv["name"] == "fixedpoint.converged"
    assert conv["pass"] is True


def test_fixedpoint_zero_derivative_exit_three(capsys):
    code, _, err = run_main(capsys, "fixedpoint", "--f", "x^2", "--x0", "0")
    assert code == 3
    assert "zero derivative" in err


def test_fixedpoint_rejects_a_negative_tolerance(capsys):
    argv = ("fixedpoint", "--f", "x^2-2", "--x0", "1", "--tol")
    assert run_main(capsys, *argv, "-1") == (2, "", "error: tol must be >= 0, got -1.0\n")
    code, out, _ = run_main(capsys, *argv, "0")
    assert code == 0
    assert parse_json(out)["config"]["tol"] == 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_single_suite(capsys):
    code, out, _ = run_main(capsys, "verify", "--suite", "fixedpoint",
                            "--samples", "1000")
    assert code == 0
    doc = parse_json(out)
    assert doc["rows"] == []
    names = [inv["name"] for inv in doc["invariants"]]
    assert names and all(n.startswith("fixedpoint.") for n in names)
    for inv in doc["invariants"]:
        assert set(inv.keys()) == {"name", "pass", "measured_gap", "threshold"}


def test_verify_perturbation_fails_basis(capsys):
    code, out, err = run_main(capsys, "verify", "--suite", "operators",
                              "--perturb-basis", "1e-3", "--samples", "1000")
    assert code == 1
    doc = parse_json(out)
    failed = [inv for inv in doc["invariants"] if not inv["pass"]]
    assert [inv["name"] for inv in failed] == ["operators.basis_closed_form"]
    (line,) = err.splitlines()  # one line per failing invariant, naming its worst case
    assert line.startswith("[FAIL] operators.basis_closed_form: gap=")
    assert " at n=" in line and ", a=" in line and ", x=" in line and "np." not in line


def test_verify_chi_square_below_five_expected_per_cell_does_not_pass(capsys):
    # 10 samples over the 6 cells of n = 3: the chi-square test cannot run
    code, out, err = run_main(capsys, "verify", "--suite", "simplex", "--samples", "10")
    assert code == 1
    verdict = {inv["name"]: inv["pass"] for inv in parse_json(out)["invariants"]}
    assert verdict["simplex.equal_cell_volumes"] is False
    assert "simplex.equal_cell_volumes" in err and "at samples=10, needed=30\n" in err
    code, out, _ = run_main(capsys, "verify", "--suite", "simplex", "--samples", "30")
    verdict = {inv["name"]: inv["pass"] for inv in parse_json(out)["invariants"]}
    assert verdict["simplex.equal_cell_volumes"] is True


def test_verify_finite_difference_skips_points_near_a_singularity(capsys):
    # this seed draws x = -0.99995 for ln(1+x), a step from its singularity
    code, out, _ = run_main(capsys, "verify", "--seed", "51563480", "--suite", "expr")
    assert code == 0, out


def test_verify_unknown_suite_rejected(capsys):
    code, _, _ = run_main(capsys, "verify", "--suite", "nonsense")
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (("--suite", "taylor", "--seed", "-1"), "seed must be a 64-bit unsigned integer"),
    (("--seed", str(1 << 64)), "seed must be a 64-bit unsigned integer"),
    (("--suite", "fixedpoint", "--samples", "0"), "samples must be in 1..1e9"),
    (("--suite", "taylor", "--samples", "-5"), "samples must be in 1..1e9"),
    (("--samples", "0"), "samples must be in 1..1e9"),
])
def test_verify_rejects_samples_and_seed_out_of_range_before_any_suite(capsys, monkeypatch,
                                                                       argv, message):
    monkeypatch.setattr(verify, "_SUITE_RUNNERS", {})  # a suite that ran would raise KeyError
    assert run_main(capsys, "verify", *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("gap", [math.nan, math.inf])
def test_verify_names_an_invariant_whose_gap_is_not_finite(capsys, monkeypatch, gap):
    def runner(cfg):
        worst = Worst("fixedpoint.stand_in", 1e-9)
        worst.see(5e-10, k=1)
        worst.see(gap, k=2)
        return [worst.report()]

    monkeypatch.setitem(verify._SUITE_RUNNERS, "fixedpoint", runner)
    assert run_main(capsys, "verify", "--suite", "fixedpoint") == (
        3, "", f"[FAIL] fixedpoint.stand_in: gap={gap} threshold=1.000e-09 at k=2\n"
               f"numeric failure: non-finite value in report: {gap}\n")


@pytest.fixture(scope="module")
def default_reports():
    return run_suites(VerifyConfig())


def test_verify_reports_the_invariants_the_benchmark_checks(default_reports):
    # perfbench checks verify's output against this list; read it, not import it
    tree = ast.parse((SRC.parent / "perfbench" / "checks.py").read_text())
    (listed,) = [ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and getattr(node.targets[0], "id", None) == "VERIFY_INVARIANTS"]
    assert [r.name for r in default_reports] == list(listed)


def test_every_worst_case_invariant_with_a_gap_names_its_case(default_reports):
    # the partition invariants are one measurement each, not a fold over cases
    folds = [r for r in default_reports
             if r.name not in ("simplex.tiling_partition", "simplex.equal_cell_volumes")]
    gapped = [r for r in folds if r.measured_gap > 0]
    assert len(gapped) >= 10
    for r in gapped:
        assert r.details, r.name
        assert all(type(v) in (str, int, float) for v in r.details.values()), r


def test_parser_reuse_keeps_no_state_between_calls(capsys):
    argv = ("verify", "--suite", "fixedpoint", "--samples", "1000")
    first = run_main(capsys, *argv)
    second = run_main(capsys, *argv)
    assert first == second
    assert parse_json(second[1])["config"]["suites"] == ["fixedpoint"]
    assert build_parser() is build_parser()
    valid = ("expand", "--f", "exp(x)", "--n", "2", "--points", "0.5")
    alone = run_main(capsys, *valid)
    assert run_main(capsys, "expand", "--f", "exp(x)")[0] == 2  # --n missing
    assert run_main(capsys, *valid) == alone


@pytest.mark.parametrize("argv, message", [
    (("expand", "--n", "1"), "error: the following arguments are required: --f\n"),
    (("expand", "--f", "x", "--n", "1", "--bogus"),
     "error: unrecognized arguments: --bogus\n"),
    (("expand", "--f", "x", "--n", "1", "--format", "xml"),
     "error: argument --format: invalid choice: 'xml' (choose from 'json', 'csv')\n"),
    (("expand", "--f", "-x", "--n", "1"),
     "error: argument --f: expected one argument; write --f=-x\n"),
    (("remainder", "--f", "-sin(x)", "--n", "1", "--points", "0.5"),
     "error: argument --f: expected one argument; write --f=-sin(x)\n"),
    (("expand", "--f", "--n", "1"), "error: argument --f: expected one argument\n"),
])
def test_argparse_usage_errors_are_one_line(capsys, argv, message):
    code, out, err = run_main(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == message


def test_the_equals_form_takes_a_leading_minus(capsys):
    code, out, err = run_main(capsys, "expand", "--f=-x", "--n", "1")
    assert code == 0, err
    assert parse_json(out)["rows"][1]["derivative_at_base"] == -1.0


def test_help_is_still_printed_in_full(capsys):
    code, out, err = run_main(capsys, "expand", "--help")
    assert code == 0
    assert err == ""
    assert out.startswith("usage: opcalc expand [-h] --f F")
    assert "--range LO HI COUNT" in out


@pytest.mark.parametrize("argv", [
    ("expand", "--f", "exp(x)", "--n", "2", "--tol", "1e-9", "--rel-tol", "1e-6"),
    ("simplex", "--n", "3", "--samples", "1000", "--tol", "1e-9"),
    ("simplex", "--n", "3", "--samples", "1000", "--rel-tol", "1e-6"),
    ("fixedpoint", "--f", "x^2-2", "--x0", "1", "--rel-tol", "1e-6"),
])
def test_flags_no_handler_reads_are_usage_errors(capsys, argv):
    code, out, err = run_main(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --" in err


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def test_out_file_and_determinism(tmp_path):
    argv = ["simplex", "--n", "2", "--samples", "20000", "--seed", "42",
            "--format", "csv"]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    header = first.read_text().splitlines()[0]
    assert header.split(",")[:5] == ["n", "a", "x", "samples", "seed"]


def test_unwritable_out_path_is_a_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_main(capsys, "expand", "--f", "x", "--n", "1",
                              "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith(f"error: cannot write {target}: ")
    assert not target.parent.exists()


@pytest.mark.parametrize("argv", [
    ("expand", "--f", "exp(x)", "--n", "2", "--points", "0.5"),
    ("remainder", "--f", "sin(x)", "--n", "1", "--points", "0.5,1.0"),
    ("simplex", "--n", "3", "--samples", "1000"),
    ("fixedpoint", "--f", "x^2-2", "--x0", "1"),
    ("verify", "--suite", "fixedpoint", "--samples", "1000"),
])
def test_csv_header_is_the_json_record_keys(capsys, argv):
    code, out, _ = run_main(capsys, *argv)
    assert code == 0
    doc = parse_json(out)
    records = doc["invariants"] if argv[0] == "verify" else doc["rows"]
    code, out, _ = run_main(capsys, *argv, "--format", "csv")
    assert code == 0
    assert next(csv.reader(io.StringIO(out))) == list(records[0])


def test_float_serialization_round_trips(capsys):
    code, out, _ = run_main(capsys, "remainder", "--f", "exp(x)", "--a", "0",
                            "--n", "2", "--points", "0.7")
    assert code == 0
    row = parse_json(out)["rows"][0]
    # 17 significant digits reproduce the double exactly
    assert row["direct"] == math.exp(0.7) - (1 + 0.7 + 0.49 / 2)


def test_subprocess_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "opcalc", "expand", "--f", "exp(x)",
         "--a", "0", "--n", "1"],
        capture_output=True, text=True, env={**__import__("os").environ,
                                             "PYTHONPATH": "src"},
        cwd=".",
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["command"] == "expand"


# ---------------------------------------------------------------------------
# the benchmark's tracer
# ---------------------------------------------------------------------------

def test_benchmark_tracer_finds_every_name_it_wraps():
    # perfbench/tracer.py wraps opcalc functions by name; a rename or a
    # deletion in src/ breaks traced runs with an AttributeError here
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); from tracer import Tracer; "
             "Tracer(0.0).install(); import opcalc.expr; "
             "print(hasattr(opcalc.expr.simplify, '__wrapped__'))")
    perfbench = SRC.parent / "perfbench"
    proc = subprocess.run([sys.executable, "-c", probe, str(perfbench)], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "True"


# ---------------------------------------------------------------------------
# determinism across processes
# ---------------------------------------------------------------------------

def test_golden_digest_is_the_same_under_two_hash_seeds():
    # scripts/golden.py digests every benchmark operation's output (expand,
    # remainder, fixedpoint, verify, simplex, basis); a set or dict order that
    # followed str hashing would show here as two digests
    golden = SRC.parent / "scripts" / "golden.py"
    combined = []
    for hash_seed in ("0", "1"):
        proc = subprocess.run([sys.executable, str(golden), "--seed", "1"],
                              capture_output=True, text=True, timeout=300,
                              env={**os.environ, "PYTHONHASHSEED": hash_seed})
        assert proc.returncode == 0, proc.stderr[-2000:]
        digest, label = proc.stdout.splitlines()[-1].split()
        assert label == "combined" and len(digest) == 64
        combined.append(digest)
    assert combined[0] == combined[1]
