"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here, not configurable.
"""

import json
import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from opcalc.expr import parse
from opcalc.fixedpoint import SmallMatrix, newton, power_method
from opcalc.funcspace import DEFAULT_QUAD_CONFIG
from opcalc.operators import apply, ftoc_operator, iterated_integral_one
from opcalc.pool import default_pool
from opcalc.rng import CounterStream
from opcalc.simplex import (
    MonteCarloConfig, SimplexSpec, ordering_partition_check,
    simplex_volume_exact, simplex_volume_montecarlo,
)
from opcalc.taylor import (
    expand, remainder_bound, remainder_direct, remainder_routes,
    verify_exchange,
)

POOL = default_pool()
REPO_ROOT = Path(__file__).resolve().parents[1]


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL {description}")
        raise
    print(f"ACCEPTANCE {num:02d} PASS {description}")


def _cli(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "opcalc", *argv],
        capture_output=True, text=True, env=env, cwd=str(REPO_ROOT),
    )


def test_criterion_1_basis_identity():
    with criterion(1, "basis identity: nested integrals of 1 match (x-a)^n/n!"):
        started = time.perf_counter()
        stream = CounterStream(seed=11)
        for n in (1, 2, 3, 4):
            for _ in range(20):
                a = stream.uniform(-1.0, 1.0)
                dx = stream.uniform(-2.0, 2.0)
                x = a + dx
                got = iterated_integral_one(n, a, x)
                assert abs(got - dx ** n / math.factorial(n)) <= 1e-9
        assert time.perf_counter() - started <= 10.0


def test_criterion_2_remainder_four_way_agreement():
    with criterion(2, "remainder agreement across direct/exact/nested/sliced"):
        started = time.perf_counter()
        for pf in POOL:
            for order in range(6):
                t = expand(pf.expr, pf.base, order)
                limit = 1e-6 if order <= 3 else 1e-7
                for row in remainder_routes(t, pf.probes(10)):
                    assert (row["nested_integral"] is not None) == (order <= 3)
                    assert row["max_gap"] <= limit, (pf.label, order, row["x"],
                                                      row["max_gap"])
        assert time.perf_counter() - started <= 120.0


def test_criterion_3_remainder_bound():
    with criterion(3, "sup-norm remainder bound dominates the true remainder"):
        for pf in POOL:
            for order in range(6):
                t = expand(pf.expr, pf.base, order)
                for x in pf.probes(10, nonnegative_only=True):
                    direct = remainder_direct(t, x)
                    bound = remainder_bound(t, x)
                    assert abs(direct) <= bound * (1.0 + 1e-9) + 1e-12
        t = expand(parse("exp(x)"), 0.0, 2)
        bound = remainder_bound(t, 1.0)
        direct = remainder_direct(t, 1.0)
        assert abs(bound - 0.45304697) <= 1e-6   # closed form e/3!
        assert abs(abs(direct) - 0.21828183) <= 1e-6  # e - 2.5


def test_criterion_4_ftoc_fixed_point():
    with criterion(4, "every pool function is a fixed point of f(a)*1 + I_a D f"):
        for pf in POOL:
            f = pf.function()
            lf = apply(ftoc_operator(pf.base), f)
            for x in pf.probes(20):
                assert abs(lf(x) - f(x)) <= 5e-10


def test_criterion_5_exchange_identity():
    with criterion(5, "2-D integration order exchange"):
        report = verify_exchange((parse("1"), parse("1")), 0.0, 1.0)
        assert abs(report.details["lhs"] - 0.5) <= 1e-9
        assert abs(report.details["rhs"] - 0.5) <= 1e-9
        assert report.measured_gap <= 1e-8
        cases = [
            ("exp(x)", "1"), ("1", "exp(x)"), ("sin(x)", "1"), ("x", "x"),
            ("cos(x)", "sin(x)"), ("x^2", "exp(x)"), ("ln(1+x)", "1"),
            ("x^3", "cos(x)"), ("exp(x)", "exp(x)"),
        ]
        for gi, gj in cases:
            report = verify_exchange((parse(gi), parse(gj)), 0.0, 1.0)
            assert report.measured_gap <= 1e-8, (gi, gj)


def test_criterion_6_simplex_tiling_and_volumes():
    with criterion(6, "n! order cells tile the cube; Monte Carlo matches 1/n!"):
        started = time.perf_counter()
        partition = ordering_partition_check(3, MonteCarloConfig(600_000, seed=42))
        assert partition.all_exactly_once
        assert partition.classified + partition.discarded_duplicates == 600_000
        assert partition.max_cell_z <= 5.0
        assert partition.chi_square <= partition.chi_square_threshold  # 99.9%, df=5
        for n in (2, 3, 4):
            spec = SimplexSpec(n, 0.0, 1.0)
            est, se = simplex_volume_montecarlo(spec, MonteCarloConfig(1_000_000, seed=42))
            assert abs(est - simplex_volume_exact(spec)) <= 4.0 * se
        assert time.perf_counter() - started <= 30.0


def test_criterion_7_fixed_point_toolkit():
    with criterion(7, "Newton trajectory on x^2-2 and power method eigenpair"):
        trace = newton(parse("x^2-2"), 1.0, 1e-10, 20)
        assert trace.converged
        assert trace.iterations_used <= 6
        assert abs(trace.iterates[2] - 1.4166667) <= 1e-7
        result = power_method(SmallMatrix([[2.0, 1.0], [1.0, 2.0]]),
                              [1.0, 0.0], 1e-10, 500)
        assert abs(result.eigenvalue - 3.0) <= 1e-8


def test_criterion_8_verifier_non_vacuity():
    with criterion(8, "verifier flags an injected basis fault and passes clean"):
        perturbed = _cli("verify", "--perturb-basis", "1e-3")
        assert perturbed.returncode == 1
        assert "operators.basis_closed_form" in perturbed.stdout
        doc = json.loads(perturbed.stdout)
        failed = [inv["name"] for inv in doc["invariants"] if not inv["pass"]]
        assert "operators.basis_closed_form" in failed
        clean = _cli("verify")
        assert clean.returncode == 0, clean.stderr
        doc = json.loads(clean.stdout)
        assert all(inv["pass"] for inv in doc["invariants"])


def test_criterion_9_simplex_determinism():
    with criterion(9, "identical seeds give byte-identical simplex reports"):
        argv = ("simplex", "--n", "3", "--samples", "200000", "--seed", "7")
        first = _cli(*argv)
        second = _cli(*argv)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout.encode() == second.stdout.encode()
