"""Runnable invariant suites over every module, one CheckReport per
invariant.  The CLI's verify command drives these; the acceptance tests
drive the CLI.

All randomness comes from the counter-based stream, so a given seed
produces byte-identical reports.  The `perturb_basis` knob is a deliberate
fault hook: it multiplies the nested integral of 1 by (1 + eps) inside the
basis-identity check, which a sound checker must flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fixedpoint as fp
from . import simplex as sx
from .expr import (
    DomainError, const, differentiate, evaluate, mul, parse, render, simplify,
    sub, var,
)
from .funcspace import (
    DEFAULT_QUAD_CONFIG, Interval, QuadratureConfig, absolute, from_expr,
    integrate, linear_combination, sup_abs,
)
from .operators import (
    Compose, Differentiate, EvaluateAt, IntegrateFrom, Scale,
    UnsupportedDifferentiationError, apply, check_linearity, ftoc_operator,
    iterated_integral, iterated_integral_one, monotone_bound,
)
from .pool import default_pool
from .report import CheckReport, from_gap
from .rng import CounterStream
from .taylor import (
    NESTED_MAX_DEPTH, expand, ftoc_step, remainder_bound, remainder_direct,
    remainder_exact, remainder_nested, remainder_routes, verify_exchange,
)

SUITE_NAMES = ("expr", "funcspace", "operators", "taylor", "simplex", "fixedpoint")


@dataclass(frozen=True)
class VerifyConfig:
    quad: QuadratureConfig = DEFAULT_QUAD_CONFIG
    samples: int = 1_000_000
    seed: int = 2024
    perturb_basis: float = 0.0
    suites: tuple[str, ...] = SUITE_NAMES

    def __post_init__(self):
        unknown = set(self.suites) - set(SUITE_NAMES)
        if unknown:
            raise ValueError(f"unknown suites: {sorted(unknown)}")


def _stream(cfg: VerifyConfig, lane: int) -> CounterStream:
    return CounterStream(cfg.seed, start=lane << 32)


# ---------------------------------------------------------------------------
# expr suite
# ---------------------------------------------------------------------------

def _expr_corpus() -> list:
    texts = [
        "exp(x)", "sin(x)", "cos(x)", "x^5", "x^3-2*x", "(1+x)^(-1)",
        "ln(1+x)", "sin(x)*exp(x)", "cos(x)/(2+x)", "exp(-x^2)",
        "x*sin(x)+cos(x)", "(x+2)^0.5", "1+x+x^2", "sin(cos(x))",
        "exp(sin(x))", "x^2*ln(2+x)", "2*x-1", "x/(x^2+1)", "sin(2*x)",
        "cos(x)^2",
    ]
    return [parse(t) for t in texts]


def suite_expr(cfg: VerifyConfig) -> list[CheckReport]:
    reports = []
    stream = _stream(cfg, 1)
    corpus = _expr_corpus()

    # 200 (expression, point) pairs: symbolic derivative vs central difference
    h = 1e-5
    worst = 0.0
    pairs = 0
    for e in corpus:
        d = simplify(differentiate(e))
        while_count = 0
        taken = 0
        while taken < 10 and while_count < 200:
            while_count += 1
            x = stream.uniform(-1.0, 1.0)
            try:
                lo, mid, hi_ = evaluate(e, x - h), evaluate(e, x), evaluate(e, x + h)
                dv = evaluate(d, x)
                # keep clear of a singularity the difference stencil would feel
                evaluate(e, x - 1e-2), evaluate(e, x + 1e-2)
            except DomainError:
                continue
            if max(abs(lo), abs(mid), abs(hi_)) > 50.0:
                continue
            taken += 1
            pairs += 1
            fd = (hi_ - lo) / (2.0 * h)
            worst = max(worst, abs(dv - fd) / (1.0 + abs(dv)))
    reports.append(from_gap("expr.derivative_matches_finite_difference",
                            worst, 1e-5, pairs=pairs))

    # simplify preserves value bit-for-bit at 100 random points
    mismatches = 0
    checked = 0
    for e in corpus:
        s = simplify(e)
        for _ in range(5):
            x = stream.uniform(-1.0, 1.0)
            try:
                v = evaluate(e, x)
            except DomainError:
                continue
            checked += 1
            if evaluate(s, x) != v:
                mismatches += 1
    reports.append(from_gap("expr.simplify_preserves_value",
                            float(mismatches), 0.0, points=checked))

    # render round trip is structurally exact
    broken = sum(1 for e in corpus if parse(render(e)) != e)
    broken += sum(1 for e in corpus
                  if parse(render(simplify(differentiate(e)))) != simplify(differentiate(e)))
    reports.append(from_gap("expr.parse_render_round_trip", float(broken), 0.0))
    return reports


# ---------------------------------------------------------------------------
# funcspace suite
# ---------------------------------------------------------------------------

def suite_funcspace(cfg: VerifyConfig) -> list[CheckReport]:
    reports = []
    stream = _stream(cfg, 2)
    quad = cfg.quad
    pool = default_pool()
    fns = [pf.function() for pf in pool]

    worst = 0.0
    for _ in range(20):
        f = fns[stream.next_uint64() % len(fns)]
        g = fns[stream.next_uint64() % len(fns)]
        alpha = stream.uniform(-2.0, 2.0)
        beta = stream.uniform(-2.0, 2.0)
        x = stream.uniform(0.0, 0.75)
        report = check_linearity(IntegrateFrom(0.0), f, g, alpha, beta, [x], quad)
        worst = max(worst, report.measured_gap)
    reports.append(from_gap("funcspace.integrate_linearity", worst,
                            3.0 * quad.abs_tolerance))

    worst = 0.0
    for _ in range(20):
        f = fns[stream.next_uint64() % len(fns)]
        h = fns[stream.next_uint64() % len(fns)]
        dominating = linear_combination(1.0, f, 1.0, absolute(h))
        x = stream.uniform(0.0, 0.75)
        gap = integrate(f, 0.0, x, quad) - integrate(dominating, 0.0, x, quad)
        worst = max(worst, gap)
    reports.append(from_gap("funcspace.integrate_monotonicity", max(worst, 0.0),
                            2.0 * quad.abs_tolerance))

    worst = 0.0
    for _ in range(20):
        f = fns[stream.next_uint64() % len(fns)]
        a = stream.uniform(0.0, 0.4)
        c = stream.uniform(0.0, 0.75)
        x = stream.uniform(0.0, 0.75)
        together = integrate(f, a, x, quad)
        split = integrate(f, a, c, quad) + integrate(f, c, x, quad)
        worst = max(worst, abs(together - split))
    reports.append(from_gap("funcspace.integrate_additivity", worst,
                            3.0 * quad.abs_tolerance))

    worst = 0.0
    for pf in pool:
        f = pf.function()
        iv = Interval(pf.probe_lo, pf.probe_hi)
        s = sup_abs(f, iv)
        for _ in range(100):
            t = stream.uniform(iv.a, iv.b)
            worst = max(worst, abs(f(t)) - s)
    reports.append(from_gap("funcspace.sup_abs_dominates_samples",
                            max(worst, 0.0), 1e-12))
    return reports


# ---------------------------------------------------------------------------
# operators suite
# ---------------------------------------------------------------------------

def suite_operators(cfg: VerifyConfig) -> list[CheckReport]:
    reports = []
    stream = _stream(cfg, 3)
    quad = cfg.quad
    pool = default_pool()

    choices = [Differentiate(), IntegrateFrom(0.0), IntegrateFrom(0.25),
               EvaluateAt(0.0), EvaluateAt(0.5), Scale(2.0), Scale(-0.5)]
    worst = 0.0
    for _ in range(20):
        ops = [choices[stream.next_uint64() % len(choices)] for _ in range(3)]
        pf = pool[stream.next_uint64() % len(pool)]
        f = pf.function()
        left = Compose(Compose(ops[0], ops[1]), ops[2])
        right = Compose(ops[0], Compose(ops[1], ops[2]))
        try:
            gl = apply(left, f, quad)
            gr = apply(right, f, quad)
        except UnsupportedDifferentiationError:
            continue
        xs = [pf.probe_lo + (pf.probe_hi - pf.probe_lo) * k / 49.0 for k in range(50)]
        worst = max(worst, float(np.abs(gl.eval_array(xs) - gr.eval_array(xs)).max()))
    reports.append(from_gap("operators.composition_associativity", worst,
                            5.0 * quad.abs_tolerance))

    worst = 0.0
    for pf in pool:
        f = pf.function()
        lf = apply(ftoc_operator(pf.base), f, quad)
        xs = pf.probes(20)
        worst = max(worst, float(np.abs(lf.eval_array(xs) - f.eval_array(xs)).max()))
    reports.append(from_gap("operators.ftoc_fixed_point", worst,
                            5.0 * quad.abs_tolerance))

    worst = 0.0
    for pf in pool:
        g = pf.function()
        xs = pf.probes(20, nonnegative_only=True)  # x == base adds a gap of 0
        for n in (1, 2, 3):
            nested = iterated_integral(g, n, pf.base, quad).eval_array(xs)
            bounds = monotone_bound(n, g, pf.base, xs, quad)
            for value, bound in zip(nested.tolist(), bounds.tolist()):
                worst = max(worst, abs(value) - bound * (1.0 + 1e-9))
    reports.append(from_gap("operators.monotone_bound", max(worst, 0.0), 1e-12))

    worst = 0.0
    for n in (1, 2, 3, 4):
        for _ in range(20 if n < 4 else 8):
            a = stream.uniform(-1.0, 1.0)
            x = a + stream.uniform(-2.0, 2.0)
            value = iterated_integral_one(n, a, x, quad)
            value *= 1.0 + cfg.perturb_basis  # fault-injection hook
            closed = (x - a) ** n / math.factorial(n)
            worst = max(worst, abs(value - closed))
    reports.append(from_gap("operators.basis_closed_form", worst,
                            10.0 * quad.abs_tolerance))
    return reports


# ---------------------------------------------------------------------------
# taylor suite
# ---------------------------------------------------------------------------

def suite_taylor(cfg: VerifyConfig) -> list[CheckReport]:
    reports = []
    quad = cfg.quad
    pool = default_pool()

    worst = 0.0
    for pf in pool:
        for order in range(6):
            t = expand(pf.expr, pf.base, order)
            for x in pf.probes(10):
                direct = remainder_direct(t, x)
                exact = remainder_exact(t, x, quad)
                worst = max(worst, abs(exact - direct) - 1e-6 * abs(direct))
    reports.append(from_gap("taylor.remainder_exact_vs_direct",
                            max(worst, 0.0), 1e-8))

    worst = 0.0
    for pf in pool:
        for order in range(NESTED_MAX_DEPTH - 2):
            t = expand(pf.expr, pf.base, order)
            xs = pf.probes(5)
            for x, nested in zip(xs, remainder_nested(t, xs, quad).tolist()):
                worst = max(worst, abs(nested - remainder_exact(t, x, quad)))
    reports.append(from_gap("taylor.remainder_nested_vs_exact", worst, 1e-6))

    worst = 0.0
    for pf in pool:
        for order in range(6):
            t = expand(pf.expr, pf.base, order)
            xs = pf.probes(10, nonnegative_only=True)
            for x, bound in zip(xs, remainder_bound(t, xs, quad).tolist()):
                worst = max(worst, abs(remainder_direct(t, x)) - bound * (1.0 + 1e-9))
    reports.append(from_gap("taylor.remainder_bound_validity",
                            max(worst, 0.0), 1e-12))

    worst = 0.0
    f = parse("exp(x)")
    for order in range(5):
        b_n = remainder_bound(expand(f, 0.0, order), 0.5, quad)
        b_n1 = remainder_bound(expand(f, 0.0, order + 1), 0.5, quad)
        worst = max(worst, abs(b_n1 / b_n - 0.5 / (order + 2)))
    reports.append(from_gap("taylor.bound_factorial_decay", worst, 1e-9))

    worst = 0.0
    for text, degree in (("x^2", 2), ("x^3-2*x", 3), ("1+x", 1)):
        e = parse(text)
        for order in range(degree, degree + 2):
            for row in remainder_routes(expand(e, 0.0, order), (0.5, 1.0, 1.8), quad):
                worst = max(worst, abs(row["direct"]), abs(row["exact_integral"]),
                            row["bound"], abs(row["sliced"]))
                if row["nested_integral"] is not None:
                    worst = max(worst, abs(row["nested_integral"]) * 1e-2)
    reports.append(from_gap("taylor.polynomial_exactness", worst,
                            10.0 * quad.abs_tolerance))

    broken = 0
    for pf in pool:
        for order in range(5):
            stepped = ftoc_step(expand(pf.expr, pf.base, order))
            direct = expand(pf.expr, pf.base, order + 1)
            if stepped.coefficients != direct.coefficients:
                broken += 1
    reports.append(from_gap("taylor.fixed_point_consistency", float(broken), 0.0))

    worst = 0.0
    cases = [
        ("1", "1"), ("exp(x)", "1"), ("1", "exp(x)"), ("sin(x)", "1"),
        ("x", "x"), ("cos(x)", "sin(x)"), ("x^2", "exp(x)"),
        ("ln(1+x)", "1"), ("x^3", "cos(x)"), ("exp(x)", "exp(x)"),
    ]
    for gi, gj in cases:
        report = verify_exchange((parse(gi), parse(gj)), 0.0, 1.0, quad)
        worst = max(worst, report.measured_gap)
    reports.append(from_gap("taylor.exchange_identity", worst,
                            10.0 * quad.abs_tolerance, cases=len(cases)))
    return reports


# ---------------------------------------------------------------------------
# simplex suite
# ---------------------------------------------------------------------------

def suite_simplex(cfg: VerifyConfig) -> list[CheckReport]:
    reports = []
    stream = _stream(cfg, 4)
    quad = cfg.quad

    worst = 0.0
    for n in (2, 3, 4):
        spec = sx.SimplexSpec(n, 0.0, 1.0)
        est, se = sx.simplex_volume_montecarlo(
            spec, sx.MonteCarloConfig(cfg.samples, cfg.seed))
        worst = max(worst, abs(est - sx.simplex_volume_exact(spec)) - 4.0 * se)
    reports.append(from_gap("simplex.exact_vs_montecarlo", max(worst, 0.0), 0.0,
                            samples=cfg.samples))

    partition = sx.ordering_partition_check(
        3, sx.MonteCarloConfig(min(cfg.samples, 600_000), cfg.seed))
    tally_ok = (partition.classified + partition.discarded_duplicates
                == partition.total_samples)
    tiling_ok = partition.all_exactly_once and tally_ok and partition.max_cell_z <= 5.0
    reports.append(CheckReport(
        name="simplex.tiling_partition", passed=tiling_ok,
        measured_gap=partition.max_cell_z, threshold=5.0,
        details={"classified": partition.classified,
                 "discarded": partition.discarded_duplicates},
    ))
    cells = len(partition.cell_counts)  # below Cochran's rule no test runs, none passes
    runs = partition.total_samples >= sx.MIN_EXPECTED_PER_CELL * cells
    reports.append(CheckReport(
        name="simplex.equal_cell_volumes",
        passed=runs and partition.chi_square <= partition.chi_square_threshold,
        measured_gap=partition.chi_square,
        threshold=partition.chi_square_threshold,
        details={"cells": cells},
    ))

    pool = default_pool()
    worst = 0.0
    for _ in range(20):
        pf = pool[stream.next_uint64() % len(pool)]
        order = stream.next_uint64() % 4
        x = stream.uniform(pf.base + 0.2, pf.probe_hi)
        t = expand(pf.expr, pf.base, order)
        sliced = sx.remainder_by_slicing(t, x, quad)
        exact = remainder_exact(t, x, quad)
        worst = max(worst, abs(sliced - exact))
    reports.append(from_gap("simplex.slicing_consistency", worst, 1e-8))

    worst = 0.0
    for n in range(2, 13):
        a, x = 0.0, 1.7
        ratio = (sx.simplex_volume_exact(sx.SimplexSpec(n, a, x))
                 / sx.simplex_volume_exact(sx.SimplexSpec(n - 1, a, x)))
        worst = max(worst, abs(ratio - (x - a) / n))
    reports.append(from_gap("simplex.dimensional_recursion", worst, 1e-12))
    return reports


# ---------------------------------------------------------------------------
# fixedpoint suite
# ---------------------------------------------------------------------------

def suite_fixedpoint(cfg: VerifyConfig) -> list[CheckReport]:
    reports = []
    stream = _stream(cfg, 5)

    trace = fp.newton(parse("x^2-2"), 1.0, 1e-14, 20)
    root = math.sqrt(2.0)
    errors = [abs(v - root) for v in trace.iterates]
    worst = 0.0
    for k in range(1, 4):
        if errors[k] <= 1e-7:
            break
        ratio = errors[k + 1] / errors[k] ** 2
        worst = max(worst, max(0.0, 0.2 - ratio), max(0.0, ratio - 0.6))
    reports.append(from_gap("fixedpoint.newton_quadratic_convergence", worst, 0.0))

    worst = 0.0
    built = 0
    while built < 20:
        roots = sorted(stream.uniform(-2.0, 2.0) for _ in range(3))
        if min(roots[1] - roots[0], roots[2] - roots[1]) < 0.3:
            continue
        built += 1
        f = mul(mul(sub(var(), const(roots[0])), sub(var(), const(roots[1]))),
                sub(var(), const(roots[2])))
        t = fp.newton(f, roots[0] + 0.05, 1e-12, 100)
        if not t.converged:
            worst = math.inf
            continue
        g = fp.root_as_fixed_point(f)
        worst = max(worst, abs(g(t.final()) - t.final()))
    reports.append(from_gap("fixedpoint.root_rewrite_equivalence", worst, 1e-9))

    tol = 1e-9
    M = fp.SmallMatrix([[2.0, 1.0], [1.0, 2.0]])
    result = fp.power_method(M, np.array([1.0, 0.0]), tol, 500)
    residual = float(np.max(np.abs(M.as_array() @ result.eigenvector
                                   - result.eigenvalue * result.eigenvector)))
    reports.append(from_gap("fixedpoint.power_method_residual", residual,
                            10.0 * tol * abs(result.eigenvalue)))

    broken = 0
    for g_text, x0 in (("cos(x)", 1.0), ("x", 2.0), ("2*x", 1.0)):
        t = fp.iterate_scalar(from_expr(parse(g_text), Interval(-1e6, 1e6)),
                              x0, 1e-10, 40)
        if list(t.residuals) != [abs(q - p) for p, q in zip(t.iterates, t.iterates[1:])]:
            broken += 1
        if t.converged and t.residuals[-1] > 1e-10:
            broken += 1
    reports.append(from_gap("fixedpoint.trace_integrity", float(broken), 0.0))
    return reports


_SUITE_RUNNERS = {
    "expr": suite_expr,
    "funcspace": suite_funcspace,
    "operators": suite_operators,
    "taylor": suite_taylor,
    "simplex": suite_simplex,
    "fixedpoint": suite_fixedpoint,
}


def run_suites(cfg: VerifyConfig) -> list[CheckReport]:
    reports: list[CheckReport] = []
    for name in SUITE_NAMES:
        if name in cfg.suites:
            reports.extend(_SUITE_RUNNERS[name](cfg))
    return reports
