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
    DEFAULT_QUAD_CONFIG, QuadratureConfig, absolute, from_expr,
    integrate, linear_combination, sup_abs,
)
from .operators import (
    Compose, Differentiate, EvaluateAt, IntegrateFrom, Scale,
    UnsupportedDifferentiationError, apply, check_linearity, describe,
    ftoc_operator, iterated_integral, iterated_integral_one, monotone_bound,
)
from .pool import default_pool
from .report import CheckReport, Worst, from_failures
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
        sx.MonteCarloConfig(self.samples, self.seed)  # its range checks and messages


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
    worst = Worst("expr.derivative_matches_finite_difference", 1e-5)
    for e in corpus:
        d = simplify(differentiate(e))
        text = render(e)
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
            fd = (hi_ - lo) / (2.0 * h)
            worst.see(abs(dv - fd) / (1.0 + abs(dv)), f=text, x=x)
    reports.append(worst.report())

    # simplify preserves value bit-for-bit at 100 random points
    mismatches = []
    for e in corpus:
        s = simplify(e)
        for _ in range(5):
            x = stream.uniform(-1.0, 1.0)
            try:
                v = evaluate(e, x)
            except DomainError:
                continue
            if evaluate(s, x) != v:
                mismatches.append({"f": render(e), "x": x})
    reports.append(from_failures("expr.simplify_preserves_value", mismatches))

    # render round trip is structurally exact
    derivatives = [simplify(differentiate(e)) for e in corpus]
    broken = [{"f": render(e)} for e in corpus + derivatives if parse(render(e)) != e]
    reports.append(from_failures("expr.parse_render_round_trip", broken))
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

    worst = Worst("funcspace.integrate_linearity", 3.0 * quad.abs_tolerance)
    for _ in range(20):
        f = fns[stream.next_uint64() % len(fns)]
        g = fns[stream.next_uint64() % len(fns)]
        alpha = stream.uniform(-2.0, 2.0)
        beta = stream.uniform(-2.0, 2.0)
        x = stream.uniform(0.0, 0.75)
        report = check_linearity(IntegrateFrom(0.0), f, g, alpha, beta, [x], quad)
        worst.see(report.measured_gap, f=f.label, g=g.label, alpha=alpha, beta=beta, x=x)
    reports.append(worst.report())

    worst = Worst("funcspace.integrate_monotonicity", 2.0 * quad.abs_tolerance)
    for _ in range(20):
        f = fns[stream.next_uint64() % len(fns)]
        h = fns[stream.next_uint64() % len(fns)]
        dominating = linear_combination(1.0, f, 1.0, absolute(h))
        x = stream.uniform(0.0, 0.75)
        gap = integrate(f, 0.0, x, quad) - integrate(dominating, 0.0, x, quad)
        worst.see(gap, f=f.label, h=h.label, x=x)
    reports.append(worst.report())

    worst = Worst("funcspace.integrate_additivity", 3.0 * quad.abs_tolerance)
    for _ in range(20):
        f = fns[stream.next_uint64() % len(fns)]
        a = stream.uniform(0.0, 0.4)
        c = stream.uniform(0.0, 0.75)
        x = stream.uniform(0.0, 0.75)
        together = integrate(f, a, x, quad)
        split = integrate(f, a, c, quad) + integrate(f, c, x, quad)
        worst.see(abs(together - split), f=f.label, a=a, c=c, x=x)
    reports.append(worst.report())

    worst = Worst("funcspace.sup_abs_dominates_samples", 1e-12)
    for pf in pool:
        f = pf.function()
        s = sup_abs(f, pf.probe_lo, pf.probe_hi)
        for _ in range(100):
            t = stream.uniform(pf.probe_lo, pf.probe_hi)
            worst.see(abs(f(t)) - s, f=pf.label, x=t)
    reports.append(worst.report())
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
    worst = Worst("operators.composition_associativity", 5.0 * quad.abs_tolerance)
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
        xs = pf.probes(50)
        worst.see(np.abs(gl.eval_array(xs) - gr.eval_array(xs)),
                  f=pf.label, ops=describe(left), x=xs)
    reports.append(worst.report())

    worst = Worst("operators.ftoc_fixed_point", 5.0 * quad.abs_tolerance)
    for pf in pool:
        f = pf.function()
        lf = apply(ftoc_operator(pf.base), f, quad)
        xs = pf.probes(20)
        worst.see(np.abs(lf.eval_array(xs) - f.eval_array(xs)), f=pf.label, x=xs)
    reports.append(worst.report())

    worst = Worst("operators.monotone_bound", 1e-12)
    for pf in pool:
        g = pf.function()
        xs = pf.probes(20, nonnegative_only=True)  # x == base adds a gap of 0
        for n in (1, 2, 3):
            nested = iterated_integral(g, n, pf.base, quad).eval_array(xs)
            bounds = monotone_bound(n, g, pf.base, xs)
            worst.see(np.abs(nested) - bounds * (1.0 + 1e-9), f=pf.label, n=n, x=xs)
    reports.append(worst.report())

    worst = Worst("operators.basis_closed_form", 10.0 * quad.abs_tolerance)
    for n in (1, 2, 3, 4):
        for _ in range(20 if n < 4 else 8):
            a = stream.uniform(-1.0, 1.0)
            x = a + stream.uniform(-2.0, 2.0)
            value = iterated_integral_one(n, a, x, quad)
            value *= 1.0 + cfg.perturb_basis  # fault-injection hook
            closed = (x - a) ** n / math.factorial(n)
            worst.see(abs(value - closed), n=n, a=a, x=x)
    reports.append(worst.report())
    return reports


# ---------------------------------------------------------------------------
# taylor suite
# ---------------------------------------------------------------------------

def suite_taylor(cfg: VerifyConfig) -> list[CheckReport]:
    quad = cfg.quad
    pool = default_pool()

    # one FTOC iteration per pool function; the remainder invariants read each
    # order's expansion, and every step is checked against a from-scratch run
    exact = Worst("taylor.remainder_exact_vs_direct", 1e-8)
    nested = Worst("taylor.remainder_nested_vs_exact", 1e-6)
    bounded = Worst("taylor.remainder_bound_validity", 1e-12)
    broken = []
    for pf in pool:
        xs, coarse, right = pf.probes(10), pf.probes(5), pf.probes(10, nonnegative_only=True)
        fresh = expand(pf.expr, pf.base, 5).coefficients
        t = expand(pf.expr, pf.base, 0)
        for order in range(6):
            direct = remainder_direct(t, xs)
            exact.see(np.abs(remainder_exact(t, xs, quad) - direct) - 1e-6 * np.abs(direct),
                      f=pf.label, order=order, x=xs)
            if order < NESTED_MAX_DEPTH - 2:
                gaps = remainder_nested(t, coarse, quad) - remainder_exact(t, coarse, quad)
                nested.see(np.abs(gaps), f=pf.label, order=order, x=coarse)
            bounded.see(np.abs(remainder_direct(t, right)) - remainder_bound(t, right)
                        * (1.0 + 1e-9), f=pf.label, order=order, x=right)
            if order < 5:
                t = ftoc_step(t)
                if t.coefficients != fresh[:order + 2]:
                    broken.append({"f": pf.label, "order": order})
    reports = [exact.report(), nested.report(), bounded.report()]

    worst = Worst("taylor.bound_factorial_decay", 1e-9)
    t = expand(parse("exp(x)"), 0.0, 0)
    bounds = [remainder_bound(t, 0.5)]
    for order in range(5):
        t = ftoc_step(t)
        bounds.append(remainder_bound(t, 0.5))
        worst.see(abs(bounds[-1] / bounds[-2] - 0.5 / (order + 2)), f="exp(x)", order=order, x=0.5)
    reports.append(worst.report())

    worst = Worst("taylor.polynomial_exactness", 10.0 * quad.abs_tolerance)
    for text, degree in (("x^2", 2), ("x^3-2*x", 3), ("1+x", 1)):
        t = expand(parse(text), 0.0, degree)
        for t in (t, ftoc_step(t)):
            for row in remainder_routes(t, (0.5, 1.0, 1.8), quad):
                for route in ("direct", "exact_integral", "bound", "sliced", "nested_integral"):
                    if row[route] is not None:  # nested is held to 100x the threshold
                        worst.see(abs(row[route]) * (1e-2 if route == "nested_integral" else 1.0),
                                  f=text, order=t.order, x=row["x"], route=route)
    reports.append(worst.report())
    reports.append(from_failures("taylor.fixed_point_consistency", broken))

    worst = Worst("taylor.exchange_identity", 10.0 * quad.abs_tolerance)
    cases = [
        ("1", "1"), ("exp(x)", "1"), ("1", "exp(x)"), ("sin(x)", "1"),
        ("x", "x"), ("cos(x)", "sin(x)"), ("x^2", "exp(x)"),
        ("ln(1+x)", "1"), ("x^3", "cos(x)"), ("exp(x)", "exp(x)"),
    ]
    for gi, gj in cases:
        report = verify_exchange((parse(gi), parse(gj)), 0.0, 1.0, quad)
        worst.see(report.measured_gap, gi=gi, gj=gj)
    reports.append(worst.report())
    return reports


# ---------------------------------------------------------------------------
# simplex suite
# ---------------------------------------------------------------------------

def suite_simplex(cfg: VerifyConfig) -> list[CheckReport]:
    reports = []
    stream = _stream(cfg, 4)
    quad = cfg.quad

    worst = Worst("simplex.exact_vs_montecarlo", 0.0)
    for n in (2, 3, 4):
        spec = sx.SimplexSpec(n, 0.0, 1.0)
        est, se = sx.simplex_volume_montecarlo(
            spec, sx.MonteCarloConfig(cfg.samples, cfg.seed))
        worst.see(abs(est - sx.simplex_volume_exact(spec)) - 4.0 * se, n=n)
    reports.append(worst.report())

    partition = sx.ordering_partition_check(
        3, sx.MonteCarloConfig(min(cfg.samples, 600_000), cfg.seed))
    reports.append(CheckReport(
        name="simplex.tiling_partition", passed=partition.tiled,
        measured_gap=partition.max_cell_z, threshold=5.0,
    ))
    needed = sx.cochran_samples(partition.dimension)
    runs = partition.total_samples >= needed  # below Cochran's rule no test runs, none passes
    reports.append(CheckReport(
        name="simplex.equal_cell_volumes",
        passed=runs and partition.chi_square <= partition.chi_square_threshold,
        measured_gap=partition.chi_square,
        threshold=partition.chi_square_threshold,
        details={} if runs else {"samples": partition.total_samples, "needed": needed},
    ))

    pool = default_pool()
    worst = Worst("simplex.slicing_consistency", 1e-8)
    for _ in range(20):
        pf = pool[stream.next_uint64() % len(pool)]
        order = stream.next_uint64() % 4
        x = stream.uniform(pf.base + 0.2, pf.probe_hi)
        t = expand(pf.expr, pf.base, order)
        sliced = sx.remainder_by_slicing(t, x, quad)
        exact = remainder_exact(t, x, quad)
        worst.see(abs(sliced - exact), f=pf.label, order=order, x=x)
    reports.append(worst.report())

    worst = Worst("simplex.dimensional_recursion", 1e-12)
    for n in range(2, 13):
        a, x = 0.0, 1.7
        ratio = (sx.simplex_volume_exact(sx.SimplexSpec(n, a, x))
                 / sx.simplex_volume_exact(sx.SimplexSpec(n - 1, a, x)))
        worst.see(abs(ratio - (x - a) / n), n=n)
    reports.append(worst.report())
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
    worst = Worst("fixedpoint.newton_quadratic_convergence", 0.0)
    for k in range(1, 4):
        if errors[k] <= 1e-7:
            break
        ratio = errors[k + 1] / errors[k] ** 2
        worst.see(max(0.2 - ratio, ratio - 0.6), k=k)  # ratio outside [0.2, 0.6]
    reports.append(worst.report())

    worst = Worst("fixedpoint.root_rewrite_equivalence", 1e-9)
    built = 0
    while built < 20:
        roots = sorted(stream.uniform(-2.0, 2.0) for _ in range(3))
        if min(roots[1] - roots[0], roots[2] - roots[1]) < 0.3:
            continue
        built += 1
        f = mul(mul(sub(var(), const(roots[0])), sub(var(), const(roots[1]))),
                sub(var(), const(roots[2])))
        t = fp.newton(f, roots[0] + 0.05, 1e-12, 100)
        g = fp.root_as_fixed_point(f)
        worst.see(abs(g(t.final()) - t.final()) if t.converged else math.inf, f=render(f))
    reports.append(worst.report())

    tol = 1e-9
    M = fp.SmallMatrix([[2.0, 1.0], [1.0, 2.0]])
    result = fp.power_method(M, np.array([1.0, 0.0]), tol, 500)
    worst = Worst("fixedpoint.power_method_residual", 10.0 * tol * abs(result.eigenvalue))
    residual = np.abs(M.as_array() @ result.eigenvector - result.eigenvalue * result.eigenvector)
    worst.see(residual, row=np.arange(residual.size))
    reports.append(worst.report())

    broken = []
    for g_text, x0 in (("cos(x)", 1.0), ("x", 2.0), ("2*x", 1.0)):
        t = fp.iterate_scalar(from_expr(parse(g_text)), x0, 1e-10, 40)
        if list(t.residuals) != [abs(q - p) for p, q in zip(t.iterates, t.iterates[1:])]:
            broken.append({"g": g_text, "x0": x0, "broken": "residuals"})
        if t.converged and t.residuals[-1] > 1e-10:
            broken.append({"g": g_text, "x0": x0, "broken": "converged"})
    reports.append(from_failures("fixedpoint.trace_integrity", broken))
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
