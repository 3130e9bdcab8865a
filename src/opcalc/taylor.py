"""Taylor expansion built by iterating the FTOC substitution, and the
remainder evaluated along four routes plus a bound.

The expansion never touches a closed-form coefficient rule: starting from
the order -1 expansion, in which all of f is residual, each step substitutes
f = f(a)*1 + I_a D f into the residual term, which promotes one derivative
value into the coefficient list and leaves the residual as the (N+1)-fold
integral of the (N+1)-th derivative.  Coefficients store derivative values
f^(n)(a); the 1/n! is applied when the polynomial is evaluated, matching the
operator-series form where the n-th coefficient multiplies the n-fold
integral of 1.

Remainder routes:
  direct          f(x) - P_N(x)
  exact_integral  single quadrature of (x-t)^N/N! * f^(N+1)(t)
  nested_integral N+1 literal applications of I_a (pre-exchange order), by
                  operators.iterated_integral
  sliced          f^(N+1) against simplex slice volumes (simplex.py)
  bound           sup|f^(N+1)| * |x-a|^(N+1)/(N+1)!
The integral routes run on funcspace's one quadrature engine.  Exact and
sliced are one weighted funcspace.integrate_many call that differ only in
the kernel's arithmetic, so their agreement checks the kernels.
remainder_routes evaluates all routes at many points, with each point's
largest pairwise gap; that agreement is what the test suites certify.
Every route takes an array of points x, and a scalar x returns a float;
the nested route runs while N+1 <= NESTED_MAX_DEPTH.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .expr import (
    DomainError, Expr, brief, differentiate, evaluate_array, render, simplify, value_at,
)
from .funcspace import (
    DEFAULT_QUAD_CONFIG, QuadratureConfig, from_callable, from_expr, integrate,
    integrate_many,
)
from .operators import iterated_integral, monotone_bound
from .report import CheckReport, from_gap
from .simplex import remainder_by_slicing

# The nested route runs while order+1 <= 4.  Not a cost limit: the acceptance
# tests and perfbench's checks.NESTED_MAX_ORDER pin nested_integral non-null
# exactly at orders <= 3, so raising it waits for a benchmark change to both.
NESTED_MAX_DEPTH = 4
_ROUTE_CHUNK = 64  # points per remainder_routes batch: bounds its memory


@dataclass(frozen=True)
class TaylorExpansion:
    """Expansion of `source` about `base` to order `order`.

    coefficients[n] is the derivative value f^(n)(base) (no factorial);
    derivative_exprs[n] is the exact symbolic n-th derivative, kept one
    order past the expansion so the residual integrand is always at hand.
    `values` is the node -> value-at-base memo every order shares; equality ignores it.
    """

    base: float
    coefficients: tuple[float, ...]
    derivative_exprs: tuple[Expr, ...]
    values: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if len(self.derivative_exprs) != len(self.coefficients) + 1:
            raise ValueError("need exactly one more derivative expression than coefficients")

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    @property
    def source(self) -> Expr:
        return self.derivative_exprs[0]

    def residual_integrand(self) -> Expr:
        """The (N+1)-th derivative, the integrand of the residual term."""
        return self.derivative_exprs[-1]


def ftoc_step(partial: TaylorExpansion) -> TaylorExpansion:
    """One fixed-point substitution: the residual I_a^{N+1} D^{N+1} f becomes
    D^{N+1} f(a) * I_a^{N+1} 1 plus the next residual, promoting one new
    coefficient, read from the memo that every order of the expansion shares."""
    residual = partial.residual_integrand()
    next_deriv = simplify(differentiate(residual))
    new_coeff = value_at(residual, partial.base, partial.values)
    return TaylorExpansion(partial.base, partial.coefficients + (new_coeff,),
                           partial.derivative_exprs + (next_deriv,), partial.values)


def expand(f: Expr, a: float, order: int) -> TaylorExpansion:
    """Apply ftoc_step order+1 times to the order -1 expansion, in which all
    of f is residual; the first step is the FTOC itself, f = f(a)*1 + I_a D f."""
    if order < 0:
        raise ValueError("order must be >= 0")
    if order > 12:
        raise ValueError("order capped at 12 (cost guard)")
    t = TaylorExpansion(float(a), (), (f,))
    for _ in range(order + 1):
        t = ftoc_step(t)
    return t


def evaluate_polynomial(t: TaylorExpansion, x):
    """P_N(x) via Horner in the shifted variable (x - base).  x may be an
    array; a scalar returns a float."""
    with np.errstate(all="ignore"):  # an overflow shows as inf, which callers refuse
        u = np.asarray(x, dtype=float) - t.base
        acc = np.full(u.shape, t.coefficients[t.order] / math.factorial(t.order))
        for n in range(t.order - 1, -1, -1):
            acc = t.coefficients[n] / math.factorial(n) + u * acc
    return acc if acc.ndim else float(acc)


def remainder_direct(t: TaylorExpansion, x):
    """f(x) - P_N(x).  x may be an array; a scalar returns a float."""
    xs = np.atleast_1d(x)
    with np.errstate(all="ignore"):  # an overflow shows as inf, which callers refuse
        values = evaluate_array(t.source, xs) - evaluate_polynomial(t, xs)
    return values if np.ndim(x) else float(values[0])


def remainder_exact(t: TaylorExpansion, x,
                    cfg: QuadratureConfig = DEFAULT_QUAD_CONFIG):
    """Single quadrature of (x-s)^N/N! * f^(N+1)(s) from base to x, one
    weighted funcspace.integrate_many call for every point.  x may be an
    array; a scalar returns a float."""
    n = t.order
    c = 1.0 / math.factorial(n)
    deriv = from_expr(t.residual_integrand(), f"remainder integrand N={n} of {brief(t.source)}")
    values = integrate_many(deriv, t.base, np.atleast_1d(x), cfg,
                            lambda xs, ts: c * np.power(xs - ts, float(n)))
    return values if np.ndim(x) else float(values[0])


def remainder_nested(t: TaylorExpansion, x,
                     cfg: QuadratureConfig = DEFAULT_QUAD_CONFIG):
    """The residual I_a^{N+1} f^(N+1) as N+1 literal applications of I_a
    (operators.iterated_integral), before any order exchange.  x may be an
    array; a scalar returns a float."""
    n = t.order
    if n + 1 > NESTED_MAX_DEPTH:
        raise ValueError(f"nested remainder supports order+1 <= {NESTED_MAX_DEPTH}")
    g = from_expr(t.residual_integrand())
    values = iterated_integral(g, n + 1, t.base, cfg).eval_array(np.atleast_1d(x))
    return values if np.ndim(x) else float(values[0])


def remainder_bound(t: TaylorExpansion, x):
    """sup |f^(N+1)| times |x-a|^(N+1)/(N+1)!: operators.monotone_bound on
    [min(a,x), max(a,x)], so x < a is the oriented extension of the bound.
    x may be an array; a scalar returns a float."""
    deriv = from_expr(t.residual_integrand())
    return monotone_bound(t.order + 1, deriv, np.minimum(t.base, x), np.maximum(t.base, x))


def verify_exchange(g: tuple[Expr, Expr], a: float, upper: float,
                    cfg: QuadratureConfig = DEFAULT_QUAD_CONFIG) -> CheckReport:
    """Check the order-exchange identity for a product integrand
    g(t_i, t_j) = gi(t_i) * gj(t_j):

        int_a^u int_a^{t_j} g dt_i dt_j  ==  int_a^u int_{t_i}^u g dt_j dt_i

    Both sides are evaluated honestly as nested quadratures.
    """
    gi, gj = g
    a = float(a)
    upper = float(upper)
    fi = from_expr(gi, f"gi={render(gi)}")
    fj = from_expr(gj, f"gj={render(gj)}")

    # integrals are oriented, so int_t^u fj == -int_u^t fj exactly
    lhs_fn = from_callable(lambda ts: fj.eval_array(ts) * integrate_many(fi, a, ts, cfg),
                           "inner integral, original order")
    rhs_fn = from_callable(lambda ts: fi.eval_array(ts) * -integrate_many(fj, upper, ts, cfg),
                           "inner integral, exchanged order")
    lhs = integrate(lhs_fn, a, upper, cfg)
    rhs = integrate(rhs_fn, a, upper, cfg)
    return from_gap(
        f"exchange[{render(gi)} x {render(gj)}; a={a}, u={upper}]",
        abs(lhs - rhs), 10.0 * cfg.abs_tolerance,
        lhs=lhs, rhs=rhs,
    )


def _cross_check(route, name: str, xs: list[float]) -> list:
    """route(xs) as a list, None where it raises DomainError, and then one stderr line."""
    try:
        return route(xs).tolist()
    except DomainError as err:
        print(f"warning: {name} is null where it fails: {err}", file=sys.stderr)
    values = []
    for x in xs:
        try:
            values.append(route(x))
        except DomainError:
            values.append(None)
    return values


def _finite(what: str, xs: list[float], values: list[float]) -> list[float]:
    """values, or ArithmeticError naming the first point where one is not finite."""
    for x, v in zip(xs, values):
        if not math.isfinite(v):
            raise ArithmeticError(f"{what} is not finite at x={x!r}: {v!r}")
    return values


def remainder_routes(t: TaylorExpansion, points,
                     cfg: QuadratureConfig = DEFAULT_QUAD_CONFIG) -> list[dict]:
    """One CLI remainder row per point: the remainder of t along every route
    and max_gap, the largest pairwise gap between the route values (the bound
    is not one); nested is None when order+1 exceeds NESTED_MAX_DEPTH.
    A DomainError in a cross-check route (nested, sliced, bound) makes that
    value None; max_gap skips None and non-finite values.  A non-finite direct
    or exact value raises ArithmeticError naming its point, the direct one
    before any quadrature runs.  Points go _ROUTE_CHUNK at a time."""
    rows = []
    for i in range(0, len(points), _ROUTE_CHUNK):
        xs = [float(x) for x in points[i:i + _ROUTE_CHUNK]]
        direct = _finite("f(x) - P_N(x)", xs, remainder_direct(t, xs).tolist())
        exact = _finite("exact_integral", xs, remainder_exact(t, xs, cfg).tolist())
        nested = (_cross_check(lambda p: remainder_nested(t, p, cfg), "nested_integral", xs)
                  if t.order + 1 <= NESTED_MAX_DEPTH else [None] * len(xs))
        sliced = _cross_check(lambda p: remainder_by_slicing(t, p, cfg), "sliced", xs)
        bound = _cross_check(lambda p: remainder_bound(t, p), "bound", xs)
        for x, d, e, n, s, b in zip(xs, direct, exact, nested, sliced, bound):
            values = [v for v in (d, e, s, n) if v is not None and math.isfinite(v)]
            rows.append({"x": x, "direct": d, "exact_integral": e,
                         "nested_integral": n, "sliced": s, "bound": b,
                         "max_gap": max(abs(p - q) for p in values for q in values)})
    return rows
