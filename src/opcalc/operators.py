"""First-class linear operators on function values.

Operators are small immutable trees: differentiation, integration from a
base point, evaluation at a point, scalar multiples, sums and compositions.
`apply` turns an operator tree plus a RealFunction into a new RealFunction.

Differentiation is symbolic-only: it requires the operand to be
expression-backed, except that differentiating an integral-backed function
recovers its integrand exactly (the derivative half of the fundamental
theorem).  Compositions apply their operators one at a time, innermost
first, so D composed with I_a returns the operand itself through that
provenance, and I_a of a nest from the same base deepens that nest.

I_a^n, a single I_a (n = 1) included, is `iterated_integral`, a NestSource
that funcspace's quadrature engine evaluates: each point's [a, x] is
bisected adaptively into panels of 16 Gauss-Legendre nodes, the integrand
is evaluated once at every node, and each of the n levels applies one
indefinite-integration matrix per panel plus a running sum of panel totals
(Greengard 1991; Trefethen, ATAP ch. 19).  The provenance lets D peel one
level at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expr import const, differentiate, mul, simplify
from .funcspace import (
    DEFAULT_QUAD_CONFIG, NestSource, QuadratureConfig, RealFunction, _check_range,
    constant_one, from_callable, from_expr, linear_combination, span_interval,
    sup_abs_many,
)
from .report import CheckReport, Worst


class UnsupportedDifferentiationError(TypeError):
    """Differentiation was applied to a function with no symbolic backing."""

    def __init__(self, label: str):
        self.label = label
        super().__init__(
            f"cannot differentiate '{label}': no symbolic backing and no "
            f"integral provenance to cancel against"
        )


class OperatorNode:
    """Base class for operator tree nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Differentiate(OperatorNode):
    pass


@dataclass(frozen=True)
class IntegrateFrom(OperatorNode):
    base: float


@dataclass(frozen=True)
class EvaluateAt(OperatorNode):
    base: float


@dataclass(frozen=True)
class Scale(OperatorNode):
    factor: float


@dataclass(frozen=True)
class Sum(OperatorNode):
    left: OperatorNode
    right: OperatorNode


@dataclass(frozen=True)
class Compose(OperatorNode):
    outer: OperatorNode
    inner: OperatorNode


def describe(op: OperatorNode) -> str:
    if isinstance(op, Differentiate):
        return "D"
    if isinstance(op, IntegrateFrom):
        return f"I[{op.base}]"
    if isinstance(op, EvaluateAt):
        return f"eval[{op.base}]"
    if isinstance(op, Scale):
        return f"scale[{op.factor}]"
    if isinstance(op, Sum):
        return f"({describe(op.left)}+{describe(op.right)})"
    if isinstance(op, Compose):
        return f"{describe(op.outer)}.{describe(op.inner)}"
    raise TypeError(f"not an operator node: {op!r}")


# ---------------------------------------------------------------------------
# Application
# ---------------------------------------------------------------------------

def _apply_differentiate(f: RealFunction) -> RealFunction:
    if f.is_expr_backed():
        d = simplify(differentiate(f.as_expr()))
        return from_expr(d, f.domain, f"D({f.label})")
    if isinstance(f.source, NestSource):
        s = f.source
        return iterated_integral(s.integrand, s.depth - 1, s.base, s.cfg)
    raise UnsupportedDifferentiationError(f.label)


def apply(op: OperatorNode, f: RealFunction,
          cfg: QuadratureConfig = DEFAULT_QUAD_CONFIG) -> RealFunction:
    """Apply an operator to a function value, producing a function value."""
    if isinstance(op, Differentiate):
        return _apply_differentiate(f)
    if isinstance(op, IntegrateFrom):
        return iterated_integral(f, 1, op.base, cfg)
    if isinstance(op, EvaluateAt):
        value = f(op.base)
        return from_expr(const(value), f.domain, f"{f.label}({op.base})*1")
    if isinstance(op, Scale):
        c = op.factor
        if f.is_expr_backed():
            return from_expr(mul(const(c), f.as_expr()), f.domain,
                             f"{c}*({f.label})")
        return from_callable(lambda xs: c * f.eval_array(xs), f.domain, f"{c}*({f.label})")
    if isinstance(op, Sum):
        left = apply(op.left, f, cfg)
        right = apply(op.right, f, cfg)
        return linear_combination(1.0, left, 1.0, right)
    if isinstance(op, Compose):
        return apply(op.outer, apply(op.inner, f, cfg), cfg)
    raise TypeError(f"not an operator node: {op!r}")


# ---------------------------------------------------------------------------
# Named operators and derived quantities
# ---------------------------------------------------------------------------

def ftoc_operator(a: float) -> OperatorNode:
    """The map f -> f(a)*1 + I_a D f, whose fixed points are everything."""
    return Sum(EvaluateAt(a), Compose(IntegrateFrom(a), Differentiate()))


def iterated_integral(g: RealFunction, n: int, a: float,
                      cfg: QuadratureConfig = DEFAULT_QUAD_CONFIG) -> RealFunction:
    """I_a^n g, n >= 0, as a NestSource that the quadrature engine evaluates;
    I_a^0 g is g, and I_a^n of a nest I_a^m h, same cfg, is I_a^(n+m) h."""
    if n < 0:
        raise ValueError("iterated_integral requires n >= 0")
    if n == 0:
        return g
    _check_range(g, a, a)
    s = g.source
    if isinstance(s, NestSource) and s.base == float(a) and s.cfg == cfg:
        g, n = s.integrand, s.depth + n  # one engine call, not a nest of quadratures
    return RealFunction(NestSource(float(a), g, n, cfg), g.domain, f"I[{a}]^{n}({g.label})")


def iterated_integral_one(n: int, a: float, x: float,
                          cfg: QuadratureConfig = DEFAULT_QUAD_CONFIG) -> float:
    """Value of the n-fold iterated integral of 1 from a, at x, computed by
    literally nesting I_a (no closed form)."""
    if not 1 <= n <= 12:
        raise ValueError("iterated_integral_one supports 1 <= n <= 12")
    return iterated_integral(constant_one(span_interval(a, x)), n, a, cfg)(x)


def monotone_bound(n: int, g: RealFunction, a, x):
    """Right-hand side of the iterated monotonicity bound: sup over [a,x] of
    |g| times (x-a)^n / n!.  Given arrays of ends a and x (broadcast), it
    returns an array of bounds, taking every sup in one sup_abs_many call."""
    if n < 1:
        raise ValueError("monotone_bound requires n >= 1")
    lo, hi = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(x, dtype=float))
    if (hi < lo).any():
        raise ValueError("monotone_bound is stated on [a, x]; requires x >= a")
    live = hi != lo
    bound = np.zeros(lo.shape)
    # (x-a)^n in Python floats: numpy's power may differ in the last bit
    bound[live] = [s * (q - p) ** n / math.factorial(n) for s, p, q in zip(
        sup_abs_many(g, lo[live], hi[live]).tolist(), lo[live].tolist(), hi[live].tolist())]
    return bound if bound.ndim else float(bound)


def check_linearity(op: OperatorNode, f: RealFunction, g: RealFunction,
                    alpha: float, beta: float, probe_points,
                    cfg: QuadratureConfig = DEFAULT_QUAD_CONFIG) -> CheckReport:
    """Max deviation of op(alpha*f + beta*g) from alpha*op(f) + beta*op(g)
    over the probe points, judged against 5x the quadrature tolerance."""
    points = [float(x) for x in probe_points]
    combo = linear_combination(alpha, f, beta, g)
    applied_combo = apply(op, combo, cfg)
    applied_f = apply(op, f, cfg)
    applied_g = apply(op, g, cfg)
    worst = Worst(f"linearity[{describe(op)}; {f.label}, {g.label}]", 5.0 * cfg.abs_tolerance)
    for x in points:
        worst.see(abs(applied_combo(x) - (alpha * applied_f(x) + beta * applied_g(x))), x=x)
    return worst.report()
