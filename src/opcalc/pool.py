"""The standard function pool used by the verification suites.

Six expression-backed functions whose derivatives stay well behaved on
their probe windows (the reciprocal and logarithm are probed away from
their singularity so high derivatives stay below ~1e3 in magnitude).
"""

from __future__ import annotations

from dataclasses import dataclass

from .expr import Expr, parse
from .funcspace import RealFunction, from_expr


@dataclass(frozen=True)
class PoolFunction:
    label: str
    expr: Expr
    base: float
    probe_lo: float
    probe_hi: float

    def function(self) -> RealFunction:
        return from_expr(self.expr, self.label)

    def probes(self, count: int, nonnegative_only: bool = False) -> list[float]:
        lo = self.base if nonnegative_only else self.probe_lo
        hi = self.probe_hi
        if count == 1:
            return [hi]
        return [lo + (hi - lo) * k / (count - 1) for k in range(count)]


def default_pool() -> tuple[PoolFunction, ...]:
    return (
        PoolFunction("exp(x)", parse("exp(x)"), 0.0, -1.0, 1.0),
        PoolFunction("sin(x)", parse("sin(x)"), 0.0, -1.0, 1.0),
        PoolFunction("cos(x)", parse("cos(x)"), 0.0, -1.0, 1.0),
        PoolFunction("x^5", parse("x^5"), 0.0, -1.0, 1.0),
        PoolFunction("(1+x)^(-1)", parse("(1+x)^(-1)"), 0.0, 0.0, 0.75),
        PoolFunction("ln(1+x)", parse("ln(1+x)"), 0.0, 0.0, 0.75),
    )
