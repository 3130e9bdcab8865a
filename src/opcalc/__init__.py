"""opcalc: Taylor expansion by fixed-point iteration of the calculus
operators, with every identity in the construction verified numerically.

The expansion engine repeatedly substitutes f = f(a)*1 + I_a(D f) into its
own residual term; the remainder is then evaluated four ways (directly,
as a single weighted integral, as literally nested integrals, and as the
same weighted integral with simplex slice volumes for its kernel) and
bounded through the sup norm.
"""

from .expr import (
    DomainError, Expr, ParseError, differentiate, evaluate, parse, render,
    simplify,
)
from .fixedpoint import (
    IterationTrace, SmallMatrix, iterate_scalar, newton, power_method,
    root_as_fixed_point,
)
from .funcspace import (
    DEFAULT_QUAD_CONFIG, QuadratureConfig, RealFunction, ToleranceNotMetError,
    constant_one, from_callable, from_expr, integrate, integrate_many, sup_abs,
)
from .operators import (
    Compose, Differentiate, EvaluateAt, IntegrateFrom, OperatorNode, Scale, Sum,
    UnsupportedDifferentiationError, apply, check_linearity, ftoc_operator,
    iterated_integral, iterated_integral_one, monotone_bound,
)
from .report import CheckReport
from .simplex import (
    MonteCarloConfig, PartitionReport, SimplexSpec, ordering_partition_check,
    remainder_by_slicing, simplex_volume_exact, simplex_volume_montecarlo,
    sliced_simplex_volume,
)
from .taylor import (
    TaylorExpansion, evaluate_polynomial, expand, ftoc_step, remainder_bound,
    remainder_direct, remainder_exact, remainder_nested, remainder_routes,
    verify_exchange,
)

__version__ = "0.1.0"
