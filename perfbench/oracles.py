"""Reference values computed apart from opcalc.

Nothing here imports opcalc.  Expressions are read by translating opcalc's
infix text into Python syntax and evaluating it over mpmath numbers, so the
parser, the evaluator and the symbolic differentiator under test play no part
in the references.  Derivatives come from ``mpmath.taylor`` (numerical
differentiation at raised precision), roots from ``mpmath.findroot``, and
(x-a)^n/n! from exact rationals.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

DPS = 40

_NAMESPACE = {"sin": mpmath.sin, "cos": mpmath.cos, "exp": mpmath.exp,
              "ln": mpmath.log}


def mp_function(text: str):
    """The expression ``text`` (opcalc grammar) as a function of one mpf.

    opcalc's grammar maps onto Python's: ``^`` becomes ``**`` (unary minus
    binds looser than both), and the exponent is always a literal.
    """
    code = compile(text.replace("^", "**"), "<expression>", "eval")

    def f(t):
        return eval(code, {"__builtins__": {}}, dict(_NAMESPACE, x=t))

    return f


def derivatives(text: str, a: float, order: int) -> list:
    """f^(k)(a) for k = 0..order, as mpf values."""
    with mpmath.workdps(DPS):
        coeffs = mpmath.taylor(mp_function(text), mpmath.mpf(a), order)
        return [c * mpmath.factorial(k) for k, c in enumerate(coeffs)]


def polynomial(derivs: list, a: float, x: float):
    """P_N(x) from the derivative values at a."""
    with mpmath.workdps(DPS):
        u = mpmath.mpf(x) - mpmath.mpf(a)
        return mpmath.fsum(d * u ** k / mpmath.factorial(k)
                           for k, d in enumerate(derivs))


def remainder(text: str, derivs: list, a: float, x: float):
    """f(x) - P_N(x)."""
    with mpmath.workdps(DPS):
        return mp_function(text)(mpmath.mpf(x)) - polynomial(derivs, a, x)


def root(text: str, x0: float):
    """A root of the expression near x0."""
    with mpmath.workdps(30):
        return mpmath.findroot(mp_function(text), mpmath.mpf(x0))


def simplex_volume(n: int, a: float, x: float) -> float:
    """(x-a)^n / n! in exact rational arithmetic, rounded once.

    For x >= a this is the volume of the ordered simplex
    a <= t_n <= ... <= t_1 <= x; for any x it is the n-fold iterated
    integral I_a^n 1, the basis ladder's value.
    """
    return float((Fraction(x) - Fraction(a)) ** n / math.factorial(n))
