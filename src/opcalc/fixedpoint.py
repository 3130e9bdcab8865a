"""Fixed-point iteration toolkit: scalar iteration, Newton's method with
symbolic derivatives, the matrix power method, and the root-as-fixed-point
rewriting.  The three methods are step maps over one loop, `_iterate`.

Convergence claims here are local: non-convergence within the iteration
budget is reported as data in the trace, not raised as an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .expr import DomainError, Expr, add, differentiate, evaluate, simplify, var
from .funcspace import RealFunction, from_expr


class ZeroDerivativeError(ArithmeticError):
    """Newton step attempted where the derivative vanishes."""

    def __init__(self, iterate: float, index: int):
        self.iterate = iterate
        self.index = index
        super().__init__(f"zero derivative at iterate {index} (x = {iterate})")


class ZeroImageError(ArithmeticError):
    """Power-method step mapped the current vector to zero."""


class IterationDomainError(RuntimeError):
    """Evaluation failed mid-iteration; carries the partial trace."""

    def __init__(self, trace: "IterationTrace", cause: Exception):
        self.trace = trace
        self.cause = cause
        super().__init__(f"iteration aborted after {trace.iterations_used} steps: {cause}")


@dataclass(frozen=True)
class IterationTrace:
    """Iterates (including the start), per-step residuals, and the verdict."""

    iterates: tuple
    residuals: tuple[float, ...]
    converged: bool
    iterations_used: int

    def __post_init__(self):
        if len(self.residuals) != self.iterations_used:
            raise ValueError("need one residual per iteration")
        if len(self.iterates) != self.iterations_used + 1:
            raise ValueError("iterates must include the starting point")

    def final(self):
        return self.iterates[-1]


class SmallMatrix:
    """Dense square matrix, dimension 2..16, row-major entries."""

    def __init__(self, rows):
        array = np.asarray(rows, dtype=float)
        if array.ndim != 2 or array.shape[0] != array.shape[1]:
            raise ValueError("matrix must be square")
        d = array.shape[0]
        if not 2 <= d <= 16:
            raise ValueError("dimension must be in 2..16")
        if not np.isfinite(array).all():
            raise ValueError("all entries must be finite")
        self._array = array
        self.entries = tuple(tuple(float(v) for v in row) for row in array)

    @property
    def dimension(self) -> int:
        return self._array.shape[0]

    def as_array(self) -> np.ndarray:
        return self._array.copy()

    def __repr__(self) -> str:
        return f"SmallMatrix({self.entries!r})"


class PowerMethodResult(NamedTuple):
    eigenvalue: float
    eigenvector: np.ndarray
    trace: IterationTrace


def _iterate(step, x0, tol: float, max_iter: int, wrap=()) -> IterationTrace:
    """The one fixed-point loop.  step(x, k) returns the next iterate and its
    residual; the loop stops at the first residual <= tol.  An exception of a
    `wrap` type is re-raised as IterationDomainError carrying the trace so far."""
    if not tol >= 0.0:  # NaN too
        raise ValueError(f"tol must be >= 0, got {tol!r}")
    iterates, residuals, converged = [x0], [], False
    for k in range(max_iter):
        try:
            x, residual = step(iterates[-1], k)
        except wrap as err:
            partial = IterationTrace(tuple(iterates), tuple(residuals), False, len(residuals))
            raise IterationDomainError(partial, err) from err
        iterates.append(x)
        residuals.append(residual)
        converged = residual <= tol
        if converged:
            break
    return IterationTrace(tuple(iterates), tuple(residuals), converged, len(residuals))


def iterate_scalar(g: RealFunction, x0: float, tol: float,
                   max_iter: int) -> IterationTrace:
    """Iterate x <- g(x); converged when successive iterates move <= tol."""
    def step(x, k):
        xn = g(x)
        return xn, abs(xn - x)

    return _iterate(step, float(x0), tol, max_iter,
                    wrap=(DomainError, ValueError, ArithmeticError))


def newton(f: Expr, x0: float, tol: float, max_iter: int) -> IterationTrace:
    """Newton iteration x <- x - f(x)/f'(x) with the exact symbolic
    derivative; converged when |f(x)| <= tol."""
    fprime = simplify(differentiate(f))

    def step(x, k):
        d = evaluate(fprime, x)
        if d == 0.0:
            raise ZeroDerivativeError(x, k)
        x = x - evaluate(f, x) / d
        return x, abs(evaluate(f, x))

    return _iterate(step, float(x0), tol, max_iter)


def power_method(M: SmallMatrix, v0, tol: float,
                 max_iter: int) -> PowerMethodResult:
    """Iterate v <- Mv/|Mv|; direction change is compared sign-aligned so a
    negative dominant eigenvalue still registers convergence.  The
    eigenvalue is read off as the Rayleigh quotient of the final vector."""
    A = M.as_array()
    v = np.asarray(v0, dtype=float)
    if v.shape != (M.dimension,):
        raise ValueError(f"v0 must have length {M.dimension}")
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ValueError("v0 must be nonzero")

    def step(v, k):
        w = A @ v
        wnorm = float(np.linalg.norm(w))
        if wnorm == 0.0:
            raise ZeroImageError(f"matrix maps iterate {k} to zero")
        vn = w / wnorm
        sign = 1.0 if float(vn @ v) >= 0.0 else -1.0
        return vn, float(np.linalg.norm(vn - sign * v))

    trace = _iterate(step, v / norm, tol, max_iter)
    v = trace.final().copy()  # the eigenvector is not the trace's last array
    return PowerMethodResult(float(v @ (A @ v)), v, trace)  # Rayleigh quotient; v is unit


def root_as_fixed_point(f: Expr) -> RealFunction:
    """g(x) = x + f(x): the fixed points of g are exactly the roots of f."""
    return from_expr(add(var(), f), "x+f(x)")
