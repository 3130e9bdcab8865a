#!/usr/bin/env python3
"""Fixed-point iteration walkthrough: cosine iteration, Newton on x^2-2,
and the power method on a small symmetric matrix.

Example:
    python scripts/fixedpoint_demo.py
"""

import sys
from pathlib import Path

import numpy as np

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from opcalc.expr import parse
from opcalc.fixedpoint import SmallMatrix, iterate_scalar, newton, power_method
from opcalc.funcspace import from_expr


def main() -> int:
    g = from_expr(parse("cos(x)"))
    trace = iterate_scalar(g, 1.0, 1e-10, 200)
    print(f"cos iteration: {trace.iterations_used} steps -> "
          f"{trace.final():.10f} (converged={trace.converged})")

    trace = newton(parse("x^2-2"), 1.0, 1e-12, 20)
    print("\nNewton on x^2-2 from x0=1:")
    for k, x in enumerate(trace.iterates):
        residual = "" if k == 0 else f"  |f|={trace.residuals[k-1]:.3e}"
        print(f"  k={k}: x={x:.12f}{residual}")

    matrix = SmallMatrix([[2.0, 1.0], [1.0, 2.0]])
    result = power_method(matrix, np.array([1.0, 0.0]), 1e-10, 500)
    print(f"\npower method on [[2,1],[1,2]]: eigenvalue {result.eigenvalue:.10f}, "
          f"eigenvector {np.round(result.eigenvector, 8)}, "
          f"{result.trace.iterations_used} iterations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
