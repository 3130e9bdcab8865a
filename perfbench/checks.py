"""Checks of opcalc's outputs against references and method properties.

Every function returns a list of problems; an empty list means the output
passed.  Tolerances are the ones opcalc's acceptance criteria pin.
"""

from __future__ import annotations

# Every invariant `opcalc verify` reports, in the order it reports them.
VERIFY_INVARIANTS = (
    "expr.derivative_matches_finite_difference",
    "expr.simplify_preserves_value",
    "expr.parse_render_round_trip",
    "funcspace.integrate_linearity",
    "funcspace.integrate_monotonicity",
    "funcspace.integrate_additivity",
    "funcspace.sup_abs_dominates_samples",
    "operators.composition_associativity",
    "operators.ftoc_fixed_point",
    "operators.monotone_bound",
    "operators.basis_closed_form",
    "taylor.remainder_exact_vs_direct",
    "taylor.remainder_nested_vs_exact",
    "taylor.remainder_bound_validity",
    "taylor.bound_factorial_decay",
    "taylor.polynomial_exactness",
    "taylor.fixed_point_consistency",
    "taylor.exchange_identity",
    "simplex.exact_vs_montecarlo",
    "simplex.tiling_partition",
    "simplex.equal_cell_volumes",
    "simplex.slicing_consistency",
    "simplex.dimensional_recursion",
    "fixedpoint.newton_quadratic_convergence",
    "fixedpoint.root_rewrite_equivalence",
    "fixedpoint.power_method_residual",
    "fixedpoint.trace_integrity",
)

COEFFICIENT_REL_TOL = 1e-10     # derivative values and P_N(x) vs mpmath
ROOT_TOL = 1e-10                # Newton root vs mpmath.findroot
NESTED_ROUTE_TOL = 1e-6         # acceptance criterion 2, order <= 3
ROUTE_TOL = 1e-7                # acceptance criterion 2, order >= 4
NESTED_MAX_ORDER = 3            # nested route runs while order + 1 <= 4
BASIS_TOL = 1e-9                # acceptance criterion 1
MC_SIGMAS = 5.0


def _close(got, ref) -> bool:
    return abs(got - float(ref)) <= COEFFICIENT_REL_TOL * (1.0 + abs(float(ref)))


def check_expand(doc: dict, derivs: list, poly: dict) -> list[str]:
    """derivative_at_base rows against f^(n)(a), and polynomial_value rows
    against P_N(x); `poly` maps each x to its reference value."""
    problems = []
    coeff_rows = [r for r in doc["rows"] if r["row_type"] == "coefficient"]
    if [r["n"] for r in coeff_rows] != list(range(len(derivs))):
        problems.append(f"coefficient rows {[r['n'] for r in coeff_rows]} "
                        f"for order {len(derivs) - 1}")
    for row, ref in zip(coeff_rows, derivs):
        if not _close(row["derivative_at_base"], ref):
            problems.append(f"f^({row['n']})(a) = {row['derivative_at_base']!r}, "
                            f"reference {float(ref)!r}")
    eval_rows = [r for r in doc["rows"] if r["row_type"] == "evaluation"]
    if sorted(r["x"] for r in eval_rows) != sorted(poly):
        problems.append("evaluation rows do not match the requested points")
    for row in eval_rows:
        ref = poly.get(row["x"])
        if ref is not None and not _close(row["polynomial_value"], ref):
            problems.append(f"P_N({row['x']!r}) = {row['polynomial_value']!r}, "
                            f"reference {float(ref)!r}")
    return problems


def check_newton(doc: dict, root) -> list[str]:
    problems = []
    final = doc["rows"][-1]["iterate"]
    if abs(final - float(root)) > ROOT_TOL:
        problems.append(f"Newton root {final!r}, reference {float(root)!r}")
    if not all(inv["pass"] for inv in doc["invariants"]):
        problems.append("Newton iteration did not report convergence")
    return problems


def check_remainder(doc: dict, order: int, remainders: dict) -> list[str]:
    """Each route against f(x) - P_N(x); `remainders` maps x to it."""
    problems = []
    if sorted(r["x"] for r in doc["rows"]) != sorted(remainders):
        problems.append("remainder rows do not match the requested points")
    for row in doc["rows"]:
        ref = remainders.get(row["x"])
        if ref is None:
            continue
        ref = float(ref)
        has_nested = order <= NESTED_MAX_ORDER
        if (row["nested_integral"] is not None) != has_nested:
            problems.append(f"order {order}: nested_integral is "
                            f"{row['nested_integral']!r}")
        tol = NESTED_ROUTE_TOL if has_nested else ROUTE_TOL
        for route in ("direct", "exact_integral", "nested_integral", "sliced"):
            value = row[route]
            if value is not None and abs(value - ref) > tol:
                problems.append(f"order {order}, x={row['x']!r}: {route} "
                                f"{value!r} vs reference {ref!r}")
        if row["bound"] * (1.0 + 1e-9) + 1e-12 < abs(ref):
            problems.append(f"order {order}, x={row['x']!r}: bound "
                            f"{row['bound']!r} below |remainder| {abs(ref)!r}")
    return problems


def check_basis(n: int, value: float, reference) -> list[str]:
    if abs(value - float(reference)) > BASIS_TOL:
        return [f"I_a^{n} 1 = {value!r}, reference {float(reference)!r}"]
    return []


def check_simplex(doc: dict, exact_volume: float, partitioned: bool) -> list[str]:
    problems = []
    row = doc["rows"][0]
    if row["exact_volume"] != exact_volume:
        problems.append(f"n={row['n']}: exact_volume {row['exact_volume']!r}, "
                        f"rational value {exact_volume!r}")
    se = row["std_error"]
    if not se > 0.0:
        problems.append(f"n={row['n']}: std_error {se!r} is not positive")
    elif abs(row["estimate"] - exact_volume) > MC_SIGMAS * se:
        problems.append(f"n={row['n']}: estimate {row['estimate']!r} is more "
                        f"than {MC_SIGMAS} standard errors from {exact_volume!r}")
    if partitioned:
        if row["partition_pass"] is not True:
            problems.append(f"n={row['n']}: partition check failed")
        if row["classified"] + row["discarded_duplicates"] != row["samples"]:
            problems.append(f"n={row['n']}: classified + discarded != samples")
    return problems


def check_verify(doc: dict, rc: int, stderr: str, suites: tuple[str, ...],
                 flagged: tuple[str, ...] = ()) -> list[str]:
    """A verify pass over `suites` must report every documented invariant of
    those suites, in order, with exactly the `flagged` ones failing and the
    exit code that follows from that."""
    problems = []
    expected = [n for n in VERIFY_INVARIANTS if n.split(".")[0] in suites]
    names = [inv["name"] for inv in doc["invariants"]]
    if names != expected:
        problems.append(f"invariants reported {names}, documented {expected}")
    failing = tuple(inv["name"] for inv in doc["invariants"] if not inv["pass"])
    if failing != tuple(flagged):
        problems.append(f"failing invariants {list(failing)}, "
                        f"expected {list(flagged)}")
    want_rc = 1 if flagged else 0
    if rc != want_rc:
        problems.append(f"exit code {rc}, expected {want_rc}")
    for name in flagged:
        if name not in stderr:
            problems.append(f"stderr does not name {name}")
    return problems
