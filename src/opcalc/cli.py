"""Command-line surface: expansion tables, remainder comparisons, simplex
experiments, a Newton driver, and the invariant verifier.

Output is CSV (RFC 4180, header row mandatory) or JSON with the fixed
top-level shape {"command", "config", "rows", "invariants"}.  Floats are
serialized with 17 significant digits so values round-trip exactly.

Exit codes: 0 success, 1 invariant failure (verify), 2 usage or parse
error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import re
import sys

from .expr import DomainError, ParseError, parse
from .fixedpoint import IterationDomainError, newton
from .funcspace import DEFAULT_QUAD_CONFIG, QuadratureConfig
from .operators import UnsupportedDifferentiationError
from .simplex import (
    PARTITION_DIMENSIONS, MonteCarloConfig, SimplexSpec, cochran_samples,
    ordering_partition_check, simplex_volume_exact, simplex_volume_montecarlo,
)
from .taylor import evaluate_polynomial, expand, remainder_routes
from .verify import SUITE_NAMES, VerifyConfig, run_suites

EXIT_OK = 0
EXIT_INVARIANT_FAILURE = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

MAX_RANGE_COUNT = 1_000_000     # --range builds its points before any work
MAX_ITER = 1_000_000            # fixedpoint keeps every iterate and prints a row for each

# ---------------------------------------------------------------------------
# Serialization (deterministic, 17 significant digits)
# ---------------------------------------------------------------------------

def format_float(value: float) -> str:
    if not math.isfinite(value):
        raise ArithmeticError(f"non-finite value in report: {value!r}")
    return f"{value:.17g}"


def _to_json(obj) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        parts = (f"{json.dumps(str(k))}: {_to_json(v)}" for k, v in obj.items())
        return "{" + ", ".join(parts) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_to_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def render_json(doc: dict) -> str:
    return _to_json(doc) + "\n"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def render_csv(columns: list[str], records: list[dict]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    writer.writerow(columns)
    for record in records:
        writer.writerow([_csv_cell(record.get(c)) for c in columns])
    return buffer.getvalue()


def _emit(args, command: str, config: dict, rows: list[dict],
          invariants: list[dict]) -> None:
    if args.format == "json":
        text = render_json({"command": command, "config": config,
                            "rows": rows, "invariants": invariants})
    else:
        records = invariants if command == "verify" else rows
        text = render_csv(list(records[0]), records)
    if args.out:
        try:
            with open(args.out, "w", newline="") as handle:
                handle.write(text)
        except OSError as err:
            raise ValueError(f"cannot write {args.out}: {err.strerror or err}") from err
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _finite_float(text: str) -> float:
    """The argparse type of every float flag: a finite number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _points_list(text: str) -> list[float]:
    return [_finite_float(part) for part in text.split(",") if part.strip() != ""]


def _add_output_flags(sp, tol=DEFAULT_QUAD_CONFIG.abs_tolerance, rel_tol=True):
    """--format and --out, then --tol unless tol is None, and --rel-tol if rel_tol."""
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--out", default=None, help="output path (default stdout)")
    if tol is not None:
        sp.add_argument("--tol", type=_finite_float, default=tol,
                        help="absolute quadrature tolerance")
    if rel_tol:
        sp.add_argument("--rel-tol", type=_finite_float, default=0.0,
                        help="relative quadrature tolerance")


def _add_point_flags(sp):
    sp.add_argument("--points", type=_points_list, default=None,
                    help="comma-separated evaluation points")
    sp.add_argument("--range", nargs=3, metavar=("LO", "HI", "COUNT"),
                    default=None, help="evenly spaced evaluation points")


_NEGATIVE_NUMBER = re.compile(r"^-\.?\d")


class UsageError(Exception):
    """A command line argparse rejects; main reports it on one line."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors raise UsageError instead of printing a
    usage block and exiting; add_subparsers gives subparsers this class too."""

    def error(self, message):
        raise UsageError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parse_args leaves it unchanged."""
    parser = _Parser(
        prog="opcalc",
        description="Taylor expansion by operator fixed-point iteration, "
                    "with numerically verified remainder identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("expand", help="Taylor coefficients and P_N values")
    sp.add_argument("--f", required=True, help="expression in x")
    sp.add_argument("--a", type=_finite_float, default=0.0, help="expansion base")
    sp.add_argument("--n", type=int, required=True, help="expansion order")
    _add_point_flags(sp)
    _add_output_flags(sp, rel_tol=False)

    sp = sub.add_parser("remainder", help="remainder along every route")
    sp.add_argument("--f", required=True)
    sp.add_argument("--a", type=_finite_float, default=0.0)
    sp.add_argument("--n", type=int, required=True)
    _add_point_flags(sp)
    _add_output_flags(sp)

    sp = sub.add_parser("simplex", help="order-cell volumes, exact vs Monte Carlo")
    sp.add_argument("--n", type=int, required=True, help="dimension (1..12)")
    sp.add_argument("--a", type=_finite_float, default=0.0)
    sp.add_argument("--x", type=_finite_float, default=1.0)
    sp.add_argument("--samples", type=int, default=100_000)
    sp.add_argument("--seed", type=int, default=2024)
    _add_output_flags(sp, tol=None, rel_tol=False)

    sp = sub.add_parser("fixedpoint", help="Newton iteration trace")
    sp.add_argument("--f", required=True)
    sp.add_argument("--x0", type=_finite_float, required=True)
    sp.add_argument("--max-iter", type=int, default=50)
    _add_output_flags(sp, tol=1e-10, rel_tol=False)

    sp = sub.add_parser("verify", help="run the invariant suites")
    sp.add_argument("--suite", action="append", choices=SUITE_NAMES,
                    default=None, help="restrict to one suite (repeatable)")
    sp.add_argument("--perturb-basis", type=_finite_float, default=0.0,
                    help="fault-injection hook: scales the nested integral "
                         "of 1 by (1+eps) inside the basis check")
    sp.add_argument("--samples", type=int, default=1_000_000)
    sp.add_argument("--seed", type=int, default=2024)
    _add_output_flags(sp)
    # No option looks like a number, so any "-<digit>" or "-.<digit>" is a value:
    # argparse's own matcher misses exponent forms such as -1e-3.
    for subparser in sub.choices.values():
        subparser._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def _resolve_points(args) -> list[float]:
    points: list[float] = []
    if args.points:
        points.extend(args.points)
    if args.range:
        try:
            lo, hi = map(_finite_float, args.range[:2])
        except argparse.ArgumentTypeError as err:
            raise ValueError(f"--range LO and HI: {err}") from None
        count = float(args.range[2])
        if not (count >= 1 and count.is_integer()):  # rejects nan and inf too
            raise ValueError("--range COUNT must be a positive integer")
        if count > MAX_RANGE_COUNT:
            raise ValueError(f"--range COUNT must be at most {MAX_RANGE_COUNT}")
        count = int(count)
        span = [lo] if count == 1 else [lo + (hi - lo) * k / (count - 1) for k in range(count)]
        if not all(map(math.isfinite, span)):  # HI - LO, or a multiple of it, overflows
            raise ValueError("--range gives points that are not finite; narrow LO..HI")
        points.extend(span)
    return points


def _quad_config(args) -> QuadratureConfig:
    return QuadratureConfig(abs_tolerance=args.tol, rel_tolerance=args.rel_tol)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_expand(args) -> int:
    f = parse(args.f)
    t = expand(f, args.a, args.n)
    points = _resolve_points(args)
    rows = []
    for n, c in enumerate(t.coefficients):
        rows.append({
            "row_type": "coefficient", "n": n, "derivative_at_base": c,
            "taylor_coefficient": c / math.factorial(n),
            "x": None, "polynomial_value": None,
        })
    for x in points:
        value = evaluate_polynomial(t, x)
        if not math.isfinite(value):
            raise ArithmeticError(f"P_N is not finite at x={x!r}: {value!r}")
        rows.append({
            "row_type": "evaluation", "n": None, "derivative_at_base": None,
            "taylor_coefficient": None, "x": x, "polynomial_value": value,
        })
    config = {"f": args.f, "a": args.a, "n": args.n, "points": points,
              "tol": args.tol, "format": args.format}
    _emit(args, "expand", config, rows, [])
    return EXIT_OK


def cmd_remainder(args) -> int:
    points = _resolve_points(args)
    if not points:
        raise ValueError("remainder requires --points or --range")
    f = parse(args.f)
    quad = _quad_config(args)
    rows = remainder_routes(expand(f, args.a, args.n), points, quad)
    for route in ("nested_integral", "sliced", "bound"):  # cross-checks: null, not a failure
        bad = [row for row in rows if not math.isfinite(row[route] or 0.0)]
        if bad:
            print(f"warning: {route} is null where it is not finite, first at "
                  f"x={bad[0]['x']!r}: {bad[0][route]!r}", file=sys.stderr)
        for row in bad:
            row[route] = None
    config = {"f": args.f, "a": args.a, "n": args.n, "points": points,
              "tol": args.tol, "format": args.format}
    _emit(args, "remainder", config, rows, [])
    return EXIT_OK


def cmd_simplex(args) -> int:
    spec = SimplexSpec(args.n, args.a, args.x)
    mc = MonteCarloConfig(args.samples, args.seed)
    exact = simplex_volume_exact(spec)
    estimate, std_error = simplex_volume_montecarlo(spec, mc)
    if std_error == 0.0 and estimate != exact:  # no sample hit the cell, or every one did
        raise ArithmeticError(f"estimate {estimate!r} has standard error 0 but misses "
                              f"the volume {exact!r}; raise --samples")
    z = (estimate - exact) / std_error if std_error > 0.0 else 0.0
    row = {
        "n": args.n, "a": args.a, "x": args.x, "samples": args.samples,
        "seed": args.seed, "exact_volume": exact, "estimate": estimate,
        "std_error": std_error, "z_score": z,
        "classified": None, "discarded_duplicates": None,
        "chi_square": None, "chi_square_threshold": None,
        "max_cell_z": None, "partition_pass": None,
    }
    if args.n in PARTITION_DIMENSIONS and args.samples >= cochran_samples(args.n):
        partition = ordering_partition_check(args.n, mc)
        row.update({
            "classified": partition.classified,
            "discarded_duplicates": partition.discarded_duplicates,
            "chi_square": partition.chi_square,
            "chi_square_threshold": partition.chi_square_threshold,
            "max_cell_z": partition.max_cell_z,
            "partition_pass": partition.passed,
        })
    config = {"n": args.n, "a": args.a, "x": args.x, "samples": args.samples,
              "seed": args.seed, "format": args.format}
    _emit(args, "simplex", config, [row], [])
    return EXIT_OK


def cmd_fixedpoint(args) -> int:
    if args.max_iter < 0:
        raise ValueError("--max-iter must be non-negative")
    if args.max_iter > MAX_ITER:
        raise ValueError(f"--max-iter must be at most {MAX_ITER}")
    f = parse(args.f)
    trace = newton(f, args.x0, args.tol, args.max_iter)
    rows = [{"k": 0, "iterate": trace.iterates[0], "residual": None}]
    for k, (iterate, residual) in enumerate(zip(trace.iterates[1:], trace.residuals)):
        rows.append({"k": k + 1, "iterate": iterate, "residual": residual})
    invariants = [{
        "name": "fixedpoint.converged", "pass": trace.converged,
        "measured_gap": trace.residuals[-1] if trace.residuals else 0.0,
        "threshold": args.tol,
    }]
    config = {"f": args.f, "x0": args.x0, "tol": args.tol,
              "max_iter": args.max_iter, "format": args.format}
    _emit(args, "fixedpoint", config, rows, invariants)
    return EXIT_OK


def cmd_verify(args) -> int:
    suites = tuple(args.suite) if args.suite else SUITE_NAMES
    vcfg = VerifyConfig(
        quad=_quad_config(args), samples=args.samples, seed=args.seed,
        perturb_basis=args.perturb_basis, suites=suites,
    )
    reports = run_suites(vcfg)
    invariants = [{"name": r.name, "pass": r.passed,
                   "measured_gap": r.measured_gap, "threshold": r.threshold}
                  for r in reports]
    config = {"suites": list(suites), "samples": args.samples,
              "seed": args.seed, "perturb_basis": args.perturb_basis,
              "tol": args.tol, "format": args.format}
    failed = [r for r in reports if not r.passed]
    for r in failed:  # before _emit, which refuses a non-finite gap
        print(r, file=sys.stderr)
    _emit(args, "verify", config, [], invariants)
    return EXIT_INVARIANT_FAILURE if failed else EXIT_OK


_HANDLERS = {
    "expand": cmd_expand,
    "remainder": cmd_remainder,
    "simplex": cmd_simplex,
    "fixedpoint": cmd_fixedpoint,
    "verify": cmd_verify,
}


def _usage_message(message: str, argv: list[str]) -> str:
    """message, plus the '=' form when an --f value starting with a single
    '-' was read as an option; a missing value followed by a flag gets none."""
    if message == "argument --f: expected one argument":
        for flag, value in zip(argv, argv[1:]):
            if flag == "--f" and value.startswith("-") and not value.startswith("--"):
                return f"{message}; write --f={value}"
    return message


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
    except UsageError as err:
        print(f"error: {_usage_message(str(err), argv)}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return _HANDLERS[args.command](args)
    except ParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (DomainError, ArithmeticError, UnsupportedDifferentiationError,
            IterationDomainError, OverflowError, RecursionError) as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())
