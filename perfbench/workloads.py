"""The four workloads: their inputs, made from the workload seed, and the
check that goes with each operation.

Every operation is either one `opcalc` command line, run in-process through
`opcalc.cli.main`, or one call of `iterated_integral_one`, which the command
line does not expose.  A round runs a workload's operations once, in order;
the seed fixes the inputs, so every round of a run does the same work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import checks

WORKLOADS = ("verify", "symbolic", "remainder", "simplex")

# (expression, order): the highest orders that finish in about half a second
# today; derivative trees grow 6-8x per order, so one more order costs 8x.
EXPANSIONS = (
    ("ln(1+x)", 8), ("cos(x)/(2+x)", 6), ("x/(x^2+1)", 6), ("exp(-x^2)", 8),
    ("x^2*ln(2+x)", 7), ("sin(cos(x))", 6), ("exp(sin(x))", 6),
    ("sin(x)*exp(x)", 8), ("cos(x)^2", 8), ("x*sin(x)+cos(x)", 8),
    ("(x+2)^0.5", 8), ("(1+x)^(-1)", 10), ("exp(x)", 12), ("sin(x)", 12),
    ("cos(x)", 12), ("x^5", 12),
)

# opcalc's default pool: expression and the probe window about base 0.
POOL = (
    ("exp(x)", -1.0, 1.0), ("sin(x)", -1.0, 1.0), ("cos(x)", -1.0, 1.0),
    ("x^5", -1.0, 1.0), ("(1+x)^(-1)", 0.0, 0.75), ("ln(1+x)", 0.0, 0.75),
)
REMAINDER_ORDERS = range(6)
REMAINDER_POINTS = 5
BASIS_DEPTHS = range(1, 6)

SIMPLEX_DIMENSIONS = range(2, 9)
PARTITION_MAX_DIMENSION = 6       # the CLI runs the partition check up to here
# The Monte Carlo seed is the CLI default: the partition check's chi-square
# test has a 1e-3 false-alarm rate per dimension, so a seed-derived stream
# would fail now and then.  The workload seed moves the cell instead.
SIMPLEX_MC_SEED = 2024


def simplex_samples(n: int) -> int:
    # n = 7, 8 have cells of 1/5040 and 1/40320 of the cube: enough samples
    # that the hit count, and so the standard error, is never near zero.
    return 200_000 if n <= PARTITION_MAX_DIMENSION else 2_000_000


@dataclass
class Op:
    """One operation: `cli` argv, or `basis` (n, a, x)."""

    kind: str
    args: tuple
    ok_codes: tuple[int, ...] = (0,)
    meta: dict = field(default_factory=dict)

    def label(self) -> str:
        return " ".join(map(str, self.args))


def _cli(*argv, ok_codes=(0,), **meta) -> Op:
    return Op("cli", tuple(str(a) for a in argv), ok_codes, meta)


def _symbolic(rng: random.Random) -> list[Op]:
    ops = []
    bases = (rng.randint(-16, 0) / 64, rng.randint(8, 24) / 64)
    for a in bases:
        for text, order in EXPANSIONS:
            points = tuple(a + rng.uniform(-0.4, 0.4) for _ in range(3))
            ops.append(_cli("expand", "--f", text, "--a", repr(a), "--n", order,
                            "--points=" + ",".join(map(repr, points)),
                            check="expand", f=text, a=a, order=order,
                            points=points))
        solves = (
            (f"x^3+x-{rng.uniform(1.5, 4.0)!r}", rng.uniform(0.5, 2.0)),
            (f"exp(x)-{rng.uniform(2.0, 6.0)!r}", rng.uniform(0.5, 2.5)),
            ("x-cos(x)", rng.uniform(0.0, 1.5)),
            (f"x^2-{rng.uniform(2.0, 8.0)!r}", rng.uniform(1.0, 3.0)),
            (f"x^5+x-{rng.uniform(2.0, 10.0)!r}", rng.uniform(0.5, 1.5)),
        )
        for text, x0 in solves:
            ops.append(_cli("fixedpoint", "--f", text, "--x0", repr(x0),
                            check="newton", f=text, x0=x0))
    return ops


def _remainder(rng: random.Random) -> list[Op]:
    ops = []
    for text, lo, hi in POOL:
        width = hi - lo
        lo += rng.uniform(0.0, 0.1) * width
        hi -= rng.uniform(0.0, 0.1) * width
        points = tuple(lo + (hi - lo) * k / (REMAINDER_POINTS - 1)
                       for k in range(REMAINDER_POINTS))
        for order in REMAINDER_ORDERS:
            ops.append(_cli("remainder", "--f", text, "--a", "0.0", "--n", order,
                            "--range", repr(lo), repr(hi), REMAINDER_POINTS,
                            check="remainder", f=text, order=order,
                            points=points))
    a = rng.uniform(-1.0, 1.0)
    x = a + rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5)
    for n in BASIS_DEPTHS:
        ops.append(Op("basis", (n, a, x), meta={"check": "basis"}))
    return ops


def _simplex(rng: random.Random) -> list[Op]:
    # a and x on a 1/8 grid keep x-a and (x-a)^n exact in binary.
    a = rng.randint(-8, 8) / 8
    x = a + rng.randint(4, 12) / 8
    return [_cli("simplex", "--n", n, "--a", repr(a), "--x", repr(x),
                 "--samples", simplex_samples(n), "--seed", SIMPLEX_MC_SEED,
                 check="simplex", n=n, a=a, x=x)
            for n in SIMPLEX_DIMENSIONS]


def _verify(rng: random.Random) -> list[Op]:
    # The full pass and the fault-injected pass use the CLI default seed, as
    # users run the gate.  A third pass runs, at a seed derived from the
    # workload seed, the suites whose checks hold at every seed and whose
    # cost does not depend on it.  Left out of it: simplex (its chi-square
    # test fails at 1e-3 of seeds by design), expr (its finite-difference
    # check fails at about 1% of seeds; see CHANGES.md) and operators (its
    # random operator chains nest quadrature, so its cost follows the seed).
    seed = rng.randrange(1, 1 << 31)
    every = tuple(dict.fromkeys(n.split(".")[0] for n in checks.VERIFY_INVARIANTS))
    seeded = ("funcspace", "fixedpoint")
    return [
        _cli("verify", ok_codes=(0, 1), check="verify", suites=every, flagged=()),
        _cli("verify", "--seed", seed, *(a for s in seeded for a in ("--suite", s)),
             ok_codes=(0, 1), check="verify", suites=seeded, flagged=()),
        _cli("verify", "--suite", "operators", "--perturb-basis", "1e-3",
             ok_codes=(0, 1), check="verify", suites=("operators",),
             flagged=("operators.basis_closed_form",)),
    ]


_BUILDERS = {"verify": _verify, "symbolic": _symbolic,
             "remainder": _remainder, "simplex": _simplex}


def build(workload: str, seed: int) -> list[Op]:
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))


def check(op: Op, output) -> list[str]:
    """Problems with one operation's output (an empty list if none).

    `output` is (exit code, stdout, stderr) for `cli` operations and the
    returned value for `basis` ones.  References are computed here, apart
    from opcalc, with mpmath and exact rationals.
    """
    import json

    import oracles

    m = op.meta
    kind = m["check"]
    if kind == "basis":
        n, a, x = op.args
        return checks.check_basis(n, output, oracles.simplex_volume(n, a, x))
    rc, stdout, stderr = output
    doc = json.loads(stdout)
    if kind == "expand":
        derivs = oracles.derivatives(m["f"], m["a"], m["order"])
        poly = {x: oracles.polynomial(derivs, m["a"], x) for x in m["points"]}
        return checks.check_expand(doc, derivs, poly)
    if kind == "newton":
        return checks.check_newton(doc, oracles.root(m["f"], m["x0"]))
    if kind == "remainder":
        derivs = oracles.derivatives(m["f"], 0.0, m["order"])
        refs = {x: oracles.remainder(m["f"], derivs, 0.0, x) for x in m["points"]}
        return checks.check_remainder(doc, m["order"], refs)
    if kind == "simplex":
        return checks.check_simplex(
            doc, oracles.simplex_volume(m["n"], m["a"], m["x"]),
            partitioned=m["n"] <= PARTITION_MAX_DIMENSION)
    if kind == "verify":
        return checks.check_verify(doc, rc, stderr, m["suites"], m["flagged"])
    raise ValueError(f"unknown check {kind!r}")
