"""Evaluable real functions, plus the numerical primitives that realize
the integral operator and the sup-norm bound machinery.

One adaptive quadrature engine realizes I_a^n for every n >= 1; a single
I_a (integrate, integrate_many) is its depth-1 case.  Each point's range is
bisected, on panels of its own, into composite 16-point Gauss-Legendre
panels until a Legendre-tail error estimate is within budget, many points
in lock-step rounds of one integrand evaluation each; then each of the n
levels applies one indefinite-integration matrix per panel.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from typing import Callable, Union

import numpy as np

from .expr import DomainError, Expr, add, brief, const, evaluate, evaluate_array, mul


class ToleranceNotMetError(ArithmeticError):
    """Quadrature stopped above one point's error budget `requested`: its
    panels' error shares sum to `achieved` on its range `interval`, and
    `limit` names what stopped it, the panel cap or a NaN estimate."""

    def __init__(self, requested: float, achieved: float, interval: tuple, limit: str):
        self.requested = requested
        self.achieved = achieved
        self.interval = interval
        self.limit = limit
        super().__init__(
            f"quadrature error estimate {achieved:.3e} exceeds budget "
            f"{requested:.3e} on {interval} {limit}"
        )


@dataclass(frozen=True)
class QuadratureConfig:
    """Error control for the adaptive quadrature."""

    abs_tolerance: float = 1e-10
    rel_tolerance: float = 0.0

    def __post_init__(self):
        if not 1e-14 <= self.abs_tolerance < math.inf:
            raise ValueError("abs_tolerance must be finite and at least 1e-14")
        if not 0.0 <= self.rel_tolerance < math.inf:
            raise ValueError("rel_tolerance must be finite and non-negative")


DEFAULT_QUAD_CONFIG = QuadratureConfig()


# ---------------------------------------------------------------------------
# RealFunction: an evaluable real->real value with provenance.  Provenance
# matters for the operator layer: an integral-backed function remembers its
# integrand so differentiation can undo it exactly.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NestSource:
    """I_base^depth integrand, depth >= 1, computed by the quadrature engine."""
    base: float
    integrand: "RealFunction"
    depth: int
    cfg: QuadratureConfig


@dataclass(frozen=True)
class RealFunction:
    """A function value: evaluable, immutable, pure.  Its source is an Expr,
    a NestSource or a callable that maps an array of points to values.
    Where it is defined is for its evaluator to say, by DomainError."""

    source: Union[Expr, NestSource, Callable[[np.ndarray], np.ndarray]]
    label: str

    def __call__(self, x: float) -> float:
        if isinstance(self.source, Expr):
            return evaluate(self.source, x)
        return float(self.eval_array(np.array([float(x)]))[0])

    def eval_array(self, xs: np.ndarray) -> np.ndarray:
        s = self.source
        xs = np.asarray(xs, dtype=float)
        if isinstance(s, Expr):
            return evaluate_array(s, xs)
        if isinstance(s, NestSource):
            return _nest_many(s.integrand, s.depth, s.base, xs, s.cfg)
        return np.asarray(s(xs), dtype=float)


def from_expr(e: Expr, label: str | None = None) -> RealFunction:
    return RealFunction(e, label if label is not None else brief(e))


def constant_one() -> RealFunction:
    """The constant function 1."""
    return from_expr(const(1.0), "1")


def from_callable(fn: Callable[[np.ndarray], np.ndarray], label: str) -> RealFunction:
    """A function backed by `fn`, which maps an array of points to values."""
    return RealFunction(fn, label)


def linear_combination(alpha: float, f: RealFunction, beta: float,
                       g: RealFunction) -> RealFunction:
    """alpha*f + beta*g, staying symbolic when both operands are."""
    label = f"{alpha}*({f.label})+{beta}*({g.label})"
    if isinstance(f.source, Expr) and isinstance(g.source, Expr):
        combined = add(mul(const(alpha), f.source), mul(const(beta), g.source))
        return from_expr(combined, label)
    return from_callable(lambda xs: alpha * f.eval_array(xs) + beta * g.eval_array(xs), label)


def absolute(f: RealFunction) -> RealFunction:
    """|f| as an evaluable function (closure-backed)."""
    return from_callable(lambda xs: np.abs(f.eval_array(xs)), f"|{f.label}|")


# ---------------------------------------------------------------------------
# The quadrature engine: I_a^n g, n >= 1, as n literal applications of I_a
# on a composite Gauss-Legendre grid, one indefinite-integration matrix per
# panel and level (Greengard 1991; Trefethen, ATAP ch. 19).  A single I_a,
# integrate_many, is its depth-1 case.  Each point has panels of its own,
# and every array op below works panel by panel or row by row, so a point's
# value does not depend on the batch it came in.
# ---------------------------------------------------------------------------

_NODES = 16            # Gauss-Legendre nodes per panel
_MAX_PANELS = 2 ** 10  # panels per point: past this the engine gives up
_PASS_NODES = 4096     # integrand points per eval_array call: bounds memory at every depth


def _legendre(t: Decimal, top: int) -> list[Decimal]:
    """P_0(t), ..., P_top(t) by the three-term recurrence."""
    rows = [Decimal(1), t]
    for k in range(2, top + 1):
        rows.append(((2 * k - 1) * t * rows[-1] - (k - 1) * rows[-2]) / k)
    return rows


@functools.cache
def _spectral_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes t (ascending) of the Gauss-Legendre rule on [-1, 1]; the matrix
    whose row i < len(t) integrates the interpolant through the nodes from
    -1 to t[i], and whose last row is the weights, the integral to 1; and
    the two rows that give the interpolant's top two Legendre coefficients.
    Built in 40-digit decimals, so each entry is the float nearest its
    value: a build in floats is off by about 1e-16 per entry, which a
    12-level nest on one panel compounded to 1e-13 relative."""
    p = _NODES
    with localcontext() as ctx:
        ctx.prec = 40
        t = []
        for i in range(p, 0, -1):
            z = Decimal(math.cos(math.pi * (i - 0.25) / (p + 0.5)))
            for _ in range(100):  # Newton's method on P_p; converges in a few steps
                rows = _legendre(z, p)
                step = rows[p] * (z * z - 1) / (p * (z * rows[p] - rows[p - 1]))
                z -= step
                if abs(step) < Decimal("1e-36"):
                    break
            t.append(z)
        rows = [_legendre(z, p) for z in t]  # rows[i][k] = P_k(t_i)
        # 2 / ((1 - t^2) P_p'(t)^2), with P_p'(t) = p (t P_p - P_{p-1}) / (t^2 - 1)
        w = [2 * (1 - z * z) / (p * (z * r[p] - r[p - 1])) ** 2 for z, r in zip(t, rows)]
        # coefficient k of the interpolant through values v is sum_j coeffs[k][j] v_j
        coeffs = [[(2 * k + 1) * w[j] * rows[j][k] / 2 for j in range(p)] for k in range(p)]
        # integral of P_k from -1 to t: t + 1 for k = 0, else (P_{k+1} - P_{k-1})/(2k+1)
        antideriv = [[z + 1] + [(r[k + 1] - r[k - 1]) / (2 * k + 1) for k in range(1, p)]
                     for z, r in zip(t, rows)]
        s = [[sum(antideriv[i][k] * coeffs[k][j] for k in range(p)) for j in range(p)]
             for i in range(p)]
        return (np.array([float(z) for z in t]), np.array(s + [w], dtype=float),
                np.array(coeffs[-2:], dtype=float))


def _panel_gl16(feval, lo: np.ndarray, hi: np.ndarray):
    t, _, top = _spectral_rule()
    half = 0.5 * (hi - lo)
    vals = feval(((0.5 * (lo + hi))[:, None] + half[:, None] * t).ravel()).reshape(-1, _NODES)
    return vals, np.abs(np.vecdot(vals[:, None, :], top)).sum(axis=1)


# A rule maps arrays of panels [lo[i], hi[i]] (either orientation) to the
# integrand's values at each panel's nodes and the size of the top two
# Legendre coefficients of its interpolant there, calling feval once.
# np.vecdot is np.dot per panel, so a panel's bits do not depend on its batch
# (a BLAS matrix-vector product does not promise that).  The engine looks
# the rule up here every round, so a wrapper put here sees each round.
PANEL_RULES = {"gl16": _panel_gl16}


def _nest(vals: np.ndarray, half: np.ndarray, depth: int) -> np.ndarray:
    """I^depth at the far end of each row's panels.  vals[i, j] holds the
    integrand at the nodes of point i's panel j (panels in order from the
    base), half[i, j] that panel's oriented half-width."""
    _, rule, _ = _spectral_rule()
    half = half[:, :, None]
    for _ in range(depth - 1):
        vals = half * np.vecdot(vals[:, :, None, :], rule)  # last column: panel totals
        start = np.zeros(vals.shape[:2])  # the integral from the base to each panel's start
        vals[:, :-1, -1].cumsum(axis=1, out=start[:, 1:])
        vals = vals[:, :, :-1] + start[:, :, None]
    return (half[:, :, 0] * np.vecdot(vals, rule[-1])).cumsum(axis=1)[:, -1]


def _adapt(feval, depth: int, start: np.ndarray, end: np.ndarray,
           cfg: QuadratureConfig) -> np.ndarray:
    """I^depth of an integrand from start[i] to end[i], for each point i;
    feval(ts, owner) is the integrand at nodes ts, node k serving point
    owner[k].  Each point's range starts as one panel, and panels split in
    two in lock-step rounds of one rule call each.  A panel's error share
    is the sup of the nest's kernel on the range times the panel's length
    times its Legendre tail.  A point is done once its shares add up to
    within its budget; until then a panel splits while its share is over
    both its own budget (halved per split) and the float floor; a point whose
    floor overflows before its budget is met is inf.  The depth levels then
    run once over each point's panels, in order from start."""
    _, rule, _ = _spectral_rule()
    # (x - s)^(depth-1) / (depth-1)!, the kernel of I^depth, is at most this
    reach = np.abs(end - start) ** (depth - 1) / math.factorial(depth - 1)

    def sample(owner, lo, hi):  # panels' integrand values and error shares
        who = owner.repeat(_NODES)  # the point each node serves

        def passes(ts):  # at most _PASS_NODES nodes per integrand call
            return np.concatenate([feval(ts[i:i + _PASS_NODES], who[i:i + _PASS_NODES])
                                   for i in range(0, ts.size, _PASS_NODES)])

        vals, tail = PANEL_RULES["gl16"](passes, lo, hi)
        # a zero tail is a zero share, also where reach * |hi - lo| overflows
        return vals, np.where(tail == 0, 0.0, reach[owner] * np.abs(hi - lo) * tail)

    n = start.size
    owner, lo, hi = np.arange(n), start, end
    vals, err = sample(owner, lo, hi)
    value = _nest(vals[:, None, :], 0.5 * (hi - lo)[:, None], depth)
    if (err <= cfg.abs_tolerance).all():  # within every budget: one panel each is enough
        return value
    size = np.abs(value)
    allowed = np.fmax(cfg.abs_tolerance, cfg.rel_tolerance * size)  # per point
    # the panel arrays hold each point's panels in order from start; a split
    # panel is replaced in place by its two halves
    live = np.ones(n, dtype=bool)  # panels not yet accepted
    level = 0
    while True:
        # a point whose panels' shares add up to within its budget is done;
        # until then a live panel splits while its share is over both its
        # budget, halved per split, and the float floor, unless it is at
        # float resolution (a NaN share splits, and fails); the rest are
        # accepted.  The floor scales with the larger of the one-panel value
        # and the sum of |panel integral| times the kernel's sup: one panel
        # can underestimate a peaked integral by far
        mass = np.abs(0.5 * (hi - lo) * np.vecdot(vals, rule[-1])) * reach[owner]
        floor = 1e-15 * (1.0 + np.fmax(size, np.bincount(owner, weights=mass, minlength=n)))
        limit = np.fmax(allowed * 0.5 ** level, floor)
        total = np.bincount(owner, weights=err, minlength=n)  # per point
        limit[total <= allowed] = np.inf
        mid = 0.5 * (lo + hi)
        nan = np.isnan(err)
        split = live & ~(err <= limit[owner]) & (((mid != lo) & (mid != hi)) | nan)
        if not split.any():
            break
        pick = np.arange(owner.size).repeat(split + 1)  # a split panel twice, in place
        count = np.bincount(owner[pick], minlength=n)  # panels per point
        # a NaN share no split can mend, or out of panels
        failing = split & (nan | (count[owner] > _MAX_PANELS))
        if failing.any():
            i = failing.nonzero()[0][0]
            reason = ("because the estimate is NaN" if nan[i]
                      else f"at the cap of {_MAX_PANELS} panels for one point")
            p = owner[i]
            raise ToleranceNotMetError(float(allowed[p]), float(total[p]),
                                       (float(start[p]), float(end[p])), reason)
        live = split[pick]  # the halves
        owner, lo, hi, vals, err = owner[pick], lo[pick], hi[pick], vals[pick], err[pick]
        halves = live.nonzero()[0]
        lo[halves[1::2]] = hi[halves[0::2]] = mid[split]
        vals[halves], err[halves] = sample(owner[halves], lo[halves], hi[halves])
        level += 1
    count = np.bincount(owner, minlength=n)  # panels per point
    first = count.cumsum() - count  # index of each point's first panel
    half = 0.5 * (hi - lo)
    value = np.empty(n)
    for m in sorted(set(count.tolist())):  # points with m panels each, nested together
        rows = (count == m).nonzero()[0]
        step = max(1, _PASS_NODES // (_NODES * m))
        for i in range(0, rows.size, step):
            chunk = rows[i:i + step]
            panels = first[chunk][:, None] + np.arange(m)
            value[chunk] = _nest(vals[panels], half[panels], depth)
    value[~(total <= allowed) & ~np.isfinite(floor)] = np.inf
    return value


def _nest_many(g: RealFunction, depth: int, a: float, xs,
               cfg: QuadratureConfig = DEFAULT_QUAD_CONFIG, kernel=None) -> np.ndarray:
    """I_a^depth of g, or of kernel(x, t) * g(t) if a kernel is given, at
    each x in xs, depth >= 1.  At depth 1 the panels tile [min(a, x),
    max(a, x)] upwards and the sign is flipped where x < a, so a single
    integral is exactly antisymmetric; deeper nests run from a.  Where g is
    defined is for g's evaluator to say; the limits and x - a must be finite."""
    a = float(a)
    xs = np.asarray(xs, dtype=float)
    if not math.isfinite(a):
        raise ValueError(f"integration limit a={a!r} is not finite")
    with np.errstate(over="ignore"):
        width = xs - a
    if not np.isfinite(width).all():  # x is not finite, or x - a overflows
        bad = ~np.isfinite(xs)
        if bad.any():
            raise ValueError(f"integration limit x={float(xs[bad][0])!r} is not finite")
        x = float(xs[~np.isfinite(width)][0])
        raise ValueError(f"integration range a={a!r} to x={x!r} is wider than the largest float")
    out = np.zeros(xs.shape)
    live = (xs != a).nonzero()[0]
    if not live.size:
        return out
    x = xs[live]

    def feval(ts: np.ndarray, owner: np.ndarray) -> np.ndarray:
        if kernel is None:
            return g.eval_array(ts)
        with np.errstate(all="ignore"):
            vals = kernel(x[owner], ts) * g.eval_array(ts)
        bad = ~np.isfinite(vals)
        if bad.any():  # as evaluate_array refuses, naming the limit too
            k = bad.nonzero()[0][0]
            raise DomainError(g.label, float(ts[k]), "non-finite result in the integral "
                              f"to x={float(x[owner[k]])!r}")
        return vals

    with np.errstate(all="ignore"):  # an overflow shows as inf, which callers refuse
        if depth > 1:
            out[live] = _adapt(feval, depth, np.full(x.size, a), x, cfg)
        else:
            value = _adapt(feval, 1, np.minimum(x, a), np.maximum(x, a), cfg)
            out[live] = np.where(x < a, -value, value)
    return out


def integrate_many(f: RealFunction, a: float, xs,
                   cfg: QuadratureConfig = DEFAULT_QUAD_CONFIG,
                   kernel=None) -> np.ndarray:
    """Estimates of the integral of f from a to each x in xs, or, given a
    weight kernel(x, t) that maps arrays of points and nodes to values, of
    kernel(x, t) * f(t): the engine at depth 1, all points in lock-step
    rounds."""
    return _nest_many(f, 1, a, xs, cfg, kernel)


def integrate(f: RealFunction, a: float, x: float,
              cfg: QuadratureConfig = DEFAULT_QUAD_CONFIG) -> float:
    """Estimate of the integral of f from a to x: integrate_many at one
    limit.  integrate(f, a, x) == -integrate(f, x, a) exactly."""
    return float(integrate_many(f, a, [x], cfg)[0])


# ---------------------------------------------------------------------------
# sup_abs: sampling-based estimate of sup |f| over an interval.
# ---------------------------------------------------------------------------

_SUP_SAMPLES = 1025  # dense pass, endpoints included
_SUP_REFINE_ROUNDS = 9
_SUP_REFINE_POINTS = 33
_SUP_CHUNK = 64  # intervals per lock-step batch: bounds the scan's memory


def _grids(lo: np.ndarray, hi: np.ndarray, num: int) -> np.ndarray:
    """Row i is np.linspace(lo[i], hi[i], num), bit for bit; where hi - lo
    overflows, its nan and inf nodes are left for the evaluator to refuse."""
    k = np.arange(num, dtype=float)
    with np.errstate(all="ignore"):
        delta = hi - lo
        step = delta / (num - 1)
        # a step that underflows to 0 takes linspace's other path
        grid = np.where((step == 0)[:, None], k / (num - 1) * delta[:, None], k * step[:, None])
        grid += lo[:, None]
    grid[:, -1] = hi
    return grid


def sup_abs_many(f: RealFunction, lo, hi) -> np.ndarray:
    """Estimates of sup |f| over [lo[i], hi[i]], never below the largest
    sampled |f|: a dense scan, then up to _SUP_REFINE_ROUNDS finer grids about
    the last maximum until its bracket is at float resolution.  Ranges run
    in lock step, _SUP_CHUNK at a time, one eval_array call per round."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    if not (np.isfinite(lo) & np.isfinite(hi) & (lo < hi)).all():
        raise ValueError("sup_abs_many requires finite lo < hi")
    best = np.empty(len(lo))
    for i in range(0, len(lo), _SUP_CHUNK):
        best[i:i + _SUP_CHUNK] = _sup_chunk(f, lo[i:i + _SUP_CHUNK], hi[i:i + _SUP_CHUNK])
    return best


def _sup_chunk(f: RealFunction, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    live = np.arange(len(lo))  # intervals still refining
    sizes = [_SUP_SAMPLES] + [_SUP_REFINE_POINTS] * _SUP_REFINE_ROUNDS
    for round_, num in enumerate(sizes):
        grid = _grids(lo, hi, num)
        vals = np.abs(f.eval_array(grid.ravel())).reshape(grid.shape)
        rows = np.arange(len(live))
        k = vals.argmax(axis=1)  # the first maximum, as in one-row argmax
        top = vals[rows, k]
        lo = grid[rows, np.maximum(k - 1, 0)]
        hi = grid[rows, np.minimum(k + 1, num - 1)]
        if not round_:
            best = top
            continue
        # best = max(best, top): keep best unless top > best, as Python's max does
        best[live] = np.where(top > best[live], top, best[live])
        more = ~(hi - lo <= 1e-14 * (1.0 + np.abs(hi)))  # not yet at float resolution
        live, lo, hi = live[more], lo[more], hi[more]
        if not live.size:
            break
    return best


def sup_abs(f: RealFunction, lo: float, hi: float) -> float:
    """Estimate of sup over [lo, hi] of |f|: sup_abs_many on the one interval."""
    return float(sup_abs_many(f, [lo], [hi])[0])
