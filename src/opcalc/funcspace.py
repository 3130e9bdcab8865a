"""Evaluable real functions over intervals, plus the numerical primitives
that realize the integral operator and the sup-norm bound machinery.

Quadrature is adaptive bisection over a fixed 15-point Gauss-Kronrod panel;
the panel error estimate is the difference between the Kronrod value and
the embedded 7-point Gauss value.  Many integrals bisect together in
lock-step rounds, one integrand evaluation per round.  The n-fold nest
I_a^n (NestSource) is a spectral engine on Gauss-Legendre panels that
bisect the same way, each point on its own panels.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from typing import Callable, Optional, Union

import numpy as np

from .expr import Expr, add, brief, const, evaluate, evaluate_array, mul


class ToleranceNotMetError(ArithmeticError):
    """Quadrature ran out of subdivision depth above the error budget."""

    def __init__(self, requested: float, achieved: float, interval: tuple):
        self.requested = requested
        self.achieved = achieved
        self.interval = interval
        super().__init__(
            f"quadrature error estimate {achieved:.3e} exceeds budget "
            f"{requested:.3e} on {interval} at maximum subdivision depth"
        )


@dataclass(frozen=True)
class Interval:
    """Closed interval [a, b] with a < b, both finite."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("interval endpoints must be finite")
        if not self.a < self.b:
            raise ValueError(f"interval requires a < b, got [{self.a}, {self.b}]")

    def length(self) -> float:
        return self.b - self.a

    def contains(self, x: float) -> bool:
        """a <= x <= b, up to a rounding slack of 1e-9 * (1 + length)."""
        slack = 1e-9 * (1.0 + self.length())
        return self.a - slack <= x <= self.b + slack


def span_interval(a: float, x) -> Interval:
    """The interval between a and x (one or more points), padded to hold all."""
    lo, hi = float(min(a, np.min(x))), float(max(a, np.max(x)))
    pad = 1e-9 * (1.0 + hi - lo)
    return Interval(lo - pad, hi + pad)


# ---------------------------------------------------------------------------
# Panel rules.
#
# The Gauss-Kronrod 15 abscissae/weights below are the standard published
# values (the odd-indexed abscissae are exactly the 7-point Gauss nodes).
# tests/test_funcspace.py re-derives the Gauss subset from numpy's Legendre
# solver and pins the Kronrod half by polynomial degree exactness.
# ---------------------------------------------------------------------------

_GK15_ABSCISSAE_HALF = np.array([
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.000000000000000,
])

_GK15_WEIGHTS_HALF = np.array([
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
])

_G7_WEIGHTS_HALF = np.array([
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
])


def _mirror(half: np.ndarray, negate: bool) -> np.ndarray:
    head = -half[:-1] if negate else half[:-1]
    return np.concatenate([head, half[::-1]])


_GK15_NODES = _mirror(_GK15_ABSCISSAE_HALF, negate=True)       # ascending, 15
_GK15_WEIGHTS = _mirror(_GK15_WEIGHTS_HALF, negate=False)
_G7_EMBEDDED = np.zeros(15)
_G7_EMBEDDED[1::2] = _mirror(_G7_WEIGHTS_HALF, negate=False)   # Gauss nodes sit at odd slots


def _panel_gk15(feval, lo: np.ndarray, hi: np.ndarray):
    hw = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    vals = feval((mid[:, None] + hw[:, None] * _GK15_NODES).ravel()).reshape(-1, 15)
    high = hw * np.vecdot(vals, _GK15_WEIGHTS)
    low = hw * np.vecdot(vals, _G7_EMBEDDED)
    return high, np.abs(high - low)


# A rule maps arrays of panels to (estimates, error estimates), calling feval
# once.  np.vecdot is np.dot per panel, so a panel's bits do not depend on
# its batch (a BLAS matrix-vector product does not promise that).  _bisect
# looks the rule up here on every call, so a wrapper put here sees each one.
PANEL_RULES = {"gk15": _panel_gk15}


@dataclass(frozen=True)
class QuadratureConfig:
    """Error control for the adaptive quadrature."""

    abs_tolerance: float = 1e-10
    rel_tolerance: float = 0.0
    max_subdivision_depth: int = 48

    def __post_init__(self):
        if not 1e-14 <= self.abs_tolerance < math.inf:
            raise ValueError("abs_tolerance must be finite and at least 1e-14")
        if not 0.0 <= self.rel_tolerance < math.inf:
            raise ValueError("rel_tolerance must be finite and non-negative")
        if not 1 <= self.max_subdivision_depth <= 60:
            raise ValueError("max_subdivision_depth must be in 1..60")


DEFAULT_QUAD_CONFIG = QuadratureConfig()


# ---------------------------------------------------------------------------
# RealFunction: an evaluable real->real value with provenance.  Provenance
# matters for the operator layer: an integral-backed function remembers its
# integrand so differentiation can undo it exactly.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExprSource:
    expr: Expr


class OneSource:
    """Marker for the constant function 1."""

    _instance: Optional["OneSource"] = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance


@dataclass(frozen=True)
class IntegralSource:
    base: float
    inner: "RealFunction"
    cfg: QuadratureConfig


@dataclass(frozen=True)
class NestSource:
    """I_base^depth integrand, depth >= 1, computed by the spectral nest."""
    base: float
    integrand: "RealFunction"
    depth: int
    cfg: QuadratureConfig


@dataclass(frozen=True)
class ClosureSource:
    fn: Callable[[np.ndarray], np.ndarray]  # maps an array of points to values


Source = Union[ExprSource, OneSource, IntegralSource, NestSource, ClosureSource]


@dataclass(frozen=True)
class RealFunction:
    """A function value: evaluable on its interval, immutable, pure."""

    source: Source
    domain: Interval
    label: str

    def __call__(self, x: float) -> float:
        s = self.source
        if isinstance(s, ExprSource):
            return evaluate(s.expr, x)
        if isinstance(s, OneSource):
            return 1.0
        if isinstance(s, IntegralSource):
            return integrate(s.inner, s.base, x, s.cfg)
        if isinstance(s, NestSource):
            return float(self.eval_array(np.array([float(x)]))[0])
        return float(s.fn(np.array([float(x)]))[0])

    def eval_array(self, xs: np.ndarray) -> np.ndarray:
        s = self.source
        xs = np.asarray(xs, dtype=float)
        if isinstance(s, ExprSource):
            return evaluate_array(s.expr, xs)
        if isinstance(s, OneSource):
            return np.ones_like(xs)
        if isinstance(s, IntegralSource):
            return integrate_many(s.inner, s.base, xs, s.cfg)
        if isinstance(s, NestSource):
            return nest_values(s, xs)
        return np.asarray(s.fn(xs), dtype=float)

    def is_expr_backed(self) -> bool:
        return isinstance(self.source, (ExprSource, OneSource))

    def as_expr(self) -> Expr:
        s = self.source
        if isinstance(s, ExprSource):
            return s.expr
        if isinstance(s, OneSource):
            return const(1.0)
        raise ValueError(f"function '{self.label}' has no symbolic backing")


def from_expr(e: Expr, domain: Interval, label: str | None = None) -> RealFunction:
    return RealFunction(ExprSource(e), domain, label if label is not None else brief(e))


def constant_one(iv: Interval) -> RealFunction:
    """The constant function 1 on the interval."""
    return RealFunction(OneSource(), iv, "1")


def from_callable(fn: Callable[[np.ndarray], np.ndarray], domain: Interval,
                  label: str) -> RealFunction:
    """A function backed by `fn`, which maps an array of points to values."""
    return RealFunction(ClosureSource(fn), domain, label)


def from_integral(base: float, inner: RealFunction,
                  cfg: QuadratureConfig = DEFAULT_QUAD_CONFIG) -> RealFunction:
    return RealFunction(IntegralSource(float(base), inner, cfg), inner.domain,
                        f"I[{base}]({inner.label})")


def linear_combination(alpha: float, f: RealFunction, beta: float,
                       g: RealFunction) -> RealFunction:
    """alpha*f + beta*g, staying symbolic when both operands are."""
    domain = Interval(max(f.domain.a, g.domain.a), min(f.domain.b, g.domain.b))
    label = f"{alpha}*({f.label})+{beta}*({g.label})"
    if f.is_expr_backed() and g.is_expr_backed():
        combined = add(mul(const(alpha), f.as_expr()), mul(const(beta), g.as_expr()))
        return from_expr(combined, domain, label)
    return from_callable(
        lambda xs: alpha * f.eval_array(xs) + beta * g.eval_array(xs), domain, label)


def absolute(f: RealFunction) -> RealFunction:
    """|f| as an evaluable function (closure-backed)."""
    return from_callable(lambda xs: np.abs(f.eval_array(xs)), f.domain, f"|{f.label}|")


# ---------------------------------------------------------------------------
# integrate: a single application of the integral operator, evaluated at x.
# ---------------------------------------------------------------------------

_SLICE_POINTS = 1024  # integrand points per eval_array call: bounds nested memory


def _check_range(f: RealFunction, lo: float, hi: float) -> None:
    if not (f.domain.contains(lo) and f.domain.contains(hi)):
        raise ValueError(
            f"integration range [{lo}, {hi}] outside domain "
            f"[{f.domain.a}, {f.domain.b}] of '{f.label}'"
        )


def _bisect(f: RealFunction, lo: np.ndarray, hi: np.ndarray,
            cfg: QuadratureConfig) -> np.ndarray:
    """Integrals of f over [lo[i], hi[i]], lo < hi, bisected in lock-step
    rounds of one rule call each.  A panel is accepted within its budget
    (halved per level) or its integral's float floor, else split; accepted
    values are summed pairwise, left before right, as a recursion would."""
    def feval(ts: np.ndarray) -> np.ndarray:
        if len(ts) <= _SLICE_POINTS:
            return f.eval_array(ts)
        return np.concatenate([f.eval_array(ts[i:i + _SLICE_POINTS])
                               for i in range(0, len(ts), _SLICE_POINTS)])

    panel = PANEL_RULES["gk15"]
    value, err = panel(feval, lo, hi)
    if (err <= cfg.abs_tolerance).all():  # within every budget: nothing to split
        return value
    size = np.abs(value)
    budget = np.fmax(cfg.abs_tolerance, cfg.rel_tolerance * size)
    floor = 1e-15 * (1.0 + size)
    rounds = []  # (panel values, indices of the panels split) per round
    depth = cfg.max_subdivision_depth
    while True:
        idx = (~(err <= np.fmax(budget, floor))).nonzero()[0]  # panels to split
        if idx.size:
            # out of depth, or a NaN error no split can bring within budget
            # (splitting it would double the round every round)
            failing = idx if depth <= 0 else idx[np.isnan(err[idx])]
            if failing.size:
                i = failing[0]  # leftmost failing panel of the first integral
                raise ToleranceNotMetError(float(budget[i]), float(err[i]),
                                           (float(lo[i]), float(hi[i])))
            left, right = lo[idx], hi[idx]
            mid = 0.5 * (left + right)
            whole = (left < mid) & (mid < right)  # else at float resolution: keep
            idx, left, mid, right = idx[whole], left[whole], mid[whole], right[whole]
        rounds.append((value, idx))
        if not idx.size:
            break
        lo = np.stack([left, mid], axis=1).ravel()
        hi = np.stack([mid, right], axis=1).ravel()
        budget = np.repeat(0.5 * budget[idx], 2)
        floor = np.repeat(floor[idx], 2)
        value, err = panel(feval, lo, hi)
        depth -= 1
    total = rounds.pop()[0]
    while rounds:
        value, idx = rounds.pop()
        value[idx] = total[0::2] + total[1::2]
        total = value
    return total


def integrate_many(f: RealFunction, a: float, xs,
                   cfg: QuadratureConfig = DEFAULT_QUAD_CONFIG) -> np.ndarray:
    """Estimates of the integral of f from a to each x in xs, as integrate
    gives them one at a time, computed together in lock-step rounds."""
    a = float(a)
    xs = np.asarray(xs, dtype=float)
    out = np.zeros(len(xs))
    live = (xs != a).nonzero()[0]
    if live.size:
        x = xs[live]
        lo, hi = np.minimum(x, a), np.maximum(x, a)
        _check_range(f, float(lo.min()), float(hi.max()))
        total = _bisect(f, lo, hi, cfg)
        out[live] = np.where(x < a, -total, total)
    return out


def integrate(f: RealFunction, a: float, x: float,
              cfg: QuadratureConfig = DEFAULT_QUAD_CONFIG) -> float:
    """Estimate of the integral of f from a to x: integrate_many at one limit.

    Antisymmetric by construction: the oriented interval is integrated and
    the sign flipped when x < a.
    """
    return float(integrate_many(f, a, [x], cfg)[0])


# ---------------------------------------------------------------------------
# The spectral nest: I_a^n g as n literal applications of I_a on a composite
# Gauss-Legendre grid, one indefinite-integration matrix per panel and level
# (Greengard 1991; Trefethen, ATAP ch. 19).  Each point has panels of its
# own, and every array op below works panel by panel or row by row, so a
# point's value does not depend on the batch it came in.
# ---------------------------------------------------------------------------

_NODES = 16            # Gauss-Legendre nodes per panel
_MAX_PANELS = 2 ** 10  # panels per point: past this the nest gives up
_PASS_NODES = 4096     # integrand points per eval_array call: bounds the nest's memory


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


def _nest(vals: np.ndarray, half: np.ndarray, depth: int) -> np.ndarray:
    """I^depth at the far end of each row's panels.  vals[i, j] holds the
    integrand at the nodes of point i's panel j (panels in order from the
    base), half[i, j] that panel's oriented half-width."""
    _, rule, _ = _spectral_rule()
    half = half[:, :, None]
    for _ in range(depth - 1):
        vals = half * np.vecdot(vals[:, :, None, :], rule)  # last column: panel totals
        start = np.zeros(vals.shape[:2])  # the integral from the base to each panel's start
        np.cumsum(vals[:, :-1, -1], axis=1, out=start[:, 1:])
        vals = vals[:, :, :-1] + start[:, :, None]
    return np.cumsum(half[:, :, 0] * np.vecdot(vals, rule[-1]), axis=1)[:, -1]


def nest_values(src: NestSource, xs) -> np.ndarray:
    """I_a^depth g at each x in xs.  Each point's [a, x] starts as one panel,
    and panels split in two in lock-step rounds of one integrand evaluation
    each.  A panel's error share is the sup of the nest's kernel on [a, x]
    times its length times the size of the integrand's top two Legendre
    coefficients there.  A point is done once its shares add up to within
    its budget; until then a panel splits while its share is over both its
    own budget (halved per split, as in _bisect) and the float floor.  The
    n levels then run once over each point's panels, in order from a."""
    g, depth, a, cfg = src.integrand, src.depth, src.base, src.cfg
    xs = np.asarray(xs, dtype=float)
    out = np.zeros(xs.shape)
    live = (xs != a).nonzero()[0]
    if not live.size:
        return out
    x = xs[live]
    _check_range(g, min(a, float(x.min())), max(a, float(x.max())))
    t, _, top = _spectral_rule()
    # (x - s)^(depth-1) / (depth-1)!, the kernel of I_a^depth, is at most this
    reach = np.abs(x - a) ** (depth - 1) / math.factorial(depth - 1)

    def sample(owner, lo, hi):  # a panel's integrand values and error share
        half = 0.5 * (hi - lo)
        nodes = ((0.5 * (lo + hi))[:, None] + half[:, None] * t).ravel()
        vals = np.concatenate([g.eval_array(nodes[i:i + _PASS_NODES])
                               for i in range(0, nodes.size, _PASS_NODES)])
        vals = vals.reshape(-1, _NODES)
        tail = np.abs(np.vecdot(vals[:, None, :], top)).sum(axis=1)
        return vals, reach[owner] * np.abs(2.0 * half) * tail

    owner, lo, hi = np.arange(x.size), np.full(x.size, a), x  # oriented: lo nearer a
    vals, err = sample(owner, lo, hi)
    value = _nest(vals[:, None, :], 0.5 * (hi - lo)[:, None], depth)
    size = np.abs(value)
    allowed = np.fmax(cfg.abs_tolerance, cfg.rel_tolerance * size)  # per point
    if (err <= allowed).all():  # one panel each is enough: value is what the loop gives
        out[live] = value
        return out
    floor = 1e-15 * (1.0 + size)
    budget = allowed  # per panel: halved per split
    spent = np.zeros(x.size)  # error share of each point's accepted panels
    count = np.ones(x.size, dtype=int)  # panels per point
    kept = []  # (owner, lo, hi, vals) of accepted panels
    level = 0
    while True:
        # a point whose panels' shares add up to within its budget is done
        done = spent + np.bincount(owner, weights=err, minlength=x.size) <= allowed
        split = ~((err <= np.fmax(budget, floor[owner])) | done[owner])
        mid = 0.5 * (lo + hi)
        whole = (np.minimum(lo, hi) < mid) & (mid < np.maximum(lo, hi))
        split &= whole | np.isnan(err)  # else at float resolution: keep
        count += np.bincount(owner[split], minlength=x.size)
        # a NaN share no split can mend, or out of depth or of panels
        failing = split & (np.isnan(err) | (level >= cfg.max_subdivision_depth)
                           | (count[owner] > _MAX_PANELS))
        if failing.any():
            i = failing.nonzero()[0][0]
            raise ToleranceNotMetError(float(budget[i]), float(err[i]),
                                       (a, float(x[owner[i]])))
        spent += np.bincount(owner[~split], weights=err[~split], minlength=x.size)
        kept.append((owner[~split], lo[~split], hi[~split], vals[~split]))
        if not split.any():
            break
        owner = np.repeat(owner[split], 2)
        lo = np.stack([lo[split], mid[split]], axis=1).ravel()
        hi = np.stack([mid[split], hi[split]], axis=1).ravel()
        budget = np.repeat(0.5 * budget[split], 2)
        vals, err = sample(owner, lo, hi)
        level += 1
    owner, lo, hi, vals = (np.concatenate(parts) for parts in zip(*kept))
    order = np.lexsort((np.abs(lo - a), owner))  # by point, then from a outwards
    first = np.cumsum(count) - count  # index in `order` of each point's first panel
    half = 0.5 * (hi - lo)
    for m in sorted(set(count.tolist())):  # points with m panels each, nested together
        rows = (count == m).nonzero()[0]
        step = max(1, _PASS_NODES // (_NODES * m))
        for i in range(0, rows.size, step):
            chunk = rows[i:i + step]
            panels = order[first[chunk][:, None] + np.arange(m)]
            out[live[chunk]] = _nest(vals[panels], half[panels], depth)
    return out


# ---------------------------------------------------------------------------
# sup_abs: sampling-based estimate of sup |f| over an interval.
# ---------------------------------------------------------------------------

_SUP_SAMPLES = 1025  # dense pass, endpoints included
_SUP_REFINE_ROUNDS = 9
_SUP_REFINE_POINTS = 33
_SUP_CHUNK = 64  # intervals per lock-step batch: bounds the scan's memory


def _grids(lo: np.ndarray, hi: np.ndarray, num: int) -> np.ndarray:
    """Row i is np.linspace(lo[i], hi[i], num), bit for bit."""
    delta = hi - lo
    step = delta / (num - 1)
    k = np.arange(num, dtype=float)
    # a step that underflows to 0 takes linspace's other path
    grid = np.where((step == 0)[:, None], k / (num - 1) * delta[:, None], k * step[:, None])
    grid += lo[:, None]
    grid[:, -1] = hi
    return grid


def sup_abs_many(f: RealFunction, lo, hi) -> np.ndarray:
    """Estimates of sup |f| over [lo[i], hi[i]], never below the largest
    sampled |f|: a dense scan, then up to _SUP_REFINE_ROUNDS finer grids about
    the last maximum until its bracket is at float resolution.  Intervals run
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


def sup_abs(f: RealFunction, iv: Interval) -> float:
    """Estimate of sup over iv of |f|: sup_abs_many on the one interval."""
    return float(sup_abs_many(f, [iv.a], [iv.b])[0])
