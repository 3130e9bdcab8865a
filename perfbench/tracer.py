"""Per-layer counters and timers for a traced run.

The tracer wraps public functions of opcalc's modules from outside the
package: each wrapper replaces the function at every place the package
binds it (module globals and module-level dicts such as PANEL_RULES), so
calls made through `from .expr import evaluate` are seen too.  A recursive
function is counted and timed at its outermost call only; panels and the
integrand points they evaluate are counted at every nesting level.

Time the tracer spends measuring expression trees is subtracted from every
timer that was running, so layer times stay close to untraced ones.
"""

from __future__ import annotations

import functools
import gc
import sys
import time
from collections import defaultdict

# (name, unit, better) for every per-layer metric, in report order.
PER_LAYER = (
    ("cli.main_calls", "count", "lower"),
    ("cli.emit_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    *((f"verify.suite_{s}_s", "s", "lower")
      for s in ("expr", "funcspace", "operators", "taylor", "simplex", "fixedpoint")),
    ("taylor.expand_s", "s", "lower"),
    ("taylor.ftoc_step_calls", "count", "lower"),
    *((f"taylor.route_{r}_s", "s", "lower")
      for r in ("direct", "exact", "nested", "bound")),
    ("taylor.verify_exchange_s", "s", "lower"),
    ("operators.apply_calls", "count", "lower"),
    ("operators.apply_s", "s", "lower"),
    *((f"operators.basis_d{n}_s", "s", "lower") for n in range(1, 6)),
    *((f"operators.basis_d{n}_panels", "count", "lower") for n in range(1, 6)),
    ("operators.monotone_bound_s", "s", "lower"),
    ("funcspace.integrate_calls", "count", "lower"),
    ("funcspace.integrate_s", "s", "lower"),
    ("funcspace.panels", "count", "lower"),
    ("funcspace.integrand_points", "count", "lower"),
    ("funcspace.sup_abs_calls", "count", "lower"),
    ("funcspace.sup_abs_s", "s", "lower"),
    ("expr.differentiate_calls", "count", "lower"),
    ("expr.differentiate_s", "s", "lower"),
    ("expr.simplify_s", "s", "lower"),
    ("expr.tree_nodes", "count", "lower"),
    ("expr.distinct_nodes", "count", "lower"),
    ("expr.distinct_share", "ratio", "higher"),
    ("expr.evaluate_calls", "count", "lower"),
    ("expr.evaluate_s", "s", "lower"),
    ("expr.evaluate_array_calls", "count", "lower"),
    ("expr.evaluate_array_points", "count", "lower"),
    ("expr.evaluate_array_s", "s", "lower"),
    ("simplex.route_sliced_s", "s", "lower"),
    ("simplex.mc_s", "s", "lower"),
    ("simplex.mc_samples_per_s", "1/s", "higher"),
    ("simplex.partition_s", "s", "lower"),
    ("simplex.partition_samples_per_s", "1/s", "higher"),
    ("simplex.discarded_duplicates", "count", "lower"),
    ("rng.block_calls", "count", "lower"),
    ("rng.uniforms", "count", "lower"),
    ("rng.block_s", "s", "lower"),
    ("fixedpoint.newton_calls", "count", "lower"),
    ("fixedpoint.newton_iterations", "count", "lower"),
    ("fixedpoint.newton_s", "s", "lower"),
    ("runtime.import_s", "s", "lower"),
    ("runtime.gc_s", "s", "lower"),
    ("runtime.gc_collections", "count", "lower"),
    ("process.cpu_s", "s", "lower"),
)

# Counters that must repeat exactly from round to round and run to run.
DETERMINISTIC = tuple(name for name, unit, _ in PER_LAYER
                      if unit in ("count", "bytes")
                      and name != "runtime.gc_collections")


def tree_stats(root) -> tuple[int, int]:
    """(size of the expression as a tree, number of structurally distinct
    subtrees).  Constants are keyed on their exact bits, so -0.0 and 0.0
    stay distinct."""
    size: dict[int, int] = {}
    canon: dict[int, int] = {}
    keys: dict[tuple, int] = {}
    stack = [(root, False)]
    while stack:
        node, ready = stack.pop()
        ident = id(node)
        if ident in size:
            continue
        if not ready:
            stack.append((node, True))
            stack.extend((c, False) for c in node.children if id(c) not in size)
            continue
        kids = node.children
        size[ident] = 1 + sum(size[id(c)] for c in kids)
        value = None if node.value is None else float(node.value).hex()
        key = (node.kind, value, tuple(canon[id(c)] for c in kids))
        canon[ident] = keys.setdefault(key, len(keys))
    return size[id(root)], len(keys)


class Tracer:
    def __init__(self, import_s: float):
        self.import_s = import_s
        self.values: defaultdict[str, float] = defaultdict(float)
        self.overhead = 0.0     # seconds of tracer work inside running timers
        self.scope = ""         # "operators.basis_d<n>" while a basis call runs
        self._gc_started = 0.0
        self._cpu_started = 0.0

    # -- wrappers -----------------------------------------------------------

    def outermost(self, fn, seconds="", calls="", before=None, after=None):
        """Wrap fn; only calls not nested in another call of fn are counted
        and timed.  `before(args)` and `after(args, result, elapsed)` run
        outside the timer."""
        depth = 0
        values = self.values

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nonlocal depth
            if depth:
                return fn(*args, **kwargs)
            depth = 1
            if before is not None:
                before(args)
            overhead = self.overhead
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                depth = 0
            elapsed = time.perf_counter() - started - (self.overhead - overhead)
            if seconds:
                values[seconds] += elapsed
            if calls:
                values[calls] += 1
            if after is not None:
                after(args, result, elapsed)
            return result

        return wrapper

    def panel(self, rule):
        values = self.values

        @functools.wraps(rule)
        def wrapper(feval, lo, hi):
            values["funcspace.panels"] += 1
            if self.scope:
                values[self.scope + "_panels"] += 1

            def counted(xs):
                values["funcspace.integrand_points"] += len(xs)
                return feval(xs)

            return rule(counted, lo, hi)

        return wrapper

    # -- hooks --------------------------------------------------------------

    def _after_simplify(self, args, result, elapsed):
        started = time.perf_counter()
        tree, distinct = tree_stats(result)
        self.values["expr.tree_nodes"] += tree
        self.values["expr.distinct_nodes"] += distinct
        self.overhead += time.perf_counter() - started

    def _before_basis(self, args):
        self.scope = f"operators.basis_d{args[0]}"

    def _after_basis(self, args, result, elapsed):
        self.values[self.scope + "_s"] += elapsed
        self.scope = ""

    def _after_mc(self, args, result, elapsed):
        self.values["simplex.mc_samples"] += args[1].samples

    def _after_partition(self, args, result, elapsed):
        self.values["simplex.partition_samples"] += args[1].samples
        self.values["simplex.discarded_duplicates"] += result.discarded_duplicates

    def _after_block(self, args, result, elapsed):
        self.values["rng.uniforms"] += args[2]

    def _after_newton(self, args, result, elapsed):
        self.values["fixedpoint.newton_iterations"] += result.iterations_used

    def _after_evaluate_array(self, args, result, elapsed):
        self.values["expr.evaluate_array_points"] += len(result)

    def _gc(self, phase, info):
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.values["runtime.gc_s"] += time.perf_counter() - self._gc_started
            self.values["runtime.gc_collections"] += 1

    # -- installation -------------------------------------------------------

    @staticmethod
    def rebind(original, replacement) -> None:
        """Replace `original` wherever an opcalc module binds it."""
        for name, module in list(sys.modules.items()):
            if name != "opcalc" and not name.startswith("opcalc."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            value[key] = replacement

    def install(self) -> None:
        from opcalc import (
            cli, expr, fixedpoint, funcspace, operators, rng, simplex, taylor,
            verify,
        )
        wrap = self.outermost
        plan = [
            (cli.main, wrap(cli.main, calls="cli.main_calls")),
            (cli._emit, wrap(cli._emit, seconds="cli.emit_s")),
            (taylor.expand, wrap(taylor.expand, seconds="taylor.expand_s")),
            (taylor.ftoc_step, wrap(taylor.ftoc_step, calls="taylor.ftoc_step_calls")),
            (taylor.remainder_direct, wrap(taylor.remainder_direct,
                                           seconds="taylor.route_direct_s")),
            (taylor.remainder_exact, wrap(taylor.remainder_exact,
                                          seconds="taylor.route_exact_s")),
            (taylor.remainder_nested, wrap(taylor.remainder_nested,
                                           seconds="taylor.route_nested_s")),
            (taylor.remainder_bound, wrap(taylor.remainder_bound,
                                          seconds="taylor.route_bound_s")),
            (taylor.verify_exchange, wrap(taylor.verify_exchange,
                                          seconds="taylor.verify_exchange_s")),
            (operators.apply, wrap(operators.apply, seconds="operators.apply_s",
                                   calls="operators.apply_calls")),
            (operators.iterated_integral_one, wrap(
                operators.iterated_integral_one, before=self._before_basis,
                after=self._after_basis)),
            (operators.monotone_bound, wrap(operators.monotone_bound,
                                            seconds="operators.monotone_bound_s")),
            (funcspace.integrate, wrap(funcspace.integrate,
                                       seconds="funcspace.integrate_s",
                                       calls="funcspace.integrate_calls")),
            (funcspace.sup_abs, wrap(funcspace.sup_abs, seconds="funcspace.sup_abs_s",
                                     calls="funcspace.sup_abs_calls")),
            (expr.differentiate, wrap(expr.differentiate,
                                      seconds="expr.differentiate_s",
                                      calls="expr.differentiate_calls")),
            (expr.simplify, wrap(expr.simplify, seconds="expr.simplify_s",
                                 after=self._after_simplify)),
            (expr.evaluate, wrap(expr.evaluate, seconds="expr.evaluate_s",
                                 calls="expr.evaluate_calls")),
            (expr.evaluate_array, wrap(expr.evaluate_array,
                                       seconds="expr.evaluate_array_s",
                                       calls="expr.evaluate_array_calls",
                                       after=self._after_evaluate_array)),
            (simplex.remainder_by_slicing, wrap(simplex.remainder_by_slicing,
                                                seconds="simplex.route_sliced_s")),
            (simplex.simplex_volume_montecarlo, wrap(
                simplex.simplex_volume_montecarlo, seconds="simplex.mc_s",
                after=self._after_mc)),
            (simplex.ordering_partition_check, wrap(
                simplex.ordering_partition_check, seconds="simplex.partition_s",
                after=self._after_partition)),
            (rng.uniform01_block, wrap(rng.uniform01_block, seconds="rng.block_s",
                                       calls="rng.block_calls",
                                       after=self._after_block)),
            (fixedpoint.newton, wrap(fixedpoint.newton, seconds="fixedpoint.newton_s",
                                     calls="fixedpoint.newton_calls",
                                     after=self._after_newton)),
        ]
        for suite, runner in list(verify._SUITE_RUNNERS.items()):
            plan.append((runner, wrap(runner, seconds=f"verify.suite_{suite}_s")))
        for rule in list(funcspace.PANEL_RULES.values()):
            plan.append((rule, self.panel(rule)))
        for original, replacement in plan:
            self.rebind(original, replacement)
        gc.callbacks.append(self._gc)

    # -- rounds -------------------------------------------------------------

    def begin_round(self) -> None:
        self.values.clear()
        self._cpu_started = time.process_time()

    def end_round(self) -> dict[str, float]:
        v = self.values
        v["process.cpu_s"] = time.process_time() - self._cpu_started
        v["runtime.import_s"] = self.import_s
        if v["expr.tree_nodes"]:
            v["expr.distinct_share"] = v["expr.distinct_nodes"] / v["expr.tree_nodes"]
        if v["simplex.mc_s"]:
            v["simplex.mc_samples_per_s"] = v["simplex.mc_samples"] / v["simplex.mc_s"]
        if v["simplex.partition_s"]:
            v["simplex.partition_samples_per_s"] = (v["simplex.partition_samples"]
                                                    / v["simplex.partition_s"])
        return {name: v[name] for name, _, _ in PER_LAYER}
