"""One workload process: set up, run whole rounds for the requested time,
check the outputs, and print one JSON line with the measurements.

Started by run.py with PYTHONPATH pointing at the checkout's src/ and
`--t0`, the monotonic clock reading taken just before the process was
spawned, so that set-up time covers interpreter start, `import opcalc` and
input generation.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads

MIN_ROUNDS = 2      # round 2 re-runs every configuration: outputs must repeat
MAX_LINES_SHOWN = 20


def run_op(op: workloads.Op, cli, operators, tracer):
    """The op's output, or None with the reason it failed."""
    if op.kind == "basis":
        return operators.iterated_integral_one(*op.args), ""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(op.args))
    if tracer is not None:
        tracer.values["cli.output_bytes"] += len(out.getvalue().encode())
    if rc not in op.ok_codes:
        return None, f"exit code {rc}: {err.getvalue()[:300]}"
    return (rc, out.getvalue(), err.getvalue()), ""


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    started = time.perf_counter()
    import opcalc
    from opcalc import cli, operators
    import_s = time.perf_counter() - started
    src = Path(__file__).resolve().parent.parent / "src"
    if Path(opcalc.__file__).resolve().parent.parent != src:
        print(f"opcalc imported from {opcalc.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    ops = workloads.build(args.workload, args.seed)
    setup_s = time.perf_counter() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer(import_s)
        tracer.install()

    first: list = []            # round-1 output per op, None if it failed
    failed = attempted = 0
    failures: list[str] = []    # reported, but not a correctness problem
    problems: list[str] = []
    walls: list[float] = []
    layers: list[dict] = []
    run_started = time.perf_counter()
    # Start a round only while it should end less than half a round past
    # --seconds, so that a run measures for --seconds on average.
    while (len(walls) < MIN_ROUNDS or time.perf_counter() - run_started
           + statistics.mean(walls) / 2 < args.seconds):
        if tracer is not None:
            tracer.begin_round()
        outputs = []
        round_started = time.perf_counter()
        for op in ops:
            attempted += 1
            try:
                out, reason = run_op(op, cli, operators, tracer)
            except Exception as err:  # a failed operation is data, not a crash
                out, reason = None, f"{type(err).__name__}: {str(err)[:300]}"
            if out is None:
                failed += 1
                if not walls:
                    failures.append(f"failed: {op.label()}: {reason}")
            outputs.append(out)
        walls.append(time.perf_counter() - round_started)
        if tracer is not None:
            layers.append(tracer.end_round())
        if not first:
            first = outputs
        elif outputs != first:
            diff = next(op for op, a, b in zip(ops, first, outputs) if a != b)
            problems.append(f"output changed between rounds: {diff.label()}")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for op, out in zip(ops, first):
        if out is not None:
            problems.extend(f"{op.label()}: {p}" for p in workloads.check(op, out))
    for line in (failures + problems)[:MAX_LINES_SHOWN]:
        print(line, file=sys.stderr)

    if tracer is not None:
        from tracer import DETERMINISTIC
        metrics = {name: statistics.median(r[name] for r in layers)
                   for name in layers[0]}
        for name in DETERMINISTIC:
            if len({r[name] for r in layers}) > 1:
                print(f"note: {name} differs between rounds", file=sys.stderr)
        print(f"traced wall_s median {statistics.median(walls):.4f} over "
              f"{len(walls)} rounds", file=sys.stderr)
    else:
        metrics = {"wall_s": statistics.median(walls), "peak_rss_mb": peak_rss_mb}
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "setup_s": setup_s, "rounds": len(walls),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
