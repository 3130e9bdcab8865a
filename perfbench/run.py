"""Benchmark opcalc on one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in its own fresh,
single-threaded process (child.py) that imports opcalc from the checkout's
src/.  With --trace 0 the last line of output is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run instead.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 1        # processes that only set up, started before and again
                        # after the workload process; with the workload
                        # process itself, setup_s is a median of three
CHILD_TIMEOUT_S = 170
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for name in SINGLE_THREAD:
        env[name] = "1"
    return env


def run_child(args, extra=()) -> dict:
    """Start child.py, wait for it, and return its last output line."""
    argv = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), *extra]
    t0 = time.perf_counter()    # CLOCK_MONOTONIC: comparable across processes
    proc = subprocess.run(argv + ["--t0", repr(t0)], cwd=ROOT, env=child_env(),
                          stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(lines[-1])


def setup_probes(args) -> list[float]:
    return [run_child(args, ["--setup-only"])["setup_s"] for _ in range(SETUP_PROBES)]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (ROOT / "src" / "opcalc" / "__init__.py").is_file():
        print(f"error: no opcalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        setups = [] if args.trace else setup_probes(args)
        result = run_child(args)
        if not args.trace:
            setups += setup_probes(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if args.trace:
        from tracer import PER_LAYER
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        metrics["setup_s"] = statistics.median(setups + [result["setup_s"]])
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
