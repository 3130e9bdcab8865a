"""Steadiness check: run each workload k times with different seeds and
compare the spread of every end-to-end metric with its bound.

    python3 perfbench/steady.py [--runs 10]

For each metric it prints the median, the quartiles (statistics.quantiles,
n=4) and the spread, (q3 - q1) / median, against the bound from
BENCHMARK.json; a spread above a third of the bound is marked.  It also
makes one traced run per workload and reports the tracing overhead (traced
minus untraced wall_s).  Results, with nproc and library versions, go to
perfbench/results/steady.json.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    args = p.parse_args(argv)

    report = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **{lib: importlib.metadata.version(lib) for lib in ("numpy", "scipy", "mpmath")},
        "runs": args.runs, "seconds": spec["run_seconds"], "workloads": {},
    }
    print(f"nproc {report['nproc']}, Python {report['python']}, numpy "
          f"{report['numpy']}, scipy {report['scipy']}, mpmath {report['mpmath']}")
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        results = [run(workload, seed, spec["run_seconds"], 0)[0]
                   for seed in range(1, args.runs + 1)]
        shares = {r["failed"] / r["attempted"] for r in results}
        entry = {"correct": all(r["correct"] for r in results),
                 "failed_shares": sorted(shares), "metrics": {}}
        print(f"\n{workload}: correct={entry['correct']} failed shares={sorted(shares)}")
        print(f"  {'metric':<12} {'median':>10} {'q1':>10} {'q3':>10} "
              f"{'spread':>8} {'bound':>6}")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            mark = " *" if spread > m["bound"] / 3 else ""
            steady &= not mark
            entry["metrics"][m["name"]] = {"values": values, "median": median,
                                           "q1": q1, "q3": q3, "spread": spread,
                                           "bound": m["bound"]}
            print(f"  {m['name']:<12} {median:>10.4f} {q1:>10.4f} {q3:>10.4f} "
                  f"{spread:>8.4f} {m['bound']:>6}{mark}")
        steady &= entry["correct"] and len(shares) == 1
        traced, stderr = run(workload, 1, spec["run_seconds"], 1)
        found = re.search(r"traced wall_s median ([0-9.]+)", stderr)
        if found:
            untraced = entry["metrics"]["wall_s"]["values"][0]
            entry["tracing_overhead_s"] = float(found.group(1)) - untraced
            print(f"  tracing overhead (seed 1): "
                  f"{entry['tracing_overhead_s']:+.4f} s")
        entry["traced"] = {k: v["value"] for k, v in traced["metrics"].items()}
        report["workloads"][workload] = entry

    out = HERE / "results" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"\n{'steady' if steady else 'NOT steady'}; results in {out.relative_to(ROOT)}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
