"""Digest the output of every benchmark operation, to diff two checkouts.

Runs each operation of perfbench/workloads.py at one seed through
opcalc.cli.main (basis operations through iterated_integral_one) and prints
one sha256 per operation over [exit code, stdout, stderr], basis values as
float hex, then a sha256 over all of them.  Run it in two checkouts and diff:

    python3 scripts/golden.py --seed 1
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from opcalc import cli, operators  # noqa: E402


def output(op: workloads.Op) -> list:
    if op.kind == "basis":
        return [0, operators.iterated_integral_one(*op.args).hex(), ""]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(op.args))
    return [rc, out.getvalue(), err.getvalue()]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    seed = parser.parse_args().seed
    combined = hashlib.sha256()
    for name in workloads.WORKLOADS:
        for op in workloads.build(name, seed):
            digest = hashlib.sha256(json.dumps(output(op)).encode()).hexdigest()
            combined.update(digest.encode())
            print(digest, name, op.kind, op.label())
    print(combined.hexdigest(), "combined")


if __name__ == "__main__":
    main()
