#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload fig09-cold --seed 1 --seconds 30 --trace 0

Run it from the repository root. It builds the `perfbench` package into
`$CARGO_TARGET_DIR` (default `.bench_build`), runs one workload in a fresh
scratch directory under it, relays the program's output (whose last line is
the JSON result) and deletes the scratch directory. The program itself
clears the `ANT_*` switches and points its artifacts at the scratch
directory. A traced run also keeps its spans in
`<target>/perfbench/spans-<workload>-<seed>.jsonl`.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("fig09-cold", "fig09-warm", "sweepd-overlap")
# Leaves headroom under the 180 s a run may take.
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")],
        cwd=ROOT, env=dict(os.environ, CARGO_TARGET_DIR=target), stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    runs = os.path.join(target, "perfbench", "runs")
    os.makedirs(runs, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=runs)
    command = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--tmp", scratch,
    ]
    if args.trace:
        command += ["--spans", os.path.join(
            target, "perfbench", f"spans-{args.workload}-{args.seed}.jsonl")]
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = run.stdout.rstrip("\n").splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        print(f"perfbench: run exited with {run.returncode}", file=sys.stderr)
        return run.returncode or 1
    try:
        json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(run.stdout)
        print("perfbench: the last output line is not a JSON result", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
