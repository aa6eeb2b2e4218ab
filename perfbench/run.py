#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload read-scale --seed 1 --seconds 30 --trace 0

It builds perfbench/bench.exe with dune, runs it, and checks that the
program printed every metric BENCHMARK.json names for the chosen mode
(end_to_end for --trace 0, per_layer for --trace 1) exactly once, with its
unit, and nothing else.  The program's metric lines are echoed; the last
line of standard output is the result as one JSON object.

Exit codes: 0 when every check passed, 1 when a correctness check or the
self-test failed (the result is still printed), 2 when the benchmark could
not be built or run (no result is printed).
"""

import argparse
import json
import math
import os
import re
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
WORKLOADS = ["read-scale", "write-share", "shard-split"]
NAME = re.compile(r"[A-Za-z0-9_.-]+")
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kwargs):
    """Run cmd from the repository root in its own process group, killing
    the whole group if it outlives the timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def self_test(expected, lines, metrics):
    """Every expected metric: a well-formed name, printed on exactly one
    'name = value unit' line, and present in the JSON with the same unit
    and a finite value; no metric beyond those."""
    errors = []
    printed = {}
    for line in lines:
        name, sep, _ = line.partition(" = ")
        if sep:
            printed.setdefault(name, []).append(line)
    for m in expected:
        name, unit = m["name"], m["unit"]
        if not NAME.fullmatch(name):
            errors.append(f"metric name {name!r} is not [A-Za-z0-9_.-]+")
        shown = printed.get(name, [])
        if len(shown) != 1:
            errors.append(f"{name} printed {len(shown)} times")
        elif not shown[0].endswith(" " + unit):
            errors.append(f"{name} printed without its unit {unit!r}: {shown[0]!r}")
        got = metrics.get(name)
        if got is None:
            errors.append(f"{name} missing from the result")
        elif got.get("unit") != unit:
            errors.append(f"{name} has unit {got.get('unit')!r}, expected {unit!r}")
        elif not isinstance(got.get("value"), (int, float)) or not math.isfinite(got["value"]):
            errors.append(f"{name} has no finite value")
    names = {m["name"] for m in expected}
    errors += [f"{name} is not in BENCHMARK.json" for name in sorted(set(metrics) - names)]
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        build = ["dune", "build", "--root", ".", "--cache=disabled", "./perfbench/bench.exe"]
        code, _ = run(build, BUILD_TIMEOUT_S, stdout=sys.stderr)
    except (OSError, ValueError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: cannot build: {e}", file=sys.stderr)
        return 2
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        code, out = run(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 2
    lines = out.splitlines()
    try:
        if code not in (0, 1):
            raise ValueError(f"exit code {code}")
        result = json.loads(lines[-1])
        metrics = result["metrics"]
    except (ValueError, IndexError, KeyError, TypeError) as e:
        print(f"perfbench: no result from the benchmark program: {e}", file=sys.stderr)
        return 2

    errors = self_test(spec["per_layer" if args.trace else "end_to_end"], lines[:-1], metrics)
    for e in errors:
        print(f"self-test: {e}", file=sys.stderr)
    if errors:
        result["correct"] = False
        result["failed"] = result["attempted"]
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
