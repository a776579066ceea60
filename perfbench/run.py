#!/usr/bin/env python3
"""Builds the gcassert benchmark from source and runs one workload.

    python3 perfbench/run.py --workload suite|kv|kv-inc --seed N \
        --seconds S --trace 0|1 [--spans-out FILE]

Run from the root of a gcassert checkout. Every run configures and builds
perfbench/ (and with it the library under src/) into .bench_build/perfbench
as a Release build; after the first, only what changed is rebuilt. Build
output goes to stderr; stdout carries the benchmark's report, whose last
line is the result object {"correct", "attempted", "failed", "metrics"}.

Exits non-zero, without printing a result, when the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "gcassert-perfbench")
EXPECTED = os.path.join(HERE, "expected_violations.txt")
# Longest a run may take once built; the benchmark itself stops measuring
# after --seconds and then only checks and reports.
RUN_TIMEOUT_S = 175


def build():
    """Configures and builds the benchmark; True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
        return False
    return subprocess.run(
        ["cmake", "--build", BUILD, "--target", "gcassert-perfbench",
         "-j", jobs], stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["suite", "kv", "kv-inc"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--spans-out",
                        help="write the last traced round's spans here "
                             "(Chrome trace JSON; with --trace 1)")
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--expected", EXPECTED]
    if args.spans_out:
        command += ["--spans-out", args.spans_out]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=max(RUN_TIMEOUT_S, 3 * args.seconds))
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    if run.returncode != 0:
        print(f"perfbench: run exited with {run.returncode}",
              file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
