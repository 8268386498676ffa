#!/usr/bin/env python3
"""Benchmark entry point: builds bench_ledger from source, runs one workload.

    python3 ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
simulator library and bench_ledger (Release) under .bench_build/ledger; later
calls rebuild only what changed. --trace 0 runs the end-to-end mode, --trace 1
the per-layer mode (which also writes its spans as a Chrome trace next to the
build). The last line of standard output is bench_ledger's JSON result; build
output goes to standard error. The exit status is bench_ledger's, or the
build's when the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "ledger")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "bench_ledger"])
    for cmd in steps:
        code = subprocess.run(cmd, stdout=sys.stderr).returncode
        if code != 0:
            return code
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    code = build()
    if code != 0:
        print("run.py: build failed", file=sys.stderr)
        return code

    cmd = [os.path.join(BUILD, "bench_ledger"),
           "--workload=" + args.workload,
           "--mode=" + ("layers" if args.trace else "e2e"),
           "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds]
    if args.trace:
        cmd.append("--trace-out=" +
                   os.path.join(BUILD, "trace_%s.json" % args.workload))
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
