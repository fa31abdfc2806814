#!/usr/bin/env python3
"""Build and run cellbench, the seeded two-clock benchmark.

Usage, from the root of a checkout:

    python3 cellbench/run.py --workload stream|percall|serve --seed N \
        --seconds S --trace 0|1

The first run configures and builds the benchmark (the project's library
sources plus the benchmark program in this directory) under
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs rebuild
incrementally. Build
output goes to standard error, so the last line of standard output is the
program's JSON result. Exits non-zero when the sources are missing, the
build fails, the run fails a check, or it overruns its time limit.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["stream", "percall", "serve"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if not os.path.isfile(os.path.join(ROOT, "src", "marvel", "cell_engine.h")):
        print("cellbench: project sources not found under %s" % ROOT,
              file=sys.stderr)
        return 2

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(ROOT, target, "cellbench")
    out = os.path.join(build, "out")
    os.makedirs(out, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print("cellbench: build timed out", file=sys.stderr)
            return 1
        if done.returncode != 0:
            print("cellbench: build failed", file=sys.stderr)
            return 1

    cmd = [os.path.join(build, "cellbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out", out]
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("cellbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
