#!/usr/bin/env python3
"""Builds gdlog's whole-pipeline benchmark and runs one workload.

    python3 perfbench/run.py --workload prim_text --seed 1 --seconds 10 --trace 0

Run it from the root of a gdlog source tree. The first call configures and
builds the library and the benchmark (Release) into .bench_build/; later
calls rebuild only what changed. The benchmark's stdout is passed through:
a metric table, then one JSON line with correct/attempted/failed/metrics.
Traced runs (--trace 1) write their span and engine traces to .bench_out/.
README.md in this directory describes the workloads and metrics.
"""
import argparse
import fcntl
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "gdlog_perfbench")
WORKLOADS = ("prim_text", "match_api", "tc_skip")


def build():
    """Configures once, then builds incrementally; build logs go to stderr."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", BUILD_DIR, "--target",
                      "gdlog_perfbench", "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode:
                sys.exit("perfbench: build step failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        parser.error("--seed must be >= 0 and --seconds in [1, 3600]")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no gdlog sources at " + os.path.join(ROOT, "src"))

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT_DIR]
    try:
        code = subprocess.run(cmd, cwd=ROOT,
                              timeout=args.seconds + 150).returncode
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: benchmark did not finish in time")
    sys.exit(code)


if __name__ == "__main__":
    main()
