#!/usr/bin/env python3
"""Repo benchmark entry point: builds perfbench in Release and runs one workload.

    python3 perfbench/run.py --workload file_y1|live_y1 \\
        --seed N --seconds S --trace 0|1

Run it from the repository root. The build lands in .bench_build/perfbench
(configured once, then rebuilt incrementally). The last line of standard
output is the run's JSON result; anything that makes the result
untrustworthy (no sources, a failed build, a crash, a missing or malformed
result line) exits non-zero without printing one. See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("file_y1", "live_y1")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
BUILD_TIMEOUT_S = 850
# A run may take --seconds plus set-up, the oracle and one stalled replay's
# deadline; it is killed after RUN_SLACK_S beyond --seconds, and never later
# than RUN_TIMEOUT_CAP_S.
RUN_SLACK_S = 90
RUN_TIMEOUT_CAP_S = 170


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "analyzer.hpp")):
        die("no uncharted sources under ./src (run from the repository root)")
    cmake = shutil.which("cmake")
    if cmake is None:
        die("cmake not found")
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    configured = False
    if os.path.isfile(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            configured = "CMAKE_BUILD_TYPE:STRING=Release\n" in f.read()
    steps = []
    if not configured:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append([cmake, "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append([cmake, "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            die("build timed out")
        if done.returncode != 0:
            die(f"build step failed: {' '.join(cmd)}")
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    exe = build()
    workdir = os.path.join(ROOT, ".bench_build", f"work-{os.getpid()}")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--workdir", workdir]
    timeout = min(RUN_TIMEOUT_CAP_S, args.seconds + RUN_SLACK_S)
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        die(f"run exceeded {timeout:g} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        die(f"perfbench exited with {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(done.stdout)
        die("no result line")
    sys.stdout.write(done.stdout)


if __name__ == "__main__":
    main()
