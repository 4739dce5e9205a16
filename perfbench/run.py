#!/usr/bin/env python3
"""Builds and runs the DARD benchmark (see perfbench/README.md).

One run, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds the simulator libraries and the benchmark binary in Release under
.bench_build/perfbench (once; later runs reuse the build), runs the named
workload, and passes the binary's output through: its last stdout line is
the JSON result. A traced run also writes the per-layer metrics to
.bench_out/<workload>-seed<N>-layers.json.

Stability mode runs one workload on several seeds and prints each metric's
median, quartiles and quartile spread as a share of the median:

    python3 perfbench/run.py --stability 10 --workload NAME --seconds S
                             [--trace 0|1]

uses seeds 1..N.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "dard_perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (first time only) and builds; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("perfbench: build step failed: " + " ".join(cmd))
            return False
    return os.path.exists(BINARY)


def run_once(workload, seed, seconds, trace, scheduler):
    """Runs the benchmark binary; returns (result dict or None, stdout lines)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scheduler", scheduler, "--out-dir", OUT_DIR]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s and was stopped" % RUN_TIMEOUT_S)
        return None, []
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        log("perfbench: benchmark binary exited with code %d" % done.returncode)
        return None, lines
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("perfbench: benchmark binary printed no JSON result")
        return None, lines
    return result, lines


def spread_report(workload, runs):
    """Median, quartiles and (q3 - q1) / median of each metric over runs."""
    names = list(runs[0]["metrics"].keys())
    summary = {}
    log("%-34s %14s %14s %14s %8s" % ("metric", "q1", "median", "q3",
                                        "iqr/med"))
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        summary[name] = {"q1": q1, "median": med, "q3": q3,
                         "spread": spread,
                         "unit": runs[0]["metrics"][name]["unit"]}
        log("%-34s %14.6g %14.6g %14.6g %8.4f" % (name, q1, med, q3, spread))
    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    correct = all(r["correct"] for r in runs)
    log("correct in every run: %s; failed shares: %s" % (correct, shares))
    return {"workload": workload, "runs": len(runs), "correct": correct,
            "failed_shares": shares, "metrics": summary}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scheduler", choices=["dard", "ecmp"],
                        default="dard")
    parser.add_argument("--stability", type=int, default=0,
                        help="run this many seeds and report spreads")
    args = parser.parse_args()

    if not build():
        return 1

    if args.stability <= 0:
        result, lines = run_once(args.workload, args.seed, args.seconds,
                                 args.trace, args.scheduler)
        for line in lines:
            print(line)
        return 0 if result is not None else 1

    if args.stability < 2:
        log("perfbench: --stability needs at least 2 runs")
        return 2
    runs = []
    for i in range(args.stability):
        seed = 1 + i
        result, _ = run_once(args.workload, seed, args.seconds, args.trace,
                             args.scheduler)
        if result is None:
            return 1
        log("seed %d: %s" % (seed, json.dumps(result["metrics"])))
        runs.append(result)
    print(json.dumps(spread_report(args.workload, runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
