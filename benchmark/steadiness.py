#!/usr/bin/env python3
"""Run-to-run steadiness of the benchmark, by the rule its acceptance uses.

Runs BENCHMARK.json's command ten times per workload, each time with another
seed, and prints for every end-to-end metric the distance between the first
and third quartile (statistics.quantiles(values, n=4)) as a share of the
median, next to the metric's bound. Run it from the repository root:

    python3 benchmark/steadiness.py [--runs 10] [--first-seed 1] [--workload NAME ...]

Exits non-zero if a run fails or a spread (setup_s excepted) exceeds its bound.
"""
import argparse
import json
import statistics
import subprocess
import sys

parser = argparse.ArgumentParser()
parser.add_argument("--runs", type=int, default=10)
parser.add_argument("--first-seed", type=int, default=1)
parser.add_argument("--workload", action="append")
parser.add_argument("--exe", help="a built pensieve-benchmark to run instead of the cargo command")
args = parser.parse_args()

spec = json.load(open("BENCHMARK.json"))
command = [args.exe] if args.exe else spec["command"]
bad = False
for workload in args.workload or [w["name"] for w in spec["workloads"]]:
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for i in range(args.runs):
        seed = args.first_seed + i
        out = subprocess.run(
            command + ["--workload", workload, "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
            bad = True
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q = statistics.quantiles(v, n=4)
        spread = (q[2] - q[0]) / statistics.median(v)
        over = spread > m["bound"] and m["name"] != "setup_s"
        bad |= over
        third = "" if spread <= m["bound"] / 3 else "  (above a third of the bound)"
        print(f"{workload:<16} {m['name']:<22} median {statistics.median(v):>14.6f} "
              f"spread {spread:7.4f} bound {m['bound']:.3f}{'  OVER' if over else third}",
              flush=True)
sys.exit(1 if bad else 0)
