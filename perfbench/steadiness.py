#!/usr/bin/env python3
"""Steadiness report for the benchmark defined in BENCHMARK.json.

Runs every workload N times, each with another seed, and prints for
every end-to-end metric its median, quartiles, quartile spread (the
distance between the first and third quartile as a share of the
median, as `statistics.quantiles(values, n=4)` gives them), max spread
((max - min) / median) and the bound BENCHMARK.json fixes for it,
together with nproc, the rustc version and the git commit.

Run from the repository root:

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
        [--workload NAME ...] [--json OUT]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def sh(args):
    try:
        return subprocess.run(args, capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_once(command, workload, seed, seconds):
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect or failed ops: {result}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--json", help="also write the raw values here")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    print(f"nproc {os.cpu_count()}  rustc {sh(['rustc', '--version'])}  "
          f"commit {sh(['git', 'rev-parse', '--short', 'HEAD'])}  "
          f"runs {args.runs}  run_seconds {bench['run_seconds']}")
    raw = {}
    worst = True
    for workload in workloads:
        values = {name: [] for name in bounds}
        for i in range(args.runs):
            seed = args.first_seed + i
            result = run_once(bench["command"], workload, seed, bench["run_seconds"])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"  {workload} seed {seed}: " + ", ".join(
                f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)
        raw[workload] = values
        print(f"{workload}:")
        print(f"  {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'q-spread':>9} {'max-spread':>10} {'bound':>6}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            spread = (q3 - q1) / median
            max_spread = (max(vals) - min(vals)) / median
            ok = spread <= bounds[name] / 3
            worst &= ok
            print(f"  {name:<18} {median:>12.4f} {q1:>12.4f} {q3:>12.4f} "
                  f"{spread:>8.2%} {max_spread:>9.2%} {bounds[name]:>6} "
                  f"{'' if ok else '  above a third of its bound'}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(raw, f, indent=1)
    return 0 if worst else 1


if __name__ == "__main__":
    sys.exit(main())
