#!/usr/bin/env python3
"""Steadiness evidence for the benchmark.

Runs each workload N times (default 10), each with another seed, through
the command in BENCHMARK.json, and prints for every end-to-end metric
its median, first and third quartile and spread -- (Q3 - Q1) / median,
with quartiles from statistics.quantiles(values, n=4) -- beside the
metric's bound. The bounds in BENCHMARK.json are derived from this
output: each spread should stay below a third of its bound.

Run from the repository root:

    python3 perfbench/steady.py [--runs 10] [--seed0 1] [--workloads grid_open,...]
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(bench, workload, seed, seconds):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    took = time.monotonic() - t0
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: failed cells\n{proc.stderr}")
    return result, took


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=0,
                    help="seconds per run (default: run_seconds)")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = {}
    for w in names:
        values = {m: [] for m in bounds}
        took = []
        for k in range(args.runs):
            result, t = run_once(bench, w, args.seed0 + k, seconds)
            took.append(t)
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
        print(f"\n{w}: {args.runs} runs, seeds {args.seed0}..{args.seed0 + args.runs - 1}, "
              f"{statistics.median(took):.1f} s per run")
        print(f"{'metric':<16} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} "
              f"{'bound':>6} {'bound/3':>8}")
        for m, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            worst[m] = max(worst.get(m, 0.0), spread)
            flag = "ok" if spread < bounds[m] / 3 else ("within" if spread <= bounds[m] else "OVER")
            print(f"{m:<16} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} "
                  f"{bounds[m]:>6.3f} {bounds[m] / 3:>8.4f} {flag}")
        for m, vs in values.items():
            print(f"  {m} runs: " + " ".join(f"{v:.6g}" for v in vs))
    print("\nworst spread per metric: " +
          ", ".join(f"{m} {s:.4f}" for m, s in worst.items()))


if __name__ == "__main__":
    main()
