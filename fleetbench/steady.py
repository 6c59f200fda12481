#!/usr/bin/env python3
"""Steadiness report: run one workload repeatedly and print, for each
end-to-end metric, the median, the quartiles, and the spread (the distance
between the quartiles as a share of the median), next to the metric's bound
from BENCHMARK.json.

    python3 fleetbench/steady.py --workload warm --runs 10 [--first-seed 1]

Run from the repository root. Each run gets its own seed. A metric is steady
when its spread stays well inside its bound (the benchmark aims for a third).
Quartiles come from statistics.quantiles(values, n=4).
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    values = {name: [] for name in bounds}
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"run with seed {seed} failed with exit code {proc.returncode}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        if not res["correct"] or res["failed"]:
            sys.exit(f"run with seed {seed}: {res['failed']} of {res['attempted']} ops failed")
        row = []
        for name in bounds:
            v = res["metrics"][name]["value"]
            values[name].append(v)
            row.append(f"{name}={v:.4g}")
        print(f"seed {seed}: " + " ".join(row), flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {seconds}s")
    print(f"{'metric':<18} {'unit':<5} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, m in bounds.items():
        vs = values[name]
        q1, _, q3 = statistics.quantiles(vs, n=4)
        med = statistics.median(vs)
        spread = (q3 - q1) / med
        flag = "" if spread < m["bound"] / 3 else "  <-- above a third of the bound"
        print(f"{name:<18} {m['unit']:<5} {med:12.4f} {q1:12.4f} {q3:12.4f} "
              f"{spread:8.3f} {m['bound']:6.2f}{flag}")


if __name__ == "__main__":
    main()
