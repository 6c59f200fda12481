#!/usr/bin/env python3
"""Benchmark regression gate.

Compares a freshly measured BENCH_*.json against the committed baseline and
fails (exit 1) when any benchmark's ns_per_op regressed by more than the
threshold (default 20%). ns_per_op is the median of the row's five
samples (paperfigs -benchjson); where both files carry min_ns/max_ns,
the table shows each side's spread beside the medians, so a reader can tell
a shift from noise. Improvements and alloc changes are reported but
never fail the gate: the allocation counts are pinned exactly by the JSON
diff a reviewer sees, while wall-clock noise on shared CI runners needs the
tolerance.

New benchmarks (in current, not in baseline) are reported and skipped so
adding benchmarks never wedges CI before the baseline is refreshed. The
reverse — a baseline benchmark missing from the current run — fails the
gate: it means a benchmark was deleted or broke, and warning alone would
let that pass silently forever. Pass --allow-missing during an intentional
rename/removal, then refresh the baseline.

Hard allocation bounds are opt-in per benchmark: --max-allocs Name=N
(repeatable) fails the gate when the current run's allocs_per_op exceeds N.
Unlike ns_per_op, allocation counts are deterministic, so a bound violation
is a real code change, never runner noise — it gates even benchmarks that
have no baseline entry yet.

Usage: benchgate.py BASELINE.json CURRENT.json [--threshold 0.20]
       [--allow-missing] [--max-allocs Name=N ...]
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        return {r["name"]: r for r in json.load(f)}


def spread(r):
    """The row's sample range relative to its median, or '-' for a
    single-sample (older) record."""
    if "min_ns" not in r or not r["ns_per_op"]:
        return "-"
    return f"{(r['max_ns'] - r['min_ns']) / r['ns_per_op']:.0%}"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=0.20,
                    help="maximum allowed ns_per_op regression (fraction)")
    ap.add_argument("--allow-missing", action="store_true",
                    help="warn instead of fail when a baseline benchmark is "
                         "missing from the current run (intentional rename "
                         "or removal, pending a baseline refresh)")
    ap.add_argument("--max-allocs", action="append", default=[],
                    metavar="NAME=N",
                    help="fail when NAME's current allocs_per_op exceeds N "
                         "(repeatable; alloc counts are deterministic, so "
                         "this is a hard bound, not a tolerance)")
    args = ap.parse_args()

    alloc_bounds = {}
    for spec in args.max_allocs:
        name, sep, bound = spec.partition("=")
        if not sep or not bound.isdigit():
            ap.error(f"--max-allocs wants NAME=N, got {spec!r}")
        alloc_bounds[name] = int(bound)

    base = load(args.baseline)
    cur = load(args.current)
    failed = []

    print(f"{'benchmark':<28} {'base ns/op':>14} {'cur ns/op':>14} {'delta':>8}  allocs"
          f"  spread base / cur")
    for name, b in base.items():
        c = cur.get(name)
        if c is None:
            # A benchmark present only in the baseline was deleted or broke.
            # That fails the gate unless --allow-missing acknowledges an
            # intentional rename/removal pending a baseline refresh.
            if args.allow_missing:
                print(f"WARNING: {name}: in baseline but not in current run; "
                      f"skipped (--allow-missing; refresh the baseline)",
                      file=sys.stderr)
            else:
                failed.append(
                    f"{name}: in baseline but not in current run "
                    f"(deleted or broken benchmark; pass --allow-missing "
                    f"for an intentional removal)")
            continue
        delta = (c["ns_per_op"] - b["ns_per_op"]) / b["ns_per_op"]
        mark = ""
        if delta > args.threshold:
            failed.append(
                f"{name}: ns/op regressed {delta:+.1%} "
                f"({b['ns_per_op']:.0f} -> {c['ns_per_op']:.0f})")
            mark = "  << FAIL"
        print(f"{name:<28} {b['ns_per_op']:>14.0f} {c['ns_per_op']:>14.0f} "
              f"{delta:>+7.1%}  {b['allocs_per_op']} -> {c['allocs_per_op']}"
              f"  {spread(b)} / {spread(c)}{mark}")

    for name in cur:
        if name not in base:
            print(f"WARNING: {name}: new benchmark with no baseline; skipped "
                  f"(add it to the baseline)", file=sys.stderr)

    for name, bound in sorted(alloc_bounds.items()):
        c = cur.get(name)
        if c is None:
            failed.append(f"{name}: --max-allocs bound set but the benchmark "
                          f"is missing from the current run")
            continue
        allocs = c["allocs_per_op"]
        verdict = "ok" if allocs <= bound else "FAIL"
        print(f"{name:<28} allocs/op {allocs} (bound {bound}): {verdict}")
        if allocs > bound:
            failed.append(
                f"{name}: {allocs} allocs/op exceeds the hard bound of {bound}")

    if failed:
        print("\nbenchmark gate FAILED:", file=sys.stderr)
        for f in failed:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nbenchmark gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
