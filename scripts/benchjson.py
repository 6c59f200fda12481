#!/usr/bin/env python3
"""Turn `go test -bench` output into the BENCH_*.json files CI gates on.

Run the benchmarks with several samples per row and feed the output in:

    go test -run '^$' -bench 'ScheduleBlock|...' -benchmem -count=5 \\
        ./internal/core ./internal/sim ./internal/server ./internal/fleet \\
        > bench.txt
    python3 scripts/benchjson.py bench.txt OUTDIR

Rows are split by the package named on the output's `pkg:` lines:
internal/core rows go to BENCH_schedule.json, internal/sim rows to
BENCH_sim.json, and internal/server and internal/fleet rows to
BENCH_serve.json. A row's name is the benchmark's without the `Benchmark`
prefix and the `-N` GOMAXPROCS suffix, so sub-benchmark names must not end
in `-` and digits. Each row records the median sample by ns/op, with that
sample's allocs, bytes and iterations, the fastest and slowest ns/op beside
it and the sample count: the record scripts/benchgate.py reads.

A failed benchmark, a row without -benchmem's allocs/op, or a row from a
package with no BENCH file is an error (exit 1).

Usage: benchjson.py GO_TEST_OUTPUT OUTDIR
"""

import json
import os
import re
import sys

# The BENCH file each benchmarked package's rows go to, by the last element
# of its import path.
FILES = {
    "core": "BENCH_schedule.json",
    "sim": "BENCH_sim.json",
    "server": "BENCH_serve.json",
    "fleet": "BENCH_serve.json",
}

ROW = re.compile(r"^Benchmark(\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$")


def parse(lines):
    """Return {file name: {row name: [sample, ...]}}, rows and files in
    first-seen order. A sample is a dict of ns, allocs, bytes and iters."""
    files = {}
    pkg = None
    for n, line in enumerate(lines, 1):
        line = line.rstrip("\n")
        if line.startswith("pkg: "):
            pkg = line[len("pkg: "):].strip()
            continue
        if line.startswith("--- FAIL") or line.startswith("FAIL"):
            raise ValueError(f"line {n}: benchmark run failed: {line}")
        m = ROW.match(line)
        if not m:
            continue
        name, iters, rest = m.group(1), int(m.group(2)), m.group(3).split()
        # The rest of the line is value/unit pairs: ns/op, B/op, allocs/op
        # and any metric a benchmark reports itself.
        metrics = {rest[i + 1]: float(rest[i]) for i in range(0, len(rest) - 1, 2)}
        if "ns/op" not in metrics or "allocs/op" not in metrics or "B/op" not in metrics:
            raise ValueError(f"line {n}: {name}: want ns/op, B/op and allocs/op "
                             f"(run with -benchmem): {line}")
        if pkg is None:
            raise ValueError(f"line {n}: {name}: no pkg: line before it")
        short = pkg.rsplit("/", 1)[-1]
        if short not in FILES:
            raise ValueError(f"line {n}: {name}: package {pkg} has no BENCH file")
        files.setdefault(FILES[short], {}).setdefault(name, []).append({
            "ns": metrics["ns/op"],
            "allocs": int(metrics["allocs/op"]),
            "bytes": int(metrics["B/op"]),
            "iters": iters,
        })
    return files


def record(name, samples):
    """The row's record: the median sample (the upper one of an even
    count), with the fastest and slowest ns/op and the sample count."""
    s = sorted(samples, key=lambda x: x["ns"])
    med = s[len(s) // 2]
    return {
        "name": name,
        "ns_per_op": med["ns"],
        "min_ns": s[0]["ns"],
        "max_ns": s[-1]["ns"],
        "samples": len(s),
        "allocs_per_op": med["allocs"],
        "bytes_per_op": med["bytes"],
        "iters": med["iters"],
    }


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        try:
            files = parse(f)
        except ValueError as e:
            print(f"benchjson: {e}", file=sys.stderr)
            return 1
    if not files:
        print("benchjson: no benchmark rows in the input", file=sys.stderr)
        return 1
    os.makedirs(argv[2], exist_ok=True)
    for fname, rows in files.items():
        recs = [record(name, samples) for name, samples in rows.items()]
        with open(os.path.join(argv[2], fname), "w") as f:
            json.dump(recs, f, indent=2)
            f.write("\n")
        print(f"{fname}: {len(recs)} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
