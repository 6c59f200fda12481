#!/usr/bin/env python3
"""Same-session A/B of two revisions on the fleet benchmark: alternating
pairs of fleetbench runs, one table of medians, quartile spreads, win counts
and verdicts.

    python3 scripts/abpair.py --base HEAD~1 --change WORKTREE \\
        --workload hop --seed 1 --pairs 10 [--trace 0] \\
        [--claim latency_p99_ms] [--scratch DIR] [--json runs.json]

Run from the repository root. Each side is exported into its own directory
under --scratch: a revision with `git archive`, or, for the literal WORKTREE,
the working tree's tracked and untracked-but-not-ignored files. Each side is
built once and every run goes through that side's own `bash
fleetbench/run.sh` for BENCHMARK.json's run_seconds, so each side measures
exactly its own sources over the benchmark's own timed phase. Pair k
runs the base first when k is odd and the change first when k is even.
After every run no `sentineld` or `sentinelfront` process may be left; the
script stops if one is.

For each metric the table gives the base median (IQR), the change median
(IQR), the change's relative difference, in how many pairs the change was
better, the gap between the medians in units of the base's IQR (positive
when the change is better), and a verdict:

  gain          (a --claim metric) better in at least 9 of every 10 pairs
                and a median gap larger than the base's IQR
  no gain       (a --claim metric) otherwise
  within bound  the change's median is not worse than the base's by more
                than the metric's BENCHMARK.json bound
  worse than bound  otherwise

With --trace 1 the runs report fleetbench's per-layer ledger; those rows
have no bound, and their verdict column is empty. Quartiles are
statistics.quantiles(values, n=4), as in fleetbench/steady.py. The raw runs
go to --json.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

# Gain rule: wins in at least GAIN_WINS of every GAIN_OF pairs.
GAIN_WINS, GAIN_OF = 9, 10

DAEMONS = ("sentineld", "sentinelfront")


def quartiles(values):
    """(q1, median, q3) of values; one value is its own quartiles."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def better(a, b, direction):
    """Whether value a is strictly better than value b."""
    return a > b if direction == "higher" else a < b


def compare(base, change, direction, bound=None, claim=False):
    """Statistics of one metric over paired runs: base[i] and change[i] come
    from pair i. Returns a dict with the medians, IQRs, the change's relative
    difference, its win count, the gap in base IQRs (positive = change
    better) and the verdict."""
    if len(base) != len(change) or not base:
        raise ValueError("need the same nonzero number of runs on each side")
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    biqr, ciqr = bq3 - bq1, cq3 - cq1
    wins = sum(1 for b, c in zip(base, change) if better(c, b, direction))
    improvement = (cmed - bmed) if direction == "higher" else (bmed - cmed)
    if biqr > 0:
        gap = improvement / biqr
    else:
        gap = float("inf") if improvement > 0 else (float("-inf") if improvement < 0 else 0.0)
    rel = (cmed - bmed) / bmed if bmed else 0.0
    if claim:
        gain = wins * GAIN_OF >= GAIN_WINS * len(base) and improvement > biqr
        verdict = "gain" if gain else "no gain"
    elif bound is not None:
        worse = -improvement / bmed if bmed else 0.0
        verdict = "worse than bound" if worse > bound else "within bound"
    else:
        verdict = ""
    return {"base_median": bmed, "base_iqr": biqr, "change_median": cmed,
            "change_iqr": ciqr, "rel": rel, "wins": wins, "pairs": len(base),
            "gap_iqr": gap, "verdict": verdict}


def fmt(v):
    """A value to four significant figures."""
    return f"{v:.4g}"


def table(workload, rows):
    """Markdown table of (metric, unit, stats) rows."""
    out = ["| workload | metric | pairs | base median (IQR) | change median (IQR) | change vs base"
           " | change better in | gap / base IQR | verdict |",
           "|---|---|---:|---:|---:|---:|---:|---:|---|"]
    for name, unit, s in rows:
        gap = s["gap_iqr"]
        gap_s = f"{gap:+.2f}" if abs(gap) != float("inf") else ("+inf" if gap > 0 else "-inf")
        out.append(f"| {workload} | {name} ({unit}) | {s['pairs']} "
                   f"| {fmt(s['base_median'])} ({fmt(s['base_iqr'])}) "
                   f"| {fmt(s['change_median'])} ({fmt(s['change_iqr'])}) "
                   f"| {s['rel'] * 100:+.1f}% | {s['wins']}/{s['pairs']} | {gap_s} | {s['verdict']} |")
    return "\n".join(out)


def export(rev, dest):
    """Export revision rev (or the working tree, for WORKTREE) into dest.
    A previous export's .bench_build (run.sh's build output and Go cache) is
    kept, so a later comparison rebuilds only what changed."""
    os.makedirs(dest, exist_ok=True)
    for name in os.listdir(dest):
        if name != ".bench_build":
            path = os.path.join(dest, name)
            if os.path.isdir(path) and not os.path.islink(path):
                shutil.rmtree(path)
            else:
                os.remove(path)
    if rev == "WORKTREE":
        files = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                               check=True, capture_output=True).stdout.split(b"\0")
        for f in files:
            if not f or not os.path.isfile(f):
                continue  # deleted in the working tree
            name = f.decode()
            os.makedirs(os.path.join(dest, os.path.dirname(name)), exist_ok=True)
            shutil.copy2(name, os.path.join(dest, name))
        return
    archive = subprocess.run(["git", "archive", rev], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def side_env():
    """The environment for a side's run.sh: its build output must stay in
    its own tree, so a shared build directory setting is dropped."""
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    return env


def build(dest):
    """Build a side through its own run.sh. The driver refuses --seconds 0
    with its usage text after run.sh has built everything."""
    subprocess.run(["bash", "fleetbench/run.sh", "--workload", "hop", "--seconds", "0"],
                   cwd=dest, env=side_env(), capture_output=True)
    for b in DAEMONS:
        if not os.path.exists(os.path.join(dest, ".bench_build", "bin", b)):
            sys.exit(f"{dest}: fleetbench/run.sh did not build {b}")


def leftover_daemons():
    """PIDs of running sentineld or sentinelfront processes."""
    pids = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/comm") as f:
                if f.read().strip() in DAEMONS:
                    pids.append(int(pid))
        except OSError:
            pass
    return pids


def run_once(dest, args, seconds):
    """One fleetbench run in dest; returns its JSON result."""
    cmd = ["bash", "fleetbench/run.sh", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace)]
    p = subprocess.run(cmd, cwd=dest, env=side_env(), capture_output=True, text=True)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        sys.exit(f"{dest}: fleetbench exited {p.returncode}")
    left = leftover_daemons()
    if left:
        sys.exit(f"{dest}: processes left after the run: {left}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="base revision, or WORKTREE")
    ap.add_argument("--change", required=True, help="changed revision, or WORKTREE")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--claim", action="append", default=[],
                    help="metric the change claims to improve (repeatable)")
    ap.add_argument("--scratch", default=".abpair", help="directory the two sides are exported into")
    ap.add_argument("--json", help="file the raw runs are written to")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    kinds = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {m["name"]: m for m in kinds}
    for c in args.claim:
        if c not in metrics:
            sys.exit(f"--claim {c}: not a metric of this run")

    if leftover_daemons():
        sys.exit("sentineld or sentinelfront is already running; stop it first")
    # Equal-length directory names: the binaries' paths end up in argv and
    # the environment, whose size shifts the processes' initial stack.
    sides = {"base": os.path.join(args.scratch, "a"), "change": os.path.join(args.scratch, "b")}
    for side, rev in (("base", args.base), ("change", args.change)):
        export(rev, sides[side])
        build(sides[side])

    runs = {"base": [], "change": []}
    for k in range(1, args.pairs + 1):
        order = ("base", "change") if k % 2 == 1 else ("change", "base")
        for side in order:
            res = run_once(sides[side], args, seconds)
            runs[side].append(res)
            print(f"pair {k} {side}: failed {res['failed']}/{res['attempted']} "
                  + " ".join(f"{n}={fmt(res['metrics'][n]['value'])}"
                             for n in metrics if n in res["metrics"]),
                  file=sys.stderr, flush=True)

    rows = []
    for name, m in metrics.items():
        if not all(name in r["metrics"] for side in runs for r in runs[side]):
            continue
        b = [r["metrics"][name]["value"] for r in runs["base"]]
        c = [r["metrics"][name]["value"] for r in runs["change"]]
        rows.append((name, m["unit"], compare(b, c, m["better"], m.get("bound"), name in args.claim)))
    failed = {side: [r["failed"] for r in runs[side]] for side in runs}
    print(table(args.workload, rows))
    print(f"\nfailed ops per run: base {failed['base']}, change {failed['change']}; "
          f"every run correct: {all(r['correct'] for side in runs for r in runs[side])}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"base": args.base, "change": args.change, "workload": args.workload,
                       "seed": args.seed, "seconds": seconds, "trace": args.trace,
                       "runs": runs, "rows": {n: s for n, _, s in rows}}, f, indent=1)


if __name__ == "__main__":
    main()
