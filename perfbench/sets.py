#!/usr/bin/env python3
"""Runs two sets of benchmark runs of one build and says whether they agree.

    python3 perfbench/sets.py [--runs 10]

Each set makes --runs untraced runs of every workload in BENCHMARK.json,
each run with its own seed (set A uses seeds 1001.., set B 2001..) and
BENCHMARK.json's run_seconds. The
workloads are interleaved and the two sets alternate which runs first, so
a slow phase of the host falls on both. For every end-to-end metric of
every workload it prints each set's median and spread (the distance
between the first and third quartile as a share of the median) and
whether the sets agree: both spreads within the metric's bound and set
B's median no worse than set A's by more than the bound. Exits 1 when any pair disagrees, a
run fails, or the failed-operation shares differ.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run failed: {' '.join(cmd)}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"output checks failed: {' '.join(cmd)}")
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_share(metric, a, b):
    """How much worse median b is than median a, as a share of a."""
    return (b - a) / a if metric["better"] == "lower" else (a - b) / a


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]

    results = {s: {w: [] for w in workloads} for s in "AB"}
    for i in range(args.runs):
        for w in workloads:
            for s in ("AB" if i % 2 == 0 else "BA"):
                seed = (1001 if s == "A" else 2001) + i
                results[s][w].append(run_once(w, seed, seconds))
                print(f"run {i + 1}/{args.runs} {w} set {s} seed {seed}",
                      file=sys.stderr)

    ok = True
    print(f"{'workload':13} {'metric':14} {'median A':>12} {'median B':>12} "
          f"{'spread A':>9} {'spread B':>9} {'B worse':>8} {'bound':>6}  agree")
    for w in workloads:
        shares = {s: sum(r["failed"] for r in results[s][w]) /
                  sum(r["attempted"] for r in results[s][w]) for s in "AB"}
        if shares["A"] != shares["B"]:
            ok = False
            print(f"{w}: failed share differs: {shares}")
        for m in bench["end_to_end"]:
            vals = {s: [r["metrics"][m["name"]]["value"] for r in results[s][w]]
                    for s in "AB"}
            med = {s: statistics.median(vals[s]) for s in "AB"}
            spr = {s: spread(vals[s]) for s in "AB"}
            worse = worse_share(m, med["A"], med["B"])
            agree = worse <= m["bound"] and max(spr.values()) <= m["bound"]
            ok = ok and agree
            print(f"{w:13} {m['name']:14} {med['A']:12.5g} {med['B']:12.5g} "
                  f"{spr['A']:9.3f} {spr['B']:9.3f} {worse:8.3f} "
                  f"{m['bound']:6.2f}  {'yes' if agree else 'NO'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
