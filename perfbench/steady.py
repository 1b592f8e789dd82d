#!/usr/bin/env python3
"""Measures how steady the benchmark is, to set the bounds in BENCHMARK.json.

Usage, from the root of the repository:

    python3 perfbench/steady.py [--runs 10] [--workloads pointsto,eqsat,herbie]
        [--seconds S] [--trace 0|1] [--first-seed 1] [--json FILE]

Runs every workload --runs times through run.py, each run with its own seed,
interleaving the workloads and alternating their order from one pass to the
next. For every metric it prints the median, the first and third quartiles
(Python's statistics.quantiles(values, n=4)) and the spread, the distance
between the quartiles as a share of the median. With --trace 0 it also marks
each end-to-end metric whose spread is not below a third of its bound in
BENCHMARK.json; with --trace 1 it also reports the traced run's total_s, for
the tracing overhead. The share of failed operations is printed per workload
and must not vary.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    if result.returncode != 0:
        sys.exit("%s seed %d failed (exit %d):\n%s" % (
            workload, seed, result.returncode, result.stderr[-2000:]))
    record = json.loads(result.stdout.strip().splitlines()[-1])
    for line in result.stderr.splitlines():
        if line.startswith("perfbench: traced total_s median"):
            value = float(line.split()[4])
            record["metrics"]["traced.total_s"] = {"value": value, "unit": "s"}
    return record


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="pointsto,eqsat,herbie")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--json", help="also write every record to FILE")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads.split(",")

    records = {w: [] for w in workloads}
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for w in order:
            seed = args.first_seed + i
            record = run_once(w, seed, seconds, args.trace)
            records[w].append(record)
            print("run %2d %-9s seed %-4d correct=%s attempted=%d failed=%d"
                  % (i, w, seed, record["correct"], record["attempted"],
                     record["failed"]), file=sys.stderr)

    for w in workloads:
        runs = records[w]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print("\n%s: %d runs, failed share %s" % (
            w, len(runs), ", ".join("%.6f" % s for s in shares)))
        print("  %-26s %14s %14s %14s %8s" % (
            "metric", "median", "q1", "q3", "spread"))
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = median
            spread = (q3 - q1) / median if median else 0.0
            mark = ""
            if name in bounds and name != "setup_s" and \
                    spread >= bounds[name] / 3:
                mark = "  <- above bound/3 (%.3f)" % (bounds[name] / 3)
            print("  %-26s %14.6g %14.6g %14.6g %8.4f %s%s" % (
                name, median, q1, q3, spread, first["unit"], mark))

    if args.json:
        with open(args.json, "w") as f:
            json.dump(records, f, indent=1)


if __name__ == "__main__":
    main()
