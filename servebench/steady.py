#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 servebench/steady.py --workloads ask related link_web \
        --seeds 1-10 [--seconds 25] [--record servebench/records/set_a.json]
    python3 servebench/steady.py --compare set_a.json set_b.json

For every workload and end-to-end metric it prints the median, the first
and third quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median, next to a third of the metric's bound from
BENCHMARK.json, and checks that each run printed exactly the metrics
and units BENCHMARK.json lists. --record also writes the raw results.
--compare prints two recorded sets side by side as a Markdown table:
median [q1, q3] of each, and the second median's change against the
first, as a share of the first (positive = worse), next to the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("%s seed %d failed with code %d" %
                         (workload, seed, proc.returncode))
    return json.loads(lines[-1])


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def compare(path_a, path_b, bench):
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    sets = []
    for path in (path_a, path_b):
        with open(path) as f:
            sets.append(json.load(f))
    print("| workload | metric | %s | %s | change | bound |" %
          tuple(os.path.basename(p) for p in (path_a, path_b)))
    print("|---|---|---|---|---|---|")
    for workload, runs_a in sets[0]["runs"].items():
        runs_b = sets[1]["runs"].get(workload)
        if not runs_b:
            continue
        for name in runs_a[0]["metrics"]:
            a = quartiles([r["metrics"][name] for r in runs_a])
            b = quartiles([r["metrics"][name] for r in runs_b])
            change = (b[0] - a[0]) / a[0] if a[0] else 0.0
            if better[name] == "higher":
                change = -change
            print("| %s | %s | %.4g [%.4g, %.4g] | %.4g [%.4g, %.4g] | "
                  "%+.3f | %.2f |" % ((workload, name) + a + b +
                                      (change, bounds[name])))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--compare", nargs=2, metavar="RECORD")
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--seeds")
    parser.add_argument("--seconds", type=float,
                        help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--record")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.compare:
        compare(args.compare[0], args.compare[1], bench)
        return
    if not args.workloads or not args.seeds:
        parser.error("--workloads and --seeds are required")
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    listed = bench["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    bounds = {m["name"]: m.get("bound", 0) for m in listed}
    seeds = parse_seeds(args.seeds)
    record = {"seconds": args.seconds, "seeds": seeds,
              "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "runs": {}}
    for workload in args.workloads:
        runs = []
        for seed in seeds:
            result = run_once(workload, seed, args.seconds, args.trace)
            if not result["correct"] or result["failed"]:
                raise SystemExit("%s seed %d: %r" % (workload, seed, result))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != units:
                raise SystemExit("%s seed %d: metrics %r, BENCHMARK.json "
                                 "lists %r" % (workload, seed, got, units))
            runs.append({"seed": seed, "attempted": result["attempted"],
                         "metrics": {k: v["value"] for k, v in
                                     result["metrics"].items()}})
        record["runs"][workload] = runs
        print("%s (%d seeds)" % (workload, len(runs)))
        print("  %-18s %12s %12s %12s %8s %8s" %
              ("metric", "median", "q1", "q3", "spread", "bound/3"))
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name] for r in runs]
            median, q1, q3 = quartiles(values)
            spread = (q3 - q1) / median if median else 0.0
            third = bounds.get(name, 0) / 3
            print("  %-18s %12.6g %12.6g %12.6g %8.4f %8.4f%s" %
                  (name, median, q1, q3, spread, third,
                   "" if not third or spread < third else "  <-- wide"))
            print("    " + " ".join("%.6g" % v for v in values))
        sys.stdout.flush()
    if args.record:
        with open(args.record, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
