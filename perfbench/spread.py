#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports each metric's spread.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--trace 0|1]

Run it from the repository root. For every metric it prints the median, the
quartiles and the distance between the quartiles as a share of the median
(statistics.quantiles(values, n=4)), next to the metric's bound from
BENCHMARK.json. It exits 1 if a run is incorrect or a spread, setup_s
excepted, exceeds its bound. --out FILE saves the raw per-run values as JSON,
so two sets of runs can be compared with --compare FILE.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--compare")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    values = {}
    ok = True
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds",
               str(bench["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print("seed %d: run.py exited %d" % (seed, proc.returncode))
            return 1
        result = json.loads(proc.stdout.strip().split("\n")[-1])
        if not result["correct"] or result["failed"]:
            ok = False
            print("seed %d: correct=%s failed=%d" %
                  (seed, result["correct"], result["failed"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d done" % seed, flush=True)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(values, f, indent=1)
    earlier = {}
    if args.compare:
        with open(args.compare, encoding="utf-8") as f:
            earlier = json.load(f)

    print("%-34s %14s %14s %14s %8s %6s %s" %
          ("metric", "q1", "median", "q3", "spread", "bound",
           "vs earlier median" if earlier else ""))
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        info = bounds.get(name)
        bound = info["bound"] if info else None
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound:
            flag, ok = " OVER BOUND", False
        elif bound is not None and spread > bound / 3:
            flag = " above bound/3"
        change = ""
        if name in earlier and len(earlier[name]) >= 2:
            before = statistics.median(earlier[name])
            worse = med - before if info and info["better"] == "lower" \
                else before - med
            share = worse / before if before else 0.0
            change = "%+.4f worse" % share
            if bound is not None and share > bound:
                flag, ok = flag + " REGRESSED", False
        print("%-34s %14.6g %14.6g %14.6g %8.4f %6s %s%s" %
              (name, q1, med, q3, spread,
               "" if bound is None else bound, change, flag))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
