#!/usr/bin/env python3
"""Steadiness report: run each workload repeatedly, each time with another
seed, and print every metric's median, quartiles and (q3 - q1) / median
next to its bound from BENCHMARK.json.

    python3 perfbench/steadiness.py --runs 10 [--workloads exact,serve-mixed]
        [--trace 0] [--first-seed 1]

A spread at or above a third of the metric's bound is marked '!' (the
benchmark aims below it), one above the bound '!!'.  Exits non-zero if
any run failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import benchlib  # noqa: E402

ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    bad_runs = 0
    for w in args.workloads.split(","):
        values = {m["name"]: [] for m in declared}
        for i in range(args.runs):
            seed = args.first_seed + i
            p = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            try:
                res = json.loads(p.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                res = None
            if p.returncode != 0 or res is None or not res["correct"]:
                bad_runs += 1
                sys.stderr.write("%s seed %d failed:\n%s%s\n" % (
                    w, seed, p.stdout[-2000:], p.stderr[-2000:]))
                continue
            for name, m in res["metrics"].items():
                values[name].append(m["value"])
            print("%s seed %d done" % (w, seed), file=sys.stderr)
        print("\n== %s (%d runs)" % (w, len(values[declared[0]["name"]])))
        print("  %-32s %12s %12s %12s %8s %6s" % (
            "metric", "median", "q1", "q3", "spread", "bound"))
        for m in declared:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = benchlib.spread(v) if med else 0.0
            bound = m.get("bound")
            flag = ""
            if bound is not None and spread > bound:
                flag = "!!"
            elif bound is not None and spread >= bound / 3:
                flag = "!"
            print("  %-32s %12.6g %12.6g %12.6g %8.4f %6s %s" % (
                m["name"], med, q1, q3, spread,
                "" if bound is None else "%.2f" % bound, flag))
    sys.exit(1 if bad_runs else 0)


if __name__ == "__main__":
    main()
