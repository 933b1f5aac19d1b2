#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload exact --seed 1 --trace 0

Run from the root of a source tree.  Builds perfbench/ovobench.exe (or,
with --trace 1, ovotrace.exe) with dune into .bench_build/, runs one
workload in a fresh process, checks
every answer the program returned, and prints one line per metric
followed by the result as one JSON line.  --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones and
writes the spans to .bench_build/traces/.  Exits non-zero when an answer
was wrong or the benchmark could not run.  METRICS.md defines every
metric per workload.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import benchlib  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
# The untraced and the traced process are separate executables, so that
# the untraced one links no layer below the user-facing entry points.
EXES = {0: "ovobench.exe", 1: "ovotrace.exe"}
# A run must end within 180 s; the first run in a fresh tree may spend
# longer building, so the limit applies to the workload process alone.
WORKLOAD_TIMEOUT_S = 170.0

# Per-layer metrics whose layer a workload does not reach, reported as 0.
# The daemon solves inside its own worker threads, where the benchmark
# cannot time the DP layers; the exact workload starts no daemon.
BYPASSED = {
    "serve-mixed": ("compact.", "dp.sweep_s", "dp.layer_max_s", "dp.self_s",
                    "fs.", "engine.busy_s", "engine.idle_s",
                    "engine.efficiency", "prune.", "pack.", "mem.", "spill."),
    "exact": ("serve.",),
}

# Latency percentiles named q; each must have at least ten samples
# beyond it.
PERCENTILES = {
    "serve.cold_p50_ms": ("serve.cold_ms", 50.0),
    "serve.cold_p90_ms": ("serve.cold_ms", 90.0),
    "serve.warm_p50_ms": ("serve.warm_ms", 50.0),
    "serve.warm_p99_ms": ("serve.warm_ms", 99.0),
}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def exe_path(trace):
    return os.path.join(BUILD, "dune", "default", "perfbench", EXES[trace])


def build(trace):
    env = dict(os.environ, DUNE_CACHE="disabled")
    os.makedirs(BUILD, exist_ok=True)
    cmd = ["dune", "build", "--root", ".", "--build-dir",
           os.path.join(BUILD, "dune"), "--profile", "bench",
           "--cache", "disabled", "./perfbench/" + EXES[trace]]
    try:
        p = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                           text=True, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if p.returncode != 0 or not os.path.exists(exe_path(trace)):
        sys.stderr.write(p.stderr[-4000:])
        fail("build failed")


def derive(workload, trace, out, names):
    """Metric values from the worker's series and scalars, and the
    problems found while deriving them (each counts as a failure)."""
    series, scalars = out["series"], out["scalars"]
    rss_bytes = benchlib.parse_vmhwm_kb(out["proc_status"]) * 1024.0
    values, problems = {}, []

    def med(name):
        return benchlib.median(series[name]) if name in series else None

    def slow_quartile(name, better="lower"):
        if name not in series:
            return None
        return benchlib.percentile(series[name],
                                   75.0 if better == "lower" else 25.0)

    if not trace:
        values["setup_s"] = slow_quartile("setup_s")
        values["solve_random_s"] = slow_quartile("random_s")
        values["solve_structured_s"] = slow_quartile("structured_s")
        values["peak_rss_mb"] = rss_bytes / (1024.0 * 1024.0)
        values["ops_per_s"] = slow_quartile("ops_per_s", better="higher")
    else:
        for name in names:
            if name in series:
                values[name] = med(name)
            elif name in scalars:
                values[name] = scalars[name]
        if values.get("dp.state_bytes"):
            values["dp.rss_over_state"] = rss_bytes / values["dp.state_bytes"]
        if values.get("mem.accounted_peak_bytes"):
            values["mem.rss_over_accounted"] = (
                rss_bytes / values["mem.accounted_peak_bytes"])
        for name, (src, q) in PERCENTILES.items():
            samples = series.get(src)
            if not samples:
                continue
            tail = benchlib.tail_percentile(len(samples))
            if tail is None or tail < q:
                problems.append("%s: %d samples leave fewer than %d beyond "
                                "p%g" % (name, len(samples),
                                         benchlib.MIN_BEYOND, q))
            values[name] = benchlib.percentile(samples, q)
    for name in names:
        if values.get(name) is None:
            if name.startswith(BYPASSED[workload]):
                values[name] = 0.0
            else:
                problems.append("%s was not measured" % name)
                values[name] = 0.0
    return values, problems


def main():
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    build(args.trace)

    trace = args.trace == 1
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    names = [m["name"] for m in declared]
    units = {m["name"]: m["unit"] for m in declared}
    scratch = os.path.join(BUILD, "run-%d" % os.getpid())
    traces = os.path.join(BUILD, "traces")
    trace_file = os.path.join(
        traces, "%s-seed%d.json" % (args.workload, args.seed))
    os.makedirs(scratch, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    cmd = [exe_path(args.trace), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--scratch", os.path.relpath(scratch, ROOT)]
    if trace:
        cmd += ["--trace-file", trace_file]
    try:
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=WORKLOAD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s did not finish in time" % args.workload)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if p.returncode != 0:
        sys.stderr.write(p.stderr[-4000:])
        fail("workload %s exited with %d" % (args.workload, p.returncode))
    try:
        out = json.loads(p.stdout.strip().splitlines()[-1])
        values, problems = derive(args.workload, trace, out, names)
    except (IndexError, KeyError, TypeError, ValueError) as e:
        sys.stderr.write(p.stderr[-4000:])
        fail("unreadable worker output: %s" % e)

    attempted = out["attempted"]
    failed = out["failed"] + len(problems)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }
    try:
        benchlib.check_result(result, names)
    except ValueError as e:
        fail("malformed result: %s" % e)
    print("workload %s, seed %d, trace %d"
          % (args.workload, args.seed, args.trace))
    for n in names:
        print("  %-32s %14.6g %s" % (n, values[n], units[n]))
    print("  %-32s %14.6g (failed %d of %d)" % (
        "error_frac", failed / attempted, failed, attempted))
    for e in out["errors"] + problems:
        print("  error: " + e)
    if trace:
        print("  trace: " + os.path.relpath(trace_file, ROOT))
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
