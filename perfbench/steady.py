#!/usr/bin/env python3
"""Steadiness check: runs one workload N times, each with another seed,
and prints each metric's median, quartiles and spread.

    python3 perfbench/steady.py --workload ingest_small --runs 10 \
        [--seconds 15] [--trace 0] [--first-seed 1] [--save out.json]

The spread is (q3 - q1) / median with the quartiles of
statistics.quantiles(values, n=4). It is compared with the metric's
bound in BENCHMARK.json: "over" when above the bound, "wide" when above
a third of it. --seconds defaults to BENCHMARK.json's run_seconds.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402


def load_benchmark():
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except OSError:
        return {}


def run_once(workload, seed, seconds, trace):
    """Runs run.py once; returns (result line dict, preceding lines)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("run failed: %s seed %d" % (workload, seed))
    return json.loads(lines[-1]), lines[:-1]


def line_of(lines, prefix):
    for line in lines:
        if line.startswith(prefix + " "):
            return json.loads(line[len(prefix) + 1:])
    return {}


def latencies_of(lines):
    """The generator's latency percentiles, which have no bound."""
    samples = line_of(lines, "samples")
    out = {}
    for name, unit in (("report", "us"), ("seal", "ms"), ("query", "us")):
        for q in ("p50", "p99"):
            key = "%s_%s_%s" % (name, q, unit)
            out[key] = samples["%s_%s" % (name, unit)][q]
    return out


def summarize(values_by_metric, bounds):
    print("%-40s %14s %14s %14s %7s %6s" %
          ("metric", "q1", "median", "q3", "spread", "bound"))
    for name, values in values_by_metric.items():
        q1, median, q3 = spans.quartiles(values)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = "over" if spread > bound else (
                "wide" if spread > bound / 3 else "ok")
        print("%-40s %14.6g %14.6g %14.6g %7.3f %6s %s" %
              (name, q1, median, q3, spread,
               "" if bound is None else "%.2f" % bound, flag))


def main():
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        default=bench.get("run_seconds", 10))
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save", help="write every run's values here")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench.get("end_to_end", [])}
    values = {}
    unbounded = {}
    steal = []
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result, lines = run_once(args.workload, seed, args.seconds,
                                 args.trace)
        health = line_of(lines, "health")
        runs.append({"seed": seed, "result": result, "health": health})
        print("seed %d correct=%s valid=%s attempted=%d failed=%d" %
              (seed, result["correct"], health.get("valid"),
               result["attempted"], result["failed"]), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        if args.trace == 0:
            for name, value in latencies_of(lines).items():
                unbounded.setdefault(name, []).append(value)
        steal.append(health.get("steal_share", 0.0))
    summarize(values, bounds)
    if unbounded:
        print("\nlatencies (per-layer, no bound); host steal share %.3f to "
              "%.3f" % (min(steal), max(steal)))
        summarize(unbounded, {})
    bad = [r["seed"] for r in runs
           if not r["result"]["correct"] or not r["health"].get("valid")]
    if bad:
        print("incorrect or invalid runs: seeds %s" % bad)
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"workload": args.workload, "runs": runs,
                       "latencies": unbounded}, f)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
