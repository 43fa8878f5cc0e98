#!/usr/bin/env python3
"""Trace reader: per-layer self times, counts and blocking-path
accounting, plus the tracing overhead.

    python3 perfbench/report.py --spans <build>/traces/<workload>-<seed>.tsv
        Prints the self-time table of one traced run (its counters are
        read from the .json saved beside the span dump).

    python3 perfbench/report.py --workload <name> [--runs 5] [--seconds s]
        Runs the workload untraced and traced, alternately, `runs` times
        each with the same seeds; prints the median of every end-to-end
        metric both ways (the tracing overhead) and the per-layer table
        of the traced run with the median report latency.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import steady  # noqa: E402


def table_of(span_path):
    with open(span_path[:-4] + ".json") as f:
        raw = json.load(f)
    _, lines = layers.compute(spans.read_spans(span_path), raw)
    return lines


def traced_e2e(lines):
    prefix = "end-to-end (traced) "
    for line in lines:
        if line.startswith(prefix):
            return json.loads(line[len(prefix):])
    raise RuntimeError("traced run printed no end-to-end metrics")


def overhead(workload, runs, seconds, first_seed):
    plain, traced = {}, {}
    span_paths = []
    for i, seed in enumerate(range(first_seed, first_seed + runs)):
        # Alternate which side runs first, so drift hits both alike.
        for trace in ((0, 1) if i % 2 == 0 else (1, 0)):
            result, lines = steady.run_once(workload, seed, seconds, trace)
            if trace:
                values = traced_e2e(lines)
                span_paths.append((values["report_p50_us"], seed))
                for name, value in values.items():
                    traced.setdefault(name, []).append(value)
            else:
                for name, metric in result["metrics"].items():
                    plain.setdefault(name, []).append(metric["value"])
            print("seed %d trace=%d correct=%s" %
                  (seed, trace, result["correct"]), flush=True)
    print("%-24s %14s %14s %9s" % ("metric", "untraced", "traced", "ratio"))
    for name, values in plain.items():
        a = statistics.median(values)
        b = statistics.median(traced[name])
        print("%-24s %14.6g %14.6g %9.3f" % (name, a, b, b / a if a else 0))
    span_paths.sort()
    _, seed = span_paths[len(span_paths) // 2]
    path = os.path.join(run.build_dir(), "traces",
                        "%s-%d.tsv" % (workload, seed))
    print("\nper-layer self times, traced run with seed %d:" % seed)
    for line in table_of(path):
        print(line)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans")
    parser.add_argument("--workload")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seconds", type=float,
                        default=steady.load_benchmark().get("run_seconds",
                                                            10))
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    if args.spans:
        for line in table_of(args.spans):
            print(line)
    elif args.workload:
        overhead(args.workload, args.runs, args.seconds, args.first_seed)
    else:
        parser.error("give --spans or --workload")
    return 0


if __name__ == "__main__":
    sys.exit(main())
