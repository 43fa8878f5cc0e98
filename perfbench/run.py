#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result as the last line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. The first run configures and builds the
load driver and the library from source into $CARGO_TARGET_DIR
(default .bench_build)/perfbench; later runs only rebuild what changed.
The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Lines before it show
the generator's health, the correctness checks and, when tracing, the
per-layer self times. A traced run keeps its spans in
<build>/traces/<workload>-<seed>.tsv for report.py.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import spans  # noqa: E402

# (name, unit) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = [
    ("ingest_rps", "1/s"),
    ("program_cores", "cores"),
    ("setup_s", "s"),
    ("rss_peak_mb", "MiB"),
    ("disk_bytes_per_epoch", "B"),
]

def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(os.path.abspath(target), "perfbench")


def build(out):
    """Configures (once) and builds the driver; False on failure."""
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", out, "--target", "perfbench", "-j", "4"]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def run_driver(out, workload, seed, seconds, trace):
    """Runs one workload; returns (raw result dict, span path or None)."""
    run_dir = os.path.join(out, "runs", "%s-%d-%d" % (workload, seed,
                                                      os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        proc = subprocess.run(
            [os.path.join(out, "perfbench"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "1" if trace else "0", "--dir", run_dir],
            stdout=subprocess.PIPE, text=True, timeout=170)
        if proc.returncode != 0 or not proc.stdout.strip():
            return None, None
        raw = json.loads(proc.stdout.strip().splitlines()[-1])
        span_path = None
        if trace:
            traces = os.path.join(out, "traces")
            os.makedirs(traces, exist_ok=True)
            span_path = os.path.join(traces, "%s-%d.tsv" % (workload, seed))
            shutil.move(os.path.join(run_dir, "spans.tsv"), span_path)
            with open(span_path[:-4] + ".json", "w") as f:
                json.dump(raw, f)
        return raw, span_path
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def metrics_of(raw, span_path):
    """The reported metrics and, when traced, the self-time table."""
    if span_path is None:
        values = {name: raw["e2e"][name] for name, _ in END_TO_END}
        units = dict(END_TO_END)
        table = []
    else:
        values, table = layers.compute(spans.read_spans(span_path), raw)
        units = dict(layers.PER_LAYER)
    metrics = {}
    for name, unit in units.items():
        value = values[name]
        if value is None or not math.isfinite(value):
            raise ValueError("metric %s was not measured" % name)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, table


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    raw, span_path = run_driver(out, args.workload, args.seed, args.seconds,
                                args.trace == 1)
    if raw is None:
        print("perfbench: the run failed", file=sys.stderr)
        return 1
    try:
        metrics, table = metrics_of(raw, span_path)
    except ValueError as err:
        print("perfbench: %s" % err, file=sys.stderr)
        return 1
    print("health " + json.dumps(raw["health"]))
    print("checks " + json.dumps(raw["checks"]))
    print("samples " + json.dumps(raw["samples"]))
    if span_path is not None:
        print("end-to-end (traced) " + json.dumps(raw["e2e"]))
        for line in table:
            print(line)
    print(json.dumps({"correct": raw["correct"],
                      "attempted": raw["attempted"],
                      "failed": raw["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
