#!/usr/bin/env python3
"""Builds and runs the end-to-end host-time benchmark for one workload.

    python3 bench/e2e/run.py --workload sql-adhoc --seed 42 --seconds 25 \
        --trace 0 [--out result.json] [--spans-dir DIR]

Run from anywhere; paths are relative to the repository root. The first
run configures and builds bench/e2e (the dflow library from src/ plus the
harness, Release) into .bench_build/e2e; later runs only check the build.

Prints every metric as `name workload value unit`, then, as the last line,
one JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics of BENCHMARK.json untraced, its per-layer metrics with
--trace 1 (spans then go to <spans-dir>/<workload>.spans.jsonl). --out
also writes the full result, with per-type sample counts, to a file.

Exit codes: 0 all checks passed; 1 a check failed or the build or harness
broke; 2 refused (bad arguments, or a host with fewer than 4 cores).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2e")
HARNESS = os.path.join(BUILD_DIR, "e2e_harness")
MIN_CORES = 4
# A run measures for --seconds, plus set-up and checks; well inside the
# 180 s a run may take.
HARNESS_TIMEOUT_S = 150


def fail(message, code=1):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def host_cores():
    return len(os.sched_getaffinity(0))


def build():
    jobs = str(host_cores())
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--parallel", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result here")
    parser.add_argument("--spans-dir",
                        default=os.path.join(ROOT, ".bench_build",
                                             "e2e-spans"))
    args = parser.parse_args()

    cores = host_cores()
    if cores < MIN_CORES:
        fail(f"refusing to run: {cores} cores available, the benchmark "
             f"needs {MIN_CORES} (parallel-olap runs 4 worker threads and "
             f"every result is compared against a 4-core baseline)", 2)

    build()

    cmd = [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(args.spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(args.spans_dir,
                                        f"{args.workload}.spans.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness timed out after {HARNESS_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"harness exited {proc.returncode} without a result")

    # The harness reports values by name; units live in BENCHMARK.json. A
    # per-layer metric of a layer the workload does not have reads 0.
    metrics = {}
    for spec in bench["per_layer" if args.trace else "end_to_end"]:
        value = result["metrics"].get(spec["name"])
        if value is None:
            if not args.trace:
                fail(f"harness did not report {spec['name']}")
            value = 0.0
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{spec['name']} {args.workload} {value!r} {spec['unit']}")

    final = {"correct": result["correct"], "attempted": result["attempted"],
             "failed": result["failed"], "metrics": metrics}
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "seconds": args.seconds, "trace": args.trace,
                       **final, "info": result["info"]}, f, indent=1)
            f.write("\n")
    print(json.dumps(final))
    sys.exit(0 if result["correct"] and proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
