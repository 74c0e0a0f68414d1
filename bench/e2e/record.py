#!/usr/bin/env python3
"""Records one trajectory point of the end-to-end benchmark.

    python3 bench/e2e/record.py

Per workload: 5 untraced runs and one traced run of run.py, all at seed
42, each as long as BENCHMARK.json's run_seconds. Writes BENCH_e2e.json
beside this file: each end-to-end metric's median and quartiles over the
untraced runs, the traced run's per-layer metrics (also split by operation
type), each type's sample count, p50 and p90,
and the host facts a later point must match to be comparable: cores, CPU,
compiler, build type, whether invariants and trace sites are compiled in,
and the measured git commit.
"""

import datetime
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2e")
RUNS_DIR = os.path.join(ROOT, ".bench_build", "e2e-runs")
OUT = os.path.join(HERE, "BENCH_e2e.json")
UNTRACED_RUNS = 5
SEED = 42

sys.path.insert(0, HERE)
from compare import quartiles  # noqa: E402


def run(workload, trace, index):
    out = os.path.join(RUNS_DIR, f"{workload}.{'t' if trace else 'u'}{index}"
                                 ".json")
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(SEED), "--trace", str(trace), "--out", out]
    if subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode != 0:
        sys.exit(f"record.py: run failed: {' '.join(cmd)}")
    with open(out) as f:
        return json.load(f)


def cmake_cache(key):
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def git(*args):
    proc = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model():
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    os.makedirs(RUNS_DIR, exist_ok=True)

    workloads = {}
    for w in [w["name"] for w in bench["workloads"]]:
        untraced = [run(w, 0, i) for i in range(UNTRACED_RUNS)]
        traced = run(w, 1, 0)
        e2e = {}
        for spec in bench["end_to_end"]:
            vals = [r["metrics"][spec["name"]]["value"] for r in untraced]
            q1, q2, q3 = quartiles(vals)
            e2e[spec["name"]] = {"median": q2, "q1": q1, "q3": q3,
                                 "unit": spec["unit"], "runs": vals}
        workloads[w] = {
            "attempted": [r["attempted"] for r in untraced],
            "failed": [r["failed"] for r in untraced],
            "end_to_end": e2e,
            # Each operation type's sample count, p50 and p90: medians
            # over the untraced runs.
            "types": {t: {k: statistics.median(r["info"]["types"][t][k]
                                               for r in untraced)
                          for k in stats}
                      for t, stats in untraced[0]["info"]["types"].items()},
            "per_layer": {k: v["value"]
                          for k, v in traced["metrics"].items()},
            "per_layer_by_type": traced["info"]["layers"],
        }
        print(f"record.py: {w} done", file=sys.stderr)

    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()[0]
    point = {
        "schema": "dflow.bench_e2e.v1",
        "date": datetime.date.today().isoformat(),
        "git_sha": git("rev-parse", "HEAD"),
        "src_modified": bool(git("status", "--porcelain", "--", "src")),
        "host": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu_model(),
            "compiler": version,
            "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
            "invariants": "on",
            "trace_sites": "on",
        },
        "seed": SEED,
        "run_seconds": bench["run_seconds"],
        "untraced_runs": UNTRACED_RUNS,
        "traced_runs": 1,
        "workloads": workloads,
    }
    with open(OUT, "w") as f:
        json.dump(point, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
