#!/usr/bin/env python3
"""A/B verdicts over runs of the end-to-end benchmark.

    python3 bench/e2e/compare.py PARENT_DIR CHANGE_DIR          # A/B
    python3 bench/e2e/compare.py --same RUNS_A_DIR RUNS_B_DIR   # stability

Each directory holds result files written by `run.py --out`. Files of one
workload are paired in name order (pair i = parent run i vs change run i),
so name them by run number and alternate which side runs first.

For every end-to-end metric and workload it prints each side's median and
quartiles (statistics.quantiles, n=4), the change's win fraction over the
pairs (ties count for neither), and a verdict under the bounds in
BENCHMARK.json:

  improved    the change wins at least 9/10 of the pairs and the medians
              differ by more than the parent's quartile distance
  regressed   the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  the run-to-run spread (quartile distance / median) of either
              side is wider than the bound, and not every change run beats
              every parent run
  unchanged   otherwise

Exits 1 when any metric regressed, when a run failed its checks, or when
the failure ratio (failed / attempted) rose.

--same compares two sets of runs of one commit instead: every metric
must agree (medians within the bound, and each side's spread within the
bound) and every run must pass with no failures.
Traced runs (--trace 1) are listed as per-layer medians, for reading
where a change's time went; they carry no verdict.
"""

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def load_runs(directory):
    """{workload: {"untraced": [run, ...], "traced": [run, ...]}}."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            run = json.load(f)
        kind = "traced" if run["trace"] else "untraced"
        runs.setdefault(run["workload"], {"untraced": [], "traced": []})
        runs[run["workload"]][kind].append(run)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def values(runs, metric):
    return [r["metrics"][metric]["value"] for r in runs]


def fail_ratio(runs):
    return max(r["failed"] / r["attempted"] for r in runs)


def verdict(spec, parent, change):
    lower = spec["better"] == "lower"
    bound = spec["bound"]
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)

    def better(c, p):
        return c < p if lower else c > p

    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(c, p))
    worse = (cm - pm) / pm if lower else (pm - cm) / pm
    if (pairs and wins >= 0.9 * len(pairs) and better(cm, pm)
            and abs(cm - pm) > p3 - p1):
        label = "improved"
    elif worse > bound:
        label = "regressed"
    elif (max(spread(parent), spread(change)) > bound
          and not all(better(c, p) for c in change for p in parent)):
        label = "unresolved"
    else:
        label = "unchanged"
    return label, wins, len(pairs), worse


def agreement(spec, a, b):
    _, am, _ = quartiles(a)
    _, bm, _ = quartiles(b)
    bound = spec["bound"]
    ok = (abs(bm - am) / am <= bound and spread(a) <= bound
          and spread(b) <= bound)
    return ("agree" if ok else "DISAGREE"), (bm - am) / am


def fmt(values_):
    q1, q2, q3 = quartiles(values_)
    return f"{q2:12.6g} [{q1:.6g}, {q3:.6g}]"


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--same", action="store_true",
                        help="both directories are runs of one commit")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parent = load_runs(args.parent)
    change = load_runs(args.change)
    bad = False

    a_name, b_name = ("A", "B") if args.same else ("parent", "change")
    print(f"{'workload':14} {'metric':12} {a_name + ' median [q1, q3]':>34} "
          f"{b_name + ' median [q1, q3]':>34} {'delta':>8}  verdict")
    for workload in [w["name"] for w in bench["workloads"]]:
        p_runs = parent.get(workload, {}).get("untraced", [])
        c_runs = change.get(workload, {}).get("untraced", [])
        if not p_runs or not c_runs:
            print(f"{workload:14} (no untraced runs on both sides)")
            bad = bad or args.same
            continue
        for spec in bench["end_to_end"]:
            p = values(p_runs, spec["name"])
            c = values(c_runs, spec["name"])
            if args.same:
                label, delta = agreement(spec, p, c)
                bad = bad or label != "agree"
                extra = (f"  spread {spread(p):.3f}/{spread(c):.3f}"
                         f" bound {spec['bound']}")
            else:
                label, wins, pairs, worse = verdict(spec, p, c)
                bad = bad or label == "regressed"
                delta = (statistics.median(c) - statistics.median(p)) / \
                    statistics.median(p)
                extra = f"  wins {wins}/{pairs}"
            print(f"{workload:14} {spec['name']:12} {fmt(p):>34} "
                  f"{fmt(c):>34} {delta:+8.2%}  {label}{extra}")
        p_fail, c_fail = fail_ratio(p_runs), fail_ratio(c_runs)
        incorrect = not all(r["correct"] for r in p_runs + c_runs)
        if incorrect or c_fail > p_fail or (args.same and p_fail > 0):
            bad = True
            print(f"{workload:14} fail_ratio {p_fail:.4g} -> {c_fail:.4g}"
                  f"{'  (a run failed its checks)' if incorrect else ''}")

        p_traced = parent.get(workload, {}).get("traced", [])
        c_traced = change.get(workload, {}).get("traced", [])
        if p_traced and c_traced:
            print(f"{workload:14} per-layer medians of traced runs:")
            for spec in bench["per_layer"]:
                p = statistics.median(values(p_traced, spec["name"]))
                c = statistics.median(values(c_traced, spec["name"]))
                print(f"{'':14}   {spec['name']:28} {p:14.6g} {c:14.6g} "
                      f"{spec['unit']}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
