#!/usr/bin/env python3
"""Wall-clock perf-CI gate over the bench_parallel_pipeline artifact.

Unlike check_report.py (which gates deterministic virtual-clock counters),
this gate consumes real elapsed-time throughput from the real-parallel
executor ("dflow.bench_parallel.v1" JSON), so its thresholds are
deliberately loose: the point is to catch an accidental 2x slowdown or a
broken scheduler, not 3% noise.

The gate reads one or more reports (--report, repeatable): one sweep per
report. It judges the median over the sweeps of each (plan, workers)
pair's rows_per_sec, and the median probe, so one sweep disturbed by host
noise does not decide the verdict; with a single report the median is that
report.

Two checks:

  1. Regression: each (plan, workers) entry's rows_per_sec must be at least
     (1 - max_regression) of the committed baseline's value for the same
     pair. Default max_regression = 0.25. Baseline pairs missing from the
     report fail; report pairs missing from the baseline are ignored (new
     sweeps are added by --update-baseline).

  2. Scaling: for each plan present at both 1 and 4 workers, the 4-worker
     rows_per_sec must be >= min_scaling x the 1-worker number. Default
     min_scaling = 2.0.

Both checks trust a multi-worker number only if the host could run four
threads in parallel while the bench ran. The report carries
"host_parallel_speedup", what a shared-nothing spin loop gained from 1 to 4
threads during the run (hardware_concurrency() cannot see a starved or
oversubscribed host). When the probe is below MIN_PROBE (3.5), a failing
multi-worker check is *inconclusive*, not failed: the gate exits 3
and says what the host delivered. CI treats that as a failure to measure,
never as a pass. Failing 1-worker checks fail regardless of the probe.

The trajectory file (--trajectory) is an append-only JSONL perf history:
one line per gated run (the median sweep, with the number of sweeps), so
the artifact accumulated across CI runs plots the rows/sec trend over time.
Appending happens before gating — a failing run still lands in the history.

Usage:
  check_bench_trend.py --report out/BENCH_parallel.1.json \
      [--report out/BENCH_parallel.2.json ...] \
      --baseline bench/expectations/bench_parallel_baseline.json \
      [--trajectory BENCH_parallel.trend.jsonl] [--label <sha>] \
      [--max-regression 0.25] [--min-scaling 2.0]
  check_bench_trend.py --report ... --baseline ... --update-baseline
      rewrites the baseline from the median sweep, derated by
      --headroom (default 0.30) so run-to-run noise does not gate. It
      refuses (exit 3) sweeps whose median probe is below MIN_PROBE.
  check_bench_trend.py --self-test
      gates synthetic sweeps: one noisy sweep of three passes, a
      regression in all three fails, a single report gates as one sweep.

Exit codes: 0 ok, 1 regression/malformed input, 2 usage error,
3 inconclusive (the host could not scale, so scaling was not measured).
"""

import argparse
import json
import os
import statistics
import sys
import tempfile

SCHEMA = "dflow.bench_parallel.v1"
EXIT_INCONCLUSIVE = 3
# Least 1->4 thread spin-probe speedup for multi-worker numbers to be judged.
MIN_PROBE = 3.5


def load_report(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"{path}: unexpected schema {doc.get('schema')!r}")
    entries = {}
    for e in doc.get("entries", []):
        entries[(e["plan"], int(e["workers"]))] = e
    return doc, entries


def median_sweep(reports):
    """One (doc, entries) pair from several loaded reports: each (plan,
    workers) pair's median rows_per_sec over the reports that have it, and
    the median probe (a report without one counts as 0)."""
    if len(reports) == 1:
        return reports[0]
    docs = [doc for doc, _ in reports]
    probes = []
    for doc in docs:
        try:
            probes.append(float(doc.get("host_parallel_speedup") or 0.0))
        except (TypeError, ValueError):
            probes.append(0.0)
    keys = sorted({key for _, entries in reports for key in entries})
    entries = {}
    for key in keys:
        values = [e[key]["rows_per_sec"] for _, e in reports if key in e]
        entries[key] = {"plan": key[0], "workers": key[1],
                        "rows_per_sec": statistics.median(values)}
    doc = {
        "schema": SCHEMA,
        "bench": docs[0].get("bench", ""),
        "host_cores": docs[0].get("host_cores", 0),
        "host_parallel_speedup": statistics.median(probes),
        "sweeps": len(reports),
        "entries": [entries[key] for key in keys],
    }
    return doc, entries


def append_trajectory(path, doc, label):
    line = {
        "bench": doc.get("bench", ""),
        "host_cores": doc.get("host_cores", 0),
        "host_parallel_speedup": doc.get("host_parallel_speedup"),
        "sweeps": doc.get("sweeps", 1),
        "entries": doc.get("entries", []),
    }
    if label:
        line["label"] = label
    with open(path, "a") as f:
        f.write(json.dumps(line, sort_keys=True) + "\n")


def update_baseline(doc, entries, path, headroom):
    out = {
        "bench": doc.get("bench", ""),
        "host_cores": doc.get("host_cores", 0),
        "host_parallel_speedup": doc.get("host_parallel_speedup"),
        "headroom": headroom,
        "entries": [
            {
                "plan": plan,
                "workers": workers,
                # Derated floor: the gate fires only below
                # observed * (1 - headroom) * (1 - max_regression).
                "rows_per_sec": round(
                    entries[(plan, workers)]["rows_per_sec"] * (1 - headroom),
                    1),
            }
            for (plan, workers) in sorted(entries)
        ],
    }
    with open(path, "w") as f:
        json.dump(out, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {path} ({len(out['entries'])} entries, "
          f"{headroom:.0%} headroom)")


def gate(doc, entries, baseline, max_regression, min_scaling):
    """Judges one (median) sweep against the baseline; returns the exit
    code and prints the verdict."""
    try:
        # A report without the probe cannot vouch for its host.
        probe = float(doc.get("host_parallel_speedup") or 0.0)
    except (TypeError, ValueError):
        print("error: host_parallel_speedup is not a number",
              file=sys.stderr)
        return 1
    host_scaled = probe >= MIN_PROBE
    host_note = (f"host delivered {probe:.2f}x on the probe "
                 f"(need >= {MIN_PROBE:.1f}x)")

    failures = []
    inconclusive = []
    checked = 0

    def judge(workers, message):
        # A multi-worker number from a host that could not scale says
        # nothing about the executor.
        if workers > 1 and not host_scaled:
            inconclusive.append(message)
        else:
            failures.append(message)

    # 1. Throughput floor per (plan, workers) pair.
    for b in baseline.get("entries", []):
        key = (b["plan"], int(b["workers"]))
        checked += 1
        got = entries.get(key)
        if got is None:
            failures.append(f"{key[0]}/w={key[1]}: missing from report")
            continue
        floor = b["rows_per_sec"] * (1.0 - max_regression)
        if got["rows_per_sec"] < floor:
            drop = 1.0 - got["rows_per_sec"] / b["rows_per_sec"]
            judge(key[1],
                  f"{key[0]}/w={key[1]}: {got['rows_per_sec']:.0f} rows/s is "
                  f"{drop:.0%} below baseline {b['rows_per_sec']:.0f} "
                  f"(allowed {max_regression:.0%})")

    # 2. 1->4 worker scaling.
    for plan in sorted({plan for (plan, _) in entries}):
        one = entries.get((plan, 1))
        four = entries.get((plan, 4))
        if one is None or four is None:
            continue  # sweep did not cover both; floor check still ran
        checked += 1
        if one["rows_per_sec"] <= 0:
            failures.append(f"{plan}: zero 1-worker throughput")
            continue
        ratio = four["rows_per_sec"] / one["rows_per_sec"]
        if ratio < min_scaling:
            judge(4,
                  f"{plan}: 1->4 worker scaling {ratio:.2f}x below the "
                  f"{min_scaling:.1f}x floor "
                  f"({one['rows_per_sec']:.0f} -> "
                  f"{four['rows_per_sec']:.0f} rows/s)")

    sweeps = doc.get("sweeps", 1)
    of_sweeps = f" (median of {sweeps} sweeps)" if sweeps > 1 else ""
    if failures:
        print(f"PERF GATE FAILED ({len(failures)} of {checked} checks"
              f"{of_sweeps}):")
        for f_ in failures:
            print(f"  {f_}")
        if inconclusive:
            print(f"inconclusive: {host_note}; "
                  f"{len(inconclusive)} more could not be judged:")
            for f_ in inconclusive:
                print(f"  {f_}")
        print("If the change is intentional, regenerate with "
              "tools/check_bench_trend.py --update-baseline and commit the "
              "diff.")
        return 1
    if inconclusive:
        print(f"PERF GATE INCONCLUSIVE: {host_note}; "
              f"{len(inconclusive)} of {checked} checks could not be judged"
              f"{of_sweeps}:")
        for f_ in inconclusive:
            print(f"  {f_}")
        return EXIT_INCONCLUSIVE
    print(f"perf gate ok: {checked} checks{of_sweeps} "
          f"(max regression {max_regression:.0%}, 1->4 scaling >= "
          f"{min_scaling:.1f}x; host probe {probe:.2f}x)")
    return 0


def run_self_test():
    """Gates synthetic sweeps against a synthetic baseline."""
    baseline = {"entries": [
        {"plan": "scan", "workers": 1, "rows_per_sec": 100.0},
        {"plan": "scan", "workers": 4, "rows_per_sec": 300.0},
    ]}

    def sweep(one, four, probe=3.9):
        return {"schema": SCHEMA, "bench": "self-test", "host_cores": 4,
                "host_parallel_speedup": probe,
                "entries": [
                    {"plan": "scan", "workers": 1, "rows_per_sec": one},
                    {"plan": "scan", "workers": 4, "rows_per_sec": four}]}

    good = sweep(110.0, 330.0)
    noisy = sweep(40.0, 60.0, probe=1.2)     # a disturbed sweep
    regressed = sweep(60.0, 150.0)           # below the 25% floor
    cases = [
        ("one noisy sweep of three", [good, noisy, good], 0),
        ("a regression in all three", [regressed, regressed, regressed], 1),
        ("a single good report", [good], 0),
        ("a single regressed report", [regressed], 1),
        ("a single noisy report", [noisy], 1),
    ]
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, docs, want in cases:
            reports = []
            for i, doc in enumerate(docs):
                path = os.path.join(tmp, f"report{i}.json")
                with open(path, "w") as f:
                    json.dump(doc, f)
                reports.append(load_report(path))
            median_doc, entries = median_sweep(reports)
            print(f"-- self-test: {name}")
            got = gate(median_doc, entries, baseline, 0.25, 2.0)
            if got != want:
                print(f"check_bench_trend: SELF-TEST FAILED: {name} exited "
                      f"{got}, expected {want}")
                failed += 1
    if failed:
        return 1
    print("check_bench_trend: self-test ok (noisy sweep outvoted, planted "
          "regression caught, single report unchanged)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", action="append", default=[],
                        help="bench_parallel_pipeline --dflow_report_json "
                             "output; repeat for several sweeps")
    parser.add_argument("--baseline",
                        help="committed baseline "
                             "(bench/expectations/bench_parallel_baseline"
                             ".json)")
    parser.add_argument("--trajectory", default=None,
                        help="JSONL perf-history file to append this run to")
    parser.add_argument("--label", default=None,
                        help="label for the trajectory line (e.g. git sha)")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="max fractional rows/sec drop vs baseline "
                             "(default 0.25)")
    parser.add_argument("--min-scaling", type=float, default=2.0,
                        help="min 1->4 worker rows/sec ratio (default 2.0)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline from the report")
    parser.add_argument("--headroom", type=float, default=0.30,
                        help="derating applied by --update-baseline "
                             "(default 0.30)")
    parser.add_argument("--self-test", action="store_true",
                        help="gate synthetic sweeps and check the verdicts")
    args = parser.parse_args()

    if args.self_test:
        return run_self_test()
    if not args.report or not args.baseline:
        parser.error("--report and --baseline are required")

    try:
        reports = [load_report(path) for path in args.report]
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
        print(f"error: cannot read report: {e}", file=sys.stderr)
        return 1
    doc, entries = median_sweep(reports)

    if args.trajectory:
        append_trajectory(args.trajectory, doc, args.label)
        print(f"appended run to {args.trajectory}")

    if args.update_baseline:
        try:
            probe = float(doc.get("host_parallel_speedup") or 0.0)
        except (TypeError, ValueError):
            print("error: host_parallel_speedup is not a number",
                  file=sys.stderr)
            return 1
        if probe < MIN_PROBE:
            print(f"inconclusive: host delivered {probe:.2f}x on the probe "
                  f"(need >= {MIN_PROBE:.1f}x); not re-recording the "
                  f"baseline from this run")
            return EXIT_INCONCLUSIVE
        update_baseline(doc, entries, args.baseline, args.headroom)
        return 0

    try:
        with open(args.baseline) as f:
            baseline = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read baseline: {e}", file=sys.stderr)
        return 1
    return gate(doc, entries, baseline, args.max_regression,
                args.min_scaling)


if __name__ == "__main__":
    sys.exit(main())
