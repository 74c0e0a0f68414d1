#!/usr/bin/env python3
"""Wall-clock perf-CI gate over the bench_parallel_pipeline artifact.

Unlike check_report.py (which gates deterministic virtual-clock counters),
this gate consumes real elapsed-time throughput from the real-parallel
executor ("dflow.bench_parallel.v1" JSON), so its thresholds are
deliberately loose: the point is to catch an accidental 2x slowdown or a
broken scheduler, not 3% noise.

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
one line per gated run, so the artifact accumulated across CI runs plots
the rows/sec trend over time. Appending happens before gating — a failing
run still lands in the history.

Usage:
  check_bench_trend.py --report out/BENCH_parallel.json \
      --baseline bench/expectations/bench_parallel_baseline.json \
      [--trajectory BENCH_parallel.trend.jsonl] [--label <sha>] \
      [--max-regression 0.25] [--min-scaling 2.0]
  check_bench_trend.py --report ... --baseline ... --update-baseline
      rewrites the baseline from the observed report, derated by
      --headroom (default 0.30) so run-to-run noise does not gate. It
      refuses (exit 3) a report whose probe is below MIN_PROBE.

Exit codes: 0 ok, 1 regression/malformed input, 2 usage error,
3 inconclusive (the host could not scale, so scaling was not measured).
"""

import argparse
import json
import sys

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


def append_trajectory(path, doc, label):
    line = {
        "bench": doc.get("bench", ""),
        "host_cores": doc.get("host_cores", 0),
        "host_parallel_speedup": doc.get("host_parallel_speedup"),
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


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", required=True,
                        help="bench_parallel_pipeline --dflow_report_json "
                             "output")
    parser.add_argument("--baseline", required=True,
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
    args = parser.parse_args()

    try:
        doc, entries = load_report(args.report)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
        print(f"error: cannot read report: {e}", file=sys.stderr)
        return 1

    if args.trajectory:
        append_trajectory(args.trajectory, doc, args.label)
        print(f"appended run to {args.trajectory}")

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

    if args.update_baseline:
        if not host_scaled:
            print(f"inconclusive: {host_note}; not re-recording the "
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
        floor = b["rows_per_sec"] * (1.0 - args.max_regression)
        if got["rows_per_sec"] < floor:
            drop = 1.0 - got["rows_per_sec"] / b["rows_per_sec"]
            judge(key[1],
                  f"{key[0]}/w={key[1]}: {got['rows_per_sec']:.0f} rows/s is "
                  f"{drop:.0%} below baseline {b['rows_per_sec']:.0f} "
                  f"(allowed {args.max_regression:.0%})")

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
        if ratio < args.min_scaling:
            judge(4,
                  f"{plan}: 1->4 worker scaling {ratio:.2f}x below the "
                  f"{args.min_scaling:.1f}x floor "
                  f"({one['rows_per_sec']:.0f} -> "
                  f"{four['rows_per_sec']:.0f} rows/s)")

    if failures:
        print(f"PERF GATE FAILED ({len(failures)} of {checked} checks):")
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
              f"{len(inconclusive)} of {checked} checks could not be judged:")
        for f_ in inconclusive:
            print(f"  {f_}")
        return EXIT_INCONCLUSIVE
    print(f"perf gate ok: {checked} checks "
          f"(max regression {args.max_regression:.0%}, 1->4 scaling >= "
          f"{args.min_scaling:.1f}x; host probe {probe:.2f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
