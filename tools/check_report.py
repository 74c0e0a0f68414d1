#!/usr/bin/env python3
"""CI regression gate over the bench --dflow_report_json artifacts.

Compares selected counters of a "dflow.bench_report.v1" document against a
committed expectation file (bench/expectations/<name>.json) and fails on
drift beyond a per-counter relative tolerance. The compared counters are
deterministic simulation outputs (bytes moved, rows, retransmit counts), so
the default tolerance exists only to absorb intentional small model
changes; wall-clock noise never enters these numbers.

Usage:
  check_report.py --report out/fig6.json --expected bench/expectations/fig6.json
  check_report.py --report out/fig6.json --expected ... --update
      rewrites the expectation file from the observed report (then commit
      the diff deliberately).

Expectation file format:
  {
    "bench": "bench_fig6_full_pipeline",
    "tolerance": 0.05,                   # optional, default 0.05
    "entries": {
      "<entry name>": {"<dotted.counter.path>": <expected integer>, ...},
      ...
    }
  }

Exit codes: 0 ok, 1 drift or malformed input, 2 usage error.
"""

import argparse
import json
import sys

# Counters captured by --update; a deliberately small, movement-centric set
# (the paper's headline metrics) so expectations stay reviewable. The
# verify.* pair pins the static verifier's findings: errors must stay zero
# (also enforced unconditionally below) and new warnings fail the gate.
DEFAULT_COUNTERS = [
    "sim_ns",
    "result_rows",
    "media_bytes",
    "network_bytes",
    "peak_queue_bytes",
    "fault.retransmits",
    "fault.checksum_failures",
    "verify.errors",
    "verify.warnings",
]

# Additional counters captured when the entry carries a "service" section
# (serving benches). These pin the serving-layer behaviour: how much load
# was admitted vs shed, whether anything failed, and the virtual-time tail
# latency. All integers, fully deterministic for a fixed --dflow_seed.
SERVICE_COUNTERS = [
    "service.arrivals_total",
    "service.admitted_total",
    "service.shed_total",
    "service.completed_total",
    "service.failed_total",
    "service.degraded_total",
    "service.peak_in_flight",
    "service.p99_ns",
    # Query-lifecycle counters (PR 6): distinct terminal outcomes plus the
    # retry / breaker / brownout machinery that produced them. Captured
    # only when present so pre-lifecycle reports stay checkable.
    "service.lifecycle.deadline_missed_total",
    "service.lifecycle.cancelled_total",
    "service.lifecycle.retries_total",
    "service.lifecycle.retry_exhausted_total",
    "service.lifecycle.shed_brownout_total",
    "service.lifecycle.breaker_transitions",
    "service.lifecycle.breaker_probes",
    "service.lifecycle.brownout_escalations",
    "service.lifecycle.brownout_peak_level",
    # Program-cache admission counters (PR 9): compile-once serving. Also
    # captured only when present.
    "service.cache.hits",
    "service.cache.misses",
    "service.cache.evictions",
    "service.cache.recompiles",
    "service.cache.invalidations",
]

# Additional counters captured when the entry carries a "cluster" section
# (scale-out benches, PR 10): per-cluster admitted/shed/completed totals,
# exchange traffic over the inter-node links (bytes, frames, retransmits,
# credit stalls), straggler events, and node losses. All integers, fully
# deterministic for a fixed --dflow_seed. Per-node admitted/shed are pinned
# through the per_node.* paths captured dynamically below.
CLUSTER_COUNTERS = [
    "cluster.num_nodes",
    "cluster.arrivals_total",
    "cluster.admitted_total",
    "cluster.shed_total",
    "cluster.completed_total",
    "cluster.failed_total",
    "cluster.straggler_events",
    "cluster.node_losses",
    "cluster.exchange.bytes",
    "cluster.exchange.frames",
    "cluster.exchange.retransmits",
    "cluster.exchange.frames_lost",
    "cluster.exchange.credit_stall_ns",
]

# Per-node counters pinned for every node present in the report's cluster
# section ("cluster.per_node.node0.admitted", ...).
CLUSTER_PER_NODE_COUNTERS = ["admitted", "shed", "completed", "failed"]


def lookup(obj, dotted):
    for key in dotted.split("."):
        if not isinstance(obj, dict) or key not in obj:
            return None
        obj = obj[key]
    return obj


def load_report_entries(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "dflow.bench_report.v1":
        raise ValueError(f"{path}: unexpected schema {doc.get('schema')!r}")
    entries = {}
    for e in doc.get("entries", []):
        report = e["report"]
        # Fold an entry's service/cluster sections into the report dict so
        # dotted expectation paths like "service.shed_total" and
        # "cluster.exchange.bytes" resolve uniformly.
        if "service" in e:
            report = dict(report, service=e["service"])
        if "cluster" in e:
            report = dict(report, cluster=e["cluster"])
        entries[e["name"]] = report
    return doc.get("bench", ""), entries


def update_expectations(bench, entries, expected_path, tolerance):
    out = {"bench": bench, "tolerance": tolerance, "entries": {}}
    for name in sorted(entries):
        counters = {}
        paths = list(DEFAULT_COUNTERS)
        if "service" in entries[name]:
            paths += SERVICE_COUNTERS
        if "cluster" in entries[name]:
            paths += CLUSTER_COUNTERS
            per_node = entries[name]["cluster"].get("per_node", {})
            for node in sorted(per_node):
                paths += [f"cluster.per_node.{node}.{c}"
                          for c in CLUSTER_PER_NODE_COUNTERS]
        for path in paths:
            value = lookup(entries[name], path)
            if value is not None:
                counters[path] = value
        out["entries"][name] = counters
    with open(expected_path, "w") as f:
        json.dump(out, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {expected_path} ({len(out['entries'])} entries)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", required=True,
                        help="bench --dflow_report_json output")
    parser.add_argument("--expected", required=True,
                        help="expectation file (bench/expectations/*.json)")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="override the file's relative tolerance")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the expectation file from the report")
    args = parser.parse_args()

    try:
        bench, entries = load_report_entries(args.report)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
        print(f"error: cannot read report: {e}", file=sys.stderr)
        return 1

    if args.update:
        update_expectations(bench, entries, args.expected,
                            args.tolerance if args.tolerance is not None
                            else 0.05)
        return 0

    try:
        with open(args.expected) as f:
            expected = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read expectations: {e}", file=sys.stderr)
        return 1

    tolerance = (args.tolerance if args.tolerance is not None
                 else expected.get("tolerance", 0.05))
    failures = []
    checked = 0

    # Static-verifier gate, independent of the expectation file: a verifier
    # error in ANY reported entry means a bench ran (or warn-mode-ran) a
    # broken plan — that is never tolerable drift.
    for name, report in sorted(entries.items()):
        errors = lookup(report, "verify.errors")
        checked += 1
        if errors is not None and errors > 0:
            failures.append(
                f"{name}: verify.errors = {errors}; the static verifier "
                f"rejected this plan (see the report's verify.issues)")

    for name, counters in sorted(expected.get("entries", {}).items()):
        report = entries.get(name)
        if report is None:
            failures.append(f"entry {name!r}: missing from report")
            continue
        # A report that silently dropped a whole section the expectations
        # pin (e.g. the bench stopped emitting its "cluster" member) is a
        # structural regression, called out as such rather than as N
        # per-counter misses.
        for section in ("service", "cluster"):
            if (section not in report
                    and any(p.startswith(section + ".") for p in counters)):
                failures.append(
                    f"{name}: report is missing its whole {section!r} "
                    f"section but the expectations pin {section}.* counters")
        for path, want in sorted(counters.items()):
            got = lookup(report, path)
            checked += 1
            if got is None:
                failures.append(f"{name}: {path}: missing (want {want})")
                continue
            limit = abs(want) * tolerance
            if abs(got - want) > limit:
                drift = (got - want) / want * 100.0 if want else float("inf")
                failures.append(
                    f"{name}: {path}: got {got}, want {want} "
                    f"(drift {drift:+.1f}% > {tolerance:.0%})")

    if failures:
        print(f"REGRESSION GATE FAILED for {bench} "
              f"({len(failures)} of {checked} checks):")
        for f_ in failures:
            print(f"  {f_}")
        print("If the change is intentional, regenerate with "
              "tools/check_report.py --update and commit the diff.")
        return 1
    print(f"regression gate ok: {bench}, {checked} counters within "
          f"{tolerance:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
