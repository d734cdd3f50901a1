#!/usr/bin/env python3
"""Latency attribution report for bench runs.

Every run entry of a BENCH_<name>.json carries a "registry" dump, and with
it the host-side breakdown (the Figure 18a terms) the engine records once
per committed transaction:

  engine.breakdown.lock_wait_ns       lock manager round trips + queueing
  engine.breakdown.remote_access_ns   node<->node data round trips
  engine.breakdown.switch_access_ns   node<->switch round trip incl. pipeline
  engine.breakdown.local_work_ns      setup + tuple ops + WAL
  engine.breakdown.commit_ns          2PC rounds / local commit
  engine.breakdown.backoff_ns         abort penalty + retry backoff

For every run entry the doctor prints each term as mean ns per committed
transaction and as a share of their sum. A dump without these keys is
rejected (exit 1): it predates the single metric sink.

A BENCH_<name>.json produced with --int additionally has, in every
RunWorkload entry, a "critical_path" section: per-term histogram summaries
folded from returned INT postcards plus the host-recorded admission/WAL/
commit terms. For those the doctor prints, per load level, where a
transaction's latency actually went — the dominant term and the share of
total attributed time each term holds.

Attribution terms, end to end (see DESIGN.md section 4j):
  admission_wait_ns   client arrival -> session dispatch (open-loop only)
  egress_batch_ns     submit -> egress batch flush (0 unbatched)
  wire_ns             flush -> switch ingress + switch egress -> receipt
  switch_queue_ns     ingress -> admission, minus lock-blocked loops
  switch_lock_wait_ns lock-blocked recirculation (contention)
  switch_recirc_ns    holder-cycling recirculation (multi-pass structure)
  switch_service_ns   admitted residency minus holder loops
  wal_ns, commit_ns   host-side durability / commit bookkeeping

With --validate the report becomes a gate on the open-loop knee experiment:
below and at the knee (largest offered load still served at >= 95%) the
dominant term must be a service-side one (wire / switch service / switch
queue / egress batch / lock wait); strictly above the knee the admission
queue must take over (dominant == admission_wait_ns). That shift IS the
knee — if saturation does not move attribution onto the admission queue,
either the telemetry or the admission model is broken. Exit 1 on violation.

With --trace TRACE.json the doctor also cross-checks a Chrome trace from
the same run: INT runs must carry switch_residency complete spans and
int_postcard instants (names are validated by trace_check.py; here only
their presence is required).

Usage:
  latency_doctor.py BENCH_openloop.json [--validate] [--trace TRACE.json]
"""

import argparse
import json
import sys

BREAKDOWN_TERMS = ("lock_wait", "remote_access", "switch_access",
                   "local_work", "commit", "backoff")
BREAKDOWN_KEYS = [f"engine.breakdown.{t}_ns" for t in BREAKDOWN_TERMS]
KNEE_RATIO = 0.95
ADMISSION_TERM = "admission_wait_ns"
SERVICE_TERMS = (
    "egress_batch_ns",
    "wire_ns",
    "switch_queue_ns",
    "switch_lock_wait_ns",
    "switch_recirc_ns",
    "switch_service_ns",
)


def run_label(run):
    """Short identity of a run entry: its scenario, or mode/workload/load."""
    if "scenario" in run:
        return str(run["scenario"])
    parts = [str(run[k]) for k in ("mode", "cc", "workload") if k in run]
    if "offered_load" in run:
        parts.append(f"offered={run['offered_load']:.0f}")
    if "batch" in run:
        parts.append(f"batch={run['batch']}")
    return " ".join(parts) or "?"


def report_breakdown(doc, path):
    """Host-side breakdown per run entry; returns the rejection messages."""
    runs = doc.get("runs", []) if isinstance(doc, dict) else []
    runs = [r for r in runs if isinstance(r, dict) and "registry" in r]
    if not runs:
        return [f"{path}: no run entry carries a \"registry\" dump"]
    errors = []
    print("host-side latency breakdown (mean ns per committed txn, "
          "share of the breakdown sum):")
    print(f"  {'run':<40} {'committed':>10} " +
          " ".join(f"{t:>20}" for t in BREAKDOWN_TERMS))
    for run in runs:
        registry = run["registry"]
        counters = (registry.get("counters")
                    if isinstance(registry, dict) else None)
        if not isinstance(counters, dict):
            counters = {}
        missing = [k for k in BREAKDOWN_KEYS + ["engine.committed"]
                   if not isinstance(counters.get(k), int)]
        if missing:
            errors.append(f"{run_label(run)}: registry lacks "
                          f"{', '.join(missing)}")
            continue
        committed = counters["engine.committed"]
        sums = [counters[k] for k in BREAKDOWN_KEYS]
        total = sum(sums)
        cells = []
        for s in sums:
            mean = s / committed if committed else 0.0
            share = 100.0 * s / total if total else 0.0
            cells.append(f"{mean:>12.0f} ({share:>4.1f}%)")
        print(f"  {run_label(run):<40} {committed:>10} " + " ".join(cells))
    return errors


def load_points(doc):
    """Ladder entries (offered_load + critical_path), grouped by batch size."""
    series = {}
    for run in doc.get("runs", []):
        if not isinstance(run, dict) or "scenario" in run:
            continue  # summary entries are not load points
        if "offered_load" not in run or "critical_path" not in run:
            continue
        series.setdefault(run.get("batch", 1), []).append(run)
    for points in series.values():
        points.sort(key=lambda r: r["offered_load"])
    return series


def knee_index(points):
    """Largest rung still served at >= KNEE_RATIO of the offered rate."""
    knee = 0
    for i, p in enumerate(points):
        if p["throughput"] >= KNEE_RATIO * p["offered_load"]:
            knee = i
    return knee


def term_sums(cp):
    return {name: t.get("sum", 0) for name, t in cp.get("terms", {}).items()}


def report_series(batch, points, failures, validate):
    knee = knee_index(points)
    print(f"series batch={batch}: knee at offered "
          f"{points[knee]['offered_load']:.0f} tx/s "
          f"(rung {knee + 1}/{len(points)})")
    print(f"  {'offered':>12} {'served%':>8} {'postcards':>10} "
          f"{'dominant':<20} top terms by share")
    for i, p in enumerate(points):
        cp = p["critical_path"]
        sums = term_sums(cp)
        total = sum(sums.values())
        top = sorted(sums.items(), key=lambda kv: -kv[1])[:3]
        shares = ", ".join(
            f"{name} {100.0 * s / total:.0f}%" for name, s in top if total > 0)
        served = 100.0 * p["throughput"] / p["offered_load"]
        marker = "knee" if i == knee else ("sat" if i > knee else "")
        print(f"  {p['offered_load']:>12.0f} {served:>7.1f}% "
              f"{cp.get('postcards', 0):>10} {cp.get('dominant', '?'):<20} "
              f"{shares}  {marker}")
        if not validate:
            continue
        dominant = cp.get("dominant", "")
        if cp.get("postcards", 0) == 0:
            failures.append(
                f"batch={batch} offered={p['offered_load']:.0f}: "
                f"no postcards folded (INT not armed?)")
        elif i > knee and dominant != ADMISSION_TERM:
            failures.append(
                f"batch={batch} offered={p['offered_load']:.0f}: saturated "
                f"rung dominated by {dominant}, expected {ADMISSION_TERM}")
        elif i <= knee and dominant == ADMISSION_TERM:
            failures.append(
                f"batch={batch} offered={p['offered_load']:.0f}: served rung "
                f"dominated by {ADMISSION_TERM} — knee attribution shifted "
                f"too early")
    if validate and knee == len(points) - 1:
        print(f"  note: batch={batch} never saturates on this ladder — "
              f"no admission-takeover rung to check")
    return knee


def check_trace(path, failures):
    with open(path) as f:
        doc = json.load(f)
    events = doc.get("traceEvents", [])
    residency = sum(1 for e in events
                    if isinstance(e, dict)
                    and e.get("name") == "switch_residency"
                    and e.get("ph") == "X")
    postcards = sum(1 for e in events
                    if isinstance(e, dict)
                    and e.get("name") == "int_postcard"
                    and e.get("ph") == "i")
    print(f"trace: {residency} switch_residency spans, "
          f"{postcards} int_postcard instants")
    if residency == 0:
        failures.append("trace has no switch_residency spans")
    if postcards == 0:
        failures.append("trace has no int_postcard instants")


def main():
    parser = argparse.ArgumentParser(
        description="host-side breakdown and INT critical-path latency "
        "attribution report")
    parser.add_argument("bench_json", help="BENCH_<name>.json (from an "
                        "--int run for the critical-path report)")
    parser.add_argument("--validate", action="store_true",
                        help="gate the knee attribution shift; exit 1 on "
                        "violation")
    parser.add_argument("--trace", help="Chrome trace JSON from the same "
                        "run, cross-checked for INT records")
    args = parser.parse_args()

    try:
        with open(args.bench_json) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"latency_doctor: cannot read {args.bench_json}: {e}")
        return 1
    errors = report_breakdown(doc, args.bench_json)
    if errors:
        print(f"\nlatency_doctor: {args.bench_json} is missing the host-side "
              f"breakdown keys (engine.breakdown.*_ns, engine.committed):")
        for e in errors:
            print(f"  - {e}")
        return 1
    print()

    series = load_points(doc)
    if not series:
        print(f"{args.bench_json}: no load points with a critical_path "
              f"section — run the bench with --int and an open-loop ladder "
              f"for the INT critical-path report")
        return 1 if args.validate else 0

    failures = []
    saturates = False
    for batch in sorted(series):
        knee = report_series(batch, series[batch], failures, args.validate)
        saturates = saturates or knee < len(series[batch]) - 1
    if args.validate and not saturates:
        failures.append("no series saturates — the admission-takeover shift "
                        "was never exercised")
    if args.trace:
        check_trace(args.trace, failures)

    if failures:
        print(f"\nlatency_doctor: {len(failures)} violation(s):")
        for f in failures:
            print(f"  - {f}")
        return 1
    if args.validate:
        print("\nlatency_doctor: attribution shifts service -> admission "
              "at the knee, as it must")
    return 0


if __name__ == "__main__":
    sys.exit(main())
