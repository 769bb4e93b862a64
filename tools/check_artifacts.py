#!/usr/bin/env python3
"""Schema checks for the JSONL artifacts the benches and binaries write.

One subcommand per record type. Each exits non-zero, naming the file and
the broken assertion, when an artifact does not hold to its schema:

  monitor_accuracy <reorder_monitor.jsonl>
      The differential sweep covers every detector over a budget sweep,
      and on the clean path every cell reports zero false positives and
      zero false negatives: the monitor never invents reordering.

  ingest <file>:<shards> [<file>:<shards> ...]
      Each line_rate artifact carries the full transfer accounting:
      conservation (consumed + dropped == produced) in total and per
      shard, a positive rate, the dispatcher's packing stats and each
      shard's ring counters, whose spin waits and producer and consumer
      sleeps sum to the record's totals. The folded `monitor` and `sequences` records
      of every file are byte-identical to the first file's.

  metrics <dir>
      Every line of every *.jsonl in <dir> is JSON, the benches that
      publish engine snapshots wrote `metrics` records, and each has the
      record's fields.

  service_snapshot <log> --targets N
      Every JSON line of a survey_service run's stdout is a complete
      `service_snapshot` record: at least four, one taken mid-run, and the
      last accounts for all N targets with no failure. Every record is one
      consistent cut: survey_service gives every target the same tests and
      rounds, so each counts `measurements` and `metric_keys` at the last
      record's per-target rate.
"""

import argparse
import glob
import json
import os
import sys

MONITOR_ACCURACY_FIELDS = {
    "scenario", "detector", "budget_bytes", "table_slots", "false_positives",
    "false_negatives", "fp_rate", "fn_rate", "exact_value", "est_value", "abs_error"}
MONITOR_DETECTORS = {"window_sketch", "approx_rate", "bounded_n"}

# The ring's wait counters: in each shard's `ring` object and, summed over
# the shards, in the record's totals.
WAIT_FIELDS = ("spin_waits", "producer_sleeps", "consumer_sleeps")
INGEST_FIELDS = {
    "shards", "backpressure", "arrivals_produced", "arrivals_consumed", "arrivals_dropped",
    "arrivals_per_sec", "dispatcher", "per_shard", *WAIT_FIELDS}
DISPATCHER_FIELDS = {"sub_batches", "fill_hist", "imbalance_ratio"}
SHARD_FIELDS = {"shard", "arrivals_dispatched", "arrivals_consumed", "arrivals_dropped", "ring"}
RING_FIELDS = {"pushed", "popped", "dropped", *WAIT_FIELDS}

METRICS_FIELDS = {"target", "test", "measurements", "admissible", "metrics"}
# Benches that publish MetricEngine snapshots into their artifact.
METRICS_BENCHES = {"fig5_cdf", "fig6_timeseries", "fig7_spacing", "ipid_survey",
                   "pairdiff_table", "related_work_bennett"}

SERVICE_SNAPSHOT_FIELDS = {
    "type", "admitted", "completed", "failed", "in_flight", "measurements", "virtual_end_ns",
    "workers", "jobs_executed", "steals", "steal_attempts", "metric_keys", "degraded"}


class SchemaError(Exception):
    pass


def require(cond, message):
    if not cond:
        raise SchemaError(message)


def require_fields(record, fields, what):
    missing = fields - record.keys()
    require(not missing, f"{what} missing {sorted(missing)}")


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def check_monitor_accuracy(args):
    acc = [r for r in load(args.path) if r.get("type") == "monitor_accuracy"]
    require(acc, f"{args.path}: no monitor_accuracy records")
    for r in acc:
        require_fields(r, MONITOR_ACCURACY_FIELDS, f"{args.path}: monitor_accuracy record")
    scenarios = {r["scenario"] for r in acc}
    detectors = {r["detector"] for r in acc}
    budgets = {r["budget_bytes"] for r in acc}
    require(detectors == MONITOR_DETECTORS, f"{args.path}: detectors {sorted(detectors)}")
    require(len(budgets) >= 3, f"{args.path}: budget sweep too small: {sorted(budgets)}")
    clean = [r for r in acc if r["scenario"] == "clean-path"]
    require(clean, f"{args.path}: clean-path missing from sweep ({sorted(scenarios)})")
    for r in clean:
        require(r["false_positives"] + r["false_negatives"] == 0,
                f"{args.path}: clean path mis-reported: {r}")
    print(f"{args.path}: {len(acc)} accuracy records over {len(scenarios)} scenarios; "
          f"clean path perfect at every budget")


def check_ingest_file(path, shards):
    records = load(path)
    kinds = {r.get("type") for r in records}
    require({"ingest", "monitor", "sequences"} <= kinds, f"{path}: record types {kinds}")
    ingest = next(r for r in records if r["type"] == "ingest")
    require_fields(ingest, INGEST_FIELDS, f"{path}: ingest record")
    require(ingest["shards"] == shards, f"{path}: shards {ingest['shards']} != {shards}")
    produced = ingest["arrivals_produced"]
    consumed = ingest["arrivals_consumed"]
    dropped = ingest["arrivals_dropped"]
    require(produced > 0 and consumed + dropped == produced,
            f"{path}: consumed + dropped != produced: {ingest}")
    require(ingest["arrivals_per_sec"] > 0, f"{path}: no arrival rate: {ingest}")
    disp = ingest["dispatcher"]
    require_fields(disp, DISPATCHER_FIELDS, f"{path}: dispatcher stats")
    require(len(disp["fill_hist"]) == 8, f"{path}: fill_hist is not 8 buckets: {disp}")
    require(sum(disp["fill_hist"]) == disp["sub_batches"],
            f"{path}: fill_hist does not sum to sub_batches: {disp}")
    require(disp["imbalance_ratio"] >= 1.0, f"{path}: imbalance_ratio < 1: {disp}")
    per_shard = ingest["per_shard"]
    require(len(per_shard) == shards,
            f"{path}: expected {shards} per_shard entries, got {len(per_shard)}")
    for s in per_shard:
        require_fields(s, SHARD_FIELDS, f"{path}: per_shard entry")
        require(s["arrivals_consumed"] + s["arrivals_dropped"] == s["arrivals_dispatched"],
                f"{path}: shard conservation broken: {s}")
        require_fields(s["ring"], RING_FIELDS, f"{path}: ring counters")
    require(sum(s["arrivals_dispatched"] for s in per_shard) == produced,
            f"{path}: per-shard dispatched does not sum to produced: {per_shard}")
    require(sum(s["arrivals_consumed"] for s in per_shard) == consumed,
            f"{path}: per-shard consumed does not sum to consumed: {per_shard}")
    for field in WAIT_FIELDS:
        require(sum(s["ring"][field] for s in per_shard) == ingest[field],
                f"{path}: per-shard ring {field} does not sum to the total: {per_shard}")
    print(f"{path}: {consumed} arrivals over {shards} shard(s) at "
          f"{ingest['arrivals_per_sec'] / 1e6:.1f}M/s, {dropped} dropped, "
          f"imbalance {disp['imbalance_ratio']:.3f}")


def raw_records(path):
    """type -> raw line, for byte comparison of the folded records."""
    with open(path) as f:
        return {json.loads(line)["type"]: line.rstrip("\n") for line in f if line.strip()}


def check_ingest(args):
    runs = []
    for spec in args.files:
        path, sep, shards = spec.rpartition(":")
        require(sep and shards.isdigit(), f"expected <file>:<shards>, got {spec!r}")
        check_ingest_file(path, int(shards))
        runs.append(path)
    # Flow pinning means sharding never changes the answer.
    first = raw_records(runs[0])
    for path in runs[1:]:
        other = raw_records(path)
        for kind in ("monitor", "sequences"):
            require(first[kind] == other[kind],
                    f"{kind} record diverged between {runs[0]} and {path}")
    if len(runs) > 1:
        print(f"folded monitor and sequences records byte-identical across {len(runs)} runs")


def check_metrics(args):
    total = 0
    for path in sorted(glob.glob(os.path.join(args.dir, "*.jsonl"))):
        records = load(path)
        name = os.path.basename(path).removesuffix(".jsonl")
        found = [r for r in records if r.get("type") == "metrics"]
        if name in METRICS_BENCHES:
            require(found, f"{path}: expected metrics records, found none")
        for r in found:
            require_fields(r, METRICS_FIELDS, f"{path}: metrics record")
            require(isinstance(r["metrics"], dict), f"{path}: metrics not an object")
        total += len(found)
        print(f"{name}: {len(records)} records, {len(found)} metrics")
    require(total > 0, f"{args.dir}: no metrics records found anywhere")
    print(f"validated {total} metrics records")


def check_service_snapshot(args):
    snaps = []
    with open(args.log) as f:
        for line in f:
            line = line.strip()
            if line.startswith("{"):
                snaps.append(json.loads(line))
    for s in snaps:
        require_fields(s, SERVICE_SNAPSHOT_FIELDS, f"{args.log}: service_snapshot record")
        require(s["type"] == "service_snapshot", f"{args.log}: not a service_snapshot: {s}")
    require(len(snaps) >= 4, f"{args.log}: expected live snapshots, got {len(snaps)}")
    mid = [s for s in snaps if 0 < s["completed"] < args.targets]
    require(mid, f"{args.log}: no snapshot caught the service mid-run")
    final = snaps[-1]
    require(final["completed"] == args.targets and final["failed"] == 0,
            f"{args.log}: final snapshot does not account for {args.targets} targets: {final}")
    require(not final["degraded"], f"{args.log}: final snapshot degraded: {final}")
    # Cross-multiplied, so the per-target rates need no division.
    for s in snaps:
        for field in ("measurements", "metric_keys"):
            require(s[field] * final["completed"] == final[field] * s["completed"],
                    f"{args.log}: {field} {s[field]} at {s['completed']} completed is not "
                    f"the final rate of {final[field]} per {final['completed']} targets: {s}")
    print(f"{len(snaps)} snapshots, {len(mid)} mid-run, each one consistent cut; final: {final}")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="record_type", required=True)

    p = sub.add_parser("monitor_accuracy", help="reorder_monitor's differential sweep")
    p.add_argument("path")
    p.set_defaults(func=check_monitor_accuracy)

    p = sub.add_parser("ingest", help="line_rate artifacts and their byte identity")
    p.add_argument("files", nargs="+", metavar="FILE:SHARDS")
    p.set_defaults(func=check_ingest)

    p = sub.add_parser("metrics", help="metrics records across a directory of artifacts")
    p.add_argument("dir")
    p.set_defaults(func=check_metrics)

    p = sub.add_parser("service_snapshot", help="survey_service live snapshot lines")
    p.add_argument("log")
    p.add_argument("--targets", type=int, required=True, help="targets the run admitted")
    p.set_defaults(func=check_service_snapshot)

    args = parser.parse_args()
    try:
        args.func(args)
    except (SchemaError, KeyError, TypeError, ValueError, OSError) as e:
        print(f"FAIL: {type(e).__name__}: {e}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
