#!/usr/bin/env python3
"""Perf-regression gates over google-benchmark JSON output.

Two subcommands:

  paired --base B1.json [B2.json ...] --head H1.json [H2.json ...]
      Gates every row on the code, not on the host. Bi and Hi are one
      pair: micro_bench built at the merge base and at the head, run back
      to back on the same machine (CI alternates which side runs first).
      For each row on both sides it takes every pair's head/base ratio of
      the row's median time (real_time for a ``/real_time`` row, whose
      work runs on other threads; cpu_time for every other row) and fails
      the row when the median of those ratios is above 1.25. A row on one
      side only (new, renamed or removed) is reported, not gated.

  ratio <gbench.json>... <numerator> <denominator> --field F --min M
      Divides the numerator benchmark's median ``F`` (real_time, cpu_time,
      items_per_second, ...) by the denominator's, both over the same runs
      of one build, prints the ratio and exits non-zero when it is below
      ``M``. ``--min 0`` prints a ratio without gating it.
"""

import argparse
import json
import statistics
import sys

_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

# The largest passing median head/base ratio of a row.
MAX_RATIO = 1.25


def _load_medians(paths, field):
    """name -> median ``field`` over google-benchmark JSON files.

    Times (``*_time``) are converted to ns; other fields are read as they
    are. Prefers explicit ``_median`` aggregates (present with
    --benchmark_repetitions); otherwise takes the median over the plain
    iteration runs of each benchmark name in all the files.
    """
    aggregates = {}
    runs = {}
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        for b in doc.get("benchmarks", []):
            if field not in b:
                continue
            scale = _UNIT_NS[b.get("time_unit", "ns")] if field.endswith("_time") else 1.0
            value = float(b[field]) * scale
            if b.get("run_type") == "aggregate":
                if b.get("aggregate_name") == "median":
                    aggregates.setdefault(b["run_name"], []).append(value)
            else:
                runs.setdefault(b["name"], []).append(value)
    return {name: statistics.median(values) for name, values in (aggregates or runs).items()}


def _row_times(path):
    """name -> the time a row is gated on: real_time for /real_time rows."""
    cpu = _load_medians([path], "cpu_time")
    real = _load_medians([path], "real_time")
    return {name: real[name] if name.endswith("/real_time") else t for name, t in cpu.items()}


def cmd_paired(args):
    if len(args.base) != len(args.head):
        print(f"FAIL: {len(args.base)} base runs but {len(args.head)} head runs",
              file=sys.stderr)
        return 1
    pairs = [(_row_times(b), _row_times(h)) for b, h in zip(args.base, args.head)]
    names = sorted(set().union(*(set(b) | set(h) for b, h in pairs)))

    failures = []
    print(f"{'benchmark':<46} {'head/base per pair: q25':>23} {'median':>7} {'q75':>5}")
    for name in names:
        ratios = sorted(h[name] / b[name] for b, h in pairs if name in b and name in h)
        if len(ratios) < len(pairs):
            print(f"{name:<46} (not on both sides of every pair; not gated)")
            continue
        median = statistics.median(ratios)
        flag = ""
        if median > MAX_RATIO:
            flag = "  << REGRESSION"
            failures.append((name, median))
        q25, q75 = ratios[len(ratios) // 4], ratios[3 * len(ratios) // 4]
        print(f"{name:<46} {q25:23.2f} {median:6.2f}x {q75:5.2f}{flag}")

    if failures:
        worst = max(failures, key=lambda f: f[1])
        print(f"\nFAIL: {len(failures)} row(s) slower than {MAX_RATIO}x the merge base "
              f"(worst: {worst[0]} at {worst[1]:.2f}x)", file=sys.stderr)
        return 1
    print(f"\nOK: no row slower than {MAX_RATIO}x the merge base "
          f"(median of {len(pairs)} pairs)")
    return 0


def cmd_ratio(args):
    medians = _load_medians(args.gbench_json, args.field)
    missing = [n for n in (args.numerator, args.denominator) if n not in medians]
    if missing:
        print(f"FAIL: no {args.field} for {', '.join(missing)}", file=sys.stderr)
        return 1
    num, den = medians[args.numerator], medians[args.denominator]
    ratio = num / den if den > 0 else float("inf")
    print(f"{args.numerator} / {args.denominator} ({args.field}): "
          f"{num:.4g} / {den:.4g} = {ratio:.2f}x")
    if ratio < args.min:
        print(f"FAIL: {ratio:.2f}x < {args.min}x", file=sys.stderr)
        return 1
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_paired = sub.add_parser("paired", help="fail on a row slower than the merge base")
    p_paired.add_argument("--base", nargs="+", required=True,
                          help="gbench JSON of each pair's merge-base run, in pair order")
    p_paired.add_argument("--head", nargs="+", required=True,
                          help="gbench JSON of each pair's head run, in pair order")
    p_paired.set_defaults(func=cmd_paired)

    p_ratio = sub.add_parser("ratio", help="fail when a within-run median ratio is too low")
    p_ratio.add_argument("gbench_json", nargs="+",
                         help="one run, or several runs of one build whose medians pool")
    p_ratio.add_argument("numerator")
    p_ratio.add_argument("denominator")
    p_ratio.add_argument("--field", required=True,
                         help="benchmark field to compare (real_time, cpu_time, "
                              "items_per_second, ...)")
    p_ratio.add_argument("--min", type=float, required=True,
                         help="smallest passing numerator/denominator ratio")
    p_ratio.set_defaults(func=cmd_ratio)

    args = parser.parse_args()
    sys.exit(args.func(args))


if __name__ == "__main__":
    main()
