#!/usr/bin/env python3
"""Perf-regression gate over google-benchmark JSON output.

Three subcommands:

  baseline <gbench.json> -o BENCH_baseline.json
      Extracts per-benchmark medians (cpu_time, ns) from a google-benchmark
      ``--benchmark_out`` JSON file into the small, stable baseline format
      checked into the repo:
          {"time_unit": "ns", "benchmarks": {"BM_Foo/1000": 123.4, ...}}

  check <BENCH_baseline.json> <gbench.json> [--max-regression 0.25]
                                            [--calibrate BM_A --calibrate BM_B]
      Compares the current run's medians against the baseline and exits
      non-zero if any benchmark present in both is more than
      ``max_regression`` slower (1.25x by default). Benchmarks missing from
      either side are reported but do not fail the gate (renames should not
      brick CI); improvements are reported for the log.

      --calibrate names benchmarks whose implementation is frozen (the
      retained reference-scheduler benches are ideal): the geometric mean
      of their current/baseline ratios becomes a machine-speed scale that
      divides every other benchmark's ratio before gating. This makes the
      gate meaningful when the baseline was captured on different hardware
      than the run being checked (a checked-in baseline vs a CI runner) —
      it then gates performance *relative to the frozen reference on the
      same machine*, which is what a real regression changes. Calibration
      benches themselves are reported but not gated.

  ratio <gbench.json> <numerator> <denominator> --field F --min M
      Divides the numerator benchmark's median ``F`` (real_time, cpu_time,
      items_per_second, ...) by the denominator's, both from the same run,
      prints the ratio and exits non-zero when it is below ``M``. A
      within-run ratio needs no cross-machine calibration; ``--min 0``
      prints a ratio without gating it.

The gate intentionally tracks only benchmarks listed in the baseline, which
is curated to the stable scheduling / codec / end-to-end set.
"""

import argparse
import json
import sys

_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def _load_medians(path, field="cpu_time"):
    """name -> median ``field`` from a google-benchmark JSON file.

    Times (``*_time``) are converted to ns; other fields are read as they
    are. Prefers explicit ``_median`` aggregates (present with
    --benchmark_repetitions); otherwise computes the median over the plain
    iteration runs of each benchmark name.
    """
    with open(path) as f:
        doc = json.load(f)
    aggregates = {}
    runs = {}
    for b in doc.get("benchmarks", []):
        if field not in b:
            continue
        scale = _UNIT_NS[b.get("time_unit", "ns")] if field.endswith("_time") else 1.0
        value = float(b[field]) * scale
        if b.get("run_type") == "aggregate":
            if b.get("aggregate_name") == "median":
                aggregates[b["run_name"]] = value
        else:
            runs.setdefault(b["name"], []).append(value)
    if aggregates:
        return aggregates
    out = {}
    for name, samples in runs.items():
        samples.sort()
        n = len(samples)
        mid = samples[n // 2] if n % 2 else 0.5 * (samples[n // 2 - 1] + samples[n // 2])
        out[name] = mid
    return out


def cmd_baseline(args):
    medians = _load_medians(args.gbench_json)
    if not medians:
        print("no benchmark entries found", file=sys.stderr)
        return 1
    doc = {"time_unit": "ns", "benchmarks": {k: round(v, 2) for k, v in sorted(medians.items())}}
    with open(args.output, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(f"wrote {args.output} with {len(medians)} benchmarks")
    return 0


def cmd_check(args):
    with open(args.baseline) as f:
        baseline = json.load(f)["benchmarks"]
    current = _load_medians(args.gbench_json)

    scale = 1.0
    calibrators = [c for c in (args.calibrate or []) if c in baseline and c in current]
    if calibrators:
        import math
        log_sum = sum(math.log(current[c] / baseline[c]) for c in calibrators)
        scale = math.exp(log_sum / len(calibrators))
        print(f"machine-speed scale from {len(calibrators)} calibration bench(es): {scale:.3f}x")
    elif args.calibrate:
        print("warning: no calibration benchmark present in both files; scale=1.0",
              file=sys.stderr)

    failures = []
    print(f"{'benchmark':<44} {'baseline':>12} {'current':>12} {'ratio':>7}")
    for name, base_ns in sorted(baseline.items()):
        cur_ns = current.get(name)
        if cur_ns is None:
            print(f"{name:<44} {base_ns:>12.1f} {'missing':>12} {'-':>7}")
            continue
        ratio = cur_ns / (base_ns * scale) if base_ns > 0 else float("inf")
        if name in calibrators:
            print(f"{name:<44} {base_ns:>12.1f} {cur_ns:>12.1f} {ratio:>6.2f}x  (calibration)")
            continue
        flag = ""
        if ratio > 1.0 + args.max_regression:
            flag = "  << REGRESSION"
            failures.append((name, ratio))
        print(f"{name:<44} {base_ns:>12.1f} {cur_ns:>12.1f} {ratio:>6.2f}x{flag}")
    extra = sorted(set(current) - set(baseline))
    if extra:
        print(f"(not gated: {', '.join(extra)})")

    if failures:
        worst = max(failures, key=lambda f: f[1])
        print(
            f"\nFAIL: {len(failures)} benchmark(s) regressed more than "
            f"{args.max_regression:.0%} (worst: {worst[0]} at {worst[1]:.2f}x)",
            file=sys.stderr,
        )
        return 1
    print(f"\nOK: no benchmark regressed more than {args.max_regression:.0%}")
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

    p_base = sub.add_parser("baseline", help="write a baseline file from a gbench JSON")
    p_base.add_argument("gbench_json")
    p_base.add_argument("-o", "--output", required=True)
    p_base.set_defaults(func=cmd_baseline)

    p_check = sub.add_parser("check", help="fail on regression vs a baseline file")
    p_check.add_argument("baseline")
    p_check.add_argument("gbench_json")
    p_check.add_argument("--max-regression", type=float, default=0.25,
                         help="allowed slowdown fraction (default 0.25 = 25%%)")
    p_check.add_argument("--calibrate", action="append", default=[],
                         help="frozen benchmark whose ratio calibrates machine speed "
                              "(repeatable; excluded from gating)")
    p_check.set_defaults(func=cmd_check)

    p_ratio = sub.add_parser("ratio", help="fail when a within-run median ratio is too low")
    p_ratio.add_argument("gbench_json")
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
