#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny input sizes.

Run from the root of a checkout:

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json untraced and traced with --smoke.
Each run must exit 0, pass its output checks, report exactly the metric
names and units BENCHMARK.json declares for its mode, and, once built,
take well under a second. Every per-layer metric must be described in
perfbench/layers.json. Exits non-zero listing every failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_LIMIT_S = 1.0


def run(workload, trace):
    """One smoke run: (result, seconds the program took, error or None)."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", trace, "--smoke"],
        cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        return None, None, f"exit {done.returncode}: {done.stderr.strip()[-500:]}"
    lines = done.stdout.strip().splitlines()
    took = next((float(line.split()[2]) for line in lines if line.startswith("run took ")), None)
    return json.loads(lines[-1]), took, None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        described = set(json.load(f)["layers"])
    want = {"0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
            "1": {m["name"]: m["unit"] for m in bench["per_layer"]}}
    failures = [f"layers.json does not describe {name}"
                for name in sorted(set(want["1"]) - described)]
    workloads = [w["name"] for w in bench["workloads"]]
    run(workloads[0], "0")  # the first run builds; the timed runs follow
    for workload in workloads:
        for trace in ("0", "1"):
            where = f"{workload} --trace {trace}"
            result, took, error = run(workload, trace)
            if error:
                failures.append(f"{where}: {error}")
                continue
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                failures.append(f"{where}: output checks failed")
            if got != want[trace]:
                failures.append(f"{where}: metrics differ from BENCHMARK.json: {sorted(got.items())}")
            if took is None or took >= RUN_LIMIT_S:
                failures.append(f"{where}: took {took} s")
            print(f"{where}: {len(got)} metrics, {took} s")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
