#!/usr/bin/env python3
"""Builds and runs the repository's end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--smoke] [--ledger <file.jsonl>]

The first run configures and builds perfbench/ (the library sources under
src/ plus the perfbench program) in Release mode under the build root: the
CARGO_TARGET_DIR environment variable when set, else .bench_build. Later
runs rebuild only what changed.

The program's human-readable lines are passed through; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 1 the per-layer ledger is also written as
JSONL (default: <build root>/ledger/<workload>.jsonl).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ingest_inorder", "ingest_reordered", "survey_batch")
# Each run must finish well inside 180 s; the build of a fresh checkout
# has its own, longer allowance.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build(build_dir):
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail(f"no library sources at {os.path.join(ROOT, 'src')}; run from a full checkout")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        step(configure)
    step(["cmake", "--build", build_dir, "-j", jobs])
    binary = os.path.join(build_dir, "perfbench")
    if not os.path.exists(binary):
        fail(f"build produced no {binary}")
    return binary


def child_env():
    # Compilers and the program keep their temporary files in the build root.
    tmp = os.path.join(build_root(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def step(command):
    # Build output goes to stderr: standard output carries only results.
    done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr, env=child_env())
    if done.returncode != 0:
        fail(f"build step failed: {' '.join(command)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: every check and metric, well under a second")
    parser.add_argument("--ledger", help="where the traced run writes its per-layer ledger")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        fail("--seed and --seconds must be non-negative")

    root = build_root()
    binary = build(os.path.join(root, "perfbench"))
    work_dir = os.path.join(root, "work", f"{args.workload}-{os.getpid()}")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace, "--work-dir", work_dir]
    if args.smoke:
        command.append("--smoke")
    if args.trace == "1":
        ledger = args.ledger or os.path.join(root, "ledger", f"{args.workload}.jsonl")
        os.makedirs(os.path.dirname(os.path.abspath(ledger)), exist_ok=True)
        command += ["--ledger", ledger]

    started = time.monotonic()
    try:
        # subprocess.run kills and reaps the child when the timeout expires.
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, env=child_env())
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = done.stdout.rstrip("\n").splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail(f"perfbench exited with code {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("perfbench's last line is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("perfbench's result has unexpected keys")
    print("\n".join(lines[:-1]))
    print(f"run took {time.monotonic() - started:.2f} s (excluding the build)")
    print(json.dumps(result, separators=(",", ":")), flush=True)


if __name__ == "__main__":
    main()
