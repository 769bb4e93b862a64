#!/usr/bin/env python3
"""Byte-compare the deterministic outputs of two builds of this repo.

Usage: tools/compare_outputs.py BASE_BUILD HEAD_BUILD

Runs a fixed list of deterministic commands from each build directory:
the nine paper benches, the examples whose output is a pure function of
their flags, and the survey runtimes with a fixed population, JSONL
artifacts and a checkpoint file. line_rate runs too, but only its
`monitor` and `sequences` records are compared: its stdout and its
`ingest` record carry wall-clock rates and spin-wait counts.
micro_bench prints nothing but timings and is left out.

Every command runs in a fresh directory of its own, one tree per side,
with REORDER_BENCH_JSONL_DIR set to the same relative path there, so the
artifact paths a binary prints match across the two sides. Then every
produced file and every command's stdout is compared byte for byte. The
one wall-clock figure in that stdout (survey_service's "(0.01s wall)") is
masked; the service runs on one worker so its narration order is fixed.

Exits 1 on any difference, on a file produced by one side only, or on a
command that exits non-zero on either side, naming each one; exits 0 when
every output matches. A refactor that must not change bytes is checked by
building the merge base and the head (Release) and running this tool.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

# Relative to each command's working directory.
JSONL_DIR = "jsonl"

# Seconds one command may run before it counts as failed.
TIMEOUT_S = 600

SURVEY_POPULATION = ["--targets=24", "--rounds=2", "--samples=10", "--seed=11"]

# (label, binary, arguments). Labels name the per-command directory.
COMMANDS = [
    ("fig5_cdf", "fig5_cdf", []),
    ("fig6_timeseries", "fig6_timeseries", []),
    ("fig7_spacing", "fig7_spacing", []),
    ("ipid_survey", "ipid_survey", []),
    ("pairdiff_table", "pairdiff_table", []),
    ("validation_table", "validation_table", []),
    ("ablation_table", "ablation_table", []),
    ("related_work_bennett", "related_work_bennett", []),
    ("related_work_paxson", "related_work_paxson", []),
    ("quickstart", "quickstart", []),
    ("survey", "survey", []),
    ("time_domain", "time_domain", []),
    ("loadbalancer_demo", "loadbalancer_demo", []),
    ("reorder_monitor", "reorder_monitor", []),
    ("line_rate", "line_rate", ["--repeat=32"]),
    ("measure_host", "measure_host", []),
    ("measure_host_backends4", "measure_host", ["--backends=4"]),
    ("survey_fleet", "survey_fleet", SURVEY_POPULATION + ["--jsonl=fleet.jsonl"]),
    ("survey_service", "survey_service",
     SURVEY_POPULATION + ["--workers=1", "--jsonl=service.jsonl", "--checkpoint=service.ckpt"]),
]

STDOUT_NAME = "<stdout>"
WALL_CLOCK = re.compile(rb"\(\d+\.\d+s wall\)")


def line_rate_records(outputs: dict) -> dict:
    """line_rate's files cut to their `monitor` and `sequences` records."""
    return {name: b"".join(line for line in data.splitlines(keepends=True)
                           if json.loads(line)["type"] in ("monitor", "sequences"))
            for name, data in outputs.items() if name != STDOUT_NAME}


def run_side(build: Path, root: Path) -> dict:
    """Runs every command from `build` under `root`.

    Returns {label: (exit status, {relative path: bytes})}, stdout included
    as STDOUT_NAME.
    """
    results = {}
    for label, binary, args in COMMANDS:
        cwd = root / label
        (cwd / JSONL_DIR).mkdir(parents=True)
        env = dict(os.environ, REORDER_BENCH_JSONL_DIR=JSONL_DIR)
        try:
            proc = subprocess.run([str(build / binary)] + args, cwd=cwd, env=env,
                                  stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                  timeout=TIMEOUT_S, check=False)
            status, stdout = proc.returncode, proc.stdout
        except (OSError, subprocess.TimeoutExpired) as err:
            status, stdout = f"did not run ({err})", b""
        outputs = {STDOUT_NAME: WALL_CLOCK.sub(b"(<wall>)", stdout)}
        for path in sorted(cwd.rglob("*")):
            if path.is_file():
                outputs[str(path.relative_to(cwd))] = path.read_bytes()
        if binary == "line_rate":
            outputs = line_rate_records(outputs)
        results[label] = (status, outputs)
    return results


def compare(base: dict, head: dict) -> list:
    """Every difference between two sides' results, one line each."""
    problems = []
    for label, _, _ in COMMANDS:
        base_status, base_out = base[label]
        head_status, head_out = head[label]
        if base_status != 0 or head_status != 0:
            problems.append(f"{label}: exit status base={base_status} head={head_status}")
        for name in sorted(set(base_out) | set(head_out)):
            if name not in head_out:
                problems.append(f"{label}/{name}: only in base")
            elif name not in base_out:
                problems.append(f"{label}/{name}: only in head")
            elif base_out[name] != head_out[name]:
                problems.append(f"{label}/{name}: differs")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_build", type=Path, help="build directory of the base")
    parser.add_argument("head_build", type=Path, help="build directory of the head")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        base = run_side(args.base_build.resolve(), Path(tmp) / "base")
        head = run_side(args.head_build.resolve(), Path(tmp) / "head")
    problems = compare(base, head)
    files = sum(len(outputs) for _, outputs in head.values())
    if problems:
        for line in problems:
            print(line)
        print(f"FAIL: {len(problems)} difference(s) over {len(COMMANDS)} commands")
        return 1
    print(f"OK: {len(COMMANDS)} commands, {files} outputs byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
