#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload fleet-mmap --seed 1 --seconds 25 --trace 0

Workloads: fleet-mmap, fleet-churn, edge-openloop (BENCHMARK.json says why
each exists). The first run configures and builds libvcdn plus the benchmark in
Release mode under $CARGO_TARGET_DIR (default .bench_build); later runs only
rebuild what changed. Build output goes to stderr. The benchmark's report goes
to stdout, and its last line is the result JSON, which this script checks
against the metric names in BENCHMARK.json before passing it on. Any build
failure, crash, timeout or contract mismatch exits non-zero without a
result line.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fleet-mmap", "fleet-churn", "edge-openloop")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_root):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("library sources (src/) not found next to perfbench/; nothing to build")
    build_dir = build_root / "perfbench"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "vcdn_perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return build_dir / "vcdn_perfbench"


def expected_metrics(trace):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 3600:
        fail("--seed must be >= 0 and --seconds in (0, 3600]")

    build_root = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = pathlib.Path.cwd() / build_root
    binary = build(build_root)
    workdir = build_root / "work"
    workdir.mkdir(parents=True, exist_ok=True)

    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--workdir", str(workdir)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired as expired:
        if expired.stdout:
            out = expired.stdout
            sys.stdout.write(out if isinstance(out, str) else out.decode(errors="replace"))
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    body, last = lines[:-1], lines[-1] if lines else ""
    sys.stdout.write("\n".join(body) + ("\n" if body else ""))
    sys.stdout.flush()

    try:
        result = json.loads(last)
    except ValueError:
        fail(f"benchmark exited with code {done.returncode} without a result line")
    expected = expected_metrics(args.trace == 1)
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        fail(f"metrics do not match BENCHMARK.json (missing {missing}, unexpected {extra}, "
             f"or a unit differs)")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result line has unexpected keys")
    print(last)
    sys.stdout.flush()
    sys.exit(0 if done.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
