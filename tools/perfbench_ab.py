#!/usr/bin/env python3
"""Same-runner A/B gate over the repository benchmark.

Usage:

    python3 tools/perfbench_ab.py BASE [CHANGE]

BASE and CHANGE are git revisions of this checkout; CHANGE defaults to HEAD.
Each is exported with `git archive` into perfbench_ab/<side>/src and built
and run by its own perfbench/run.py, with
CARGO_TARGET_DIR=perfbench_ab/<side>/build. The workloads, bounds and run
length come from BASE's BENCHMARK.json, so a change cannot loosen its own
gate. The script runs PAIRS pairs of every workload, each run run_seconds
long. Pair k runs seed k on both sides, so the first pair is seed 1 and its
runs check the committed perfbench digests. Which side runs first alternates
from pair to pair, so drift on the host lands on both sides alike.

Every run's report (its stdout, then its stderr) is saved as
perfbench_ab/<workload>-pair<k>-<side>.txt.

The gate fails (exit 1) when:
  * any run exits non-zero, prints no result line, or is not "correct": true;
  * the change fails a larger share of its attempted operations than BASE;
  * the median over the pairs of any end-to-end metric in BENCHMARK.json is
    worse at CHANGE than at BASE by more than that metric's bound.
Each failure names the workload and the metric.
"""

import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench_ab"
PAIRS = 3
RUN_TIMEOUT_S = 1800  # covers a cold build plus the run; run.py has its own limits


def export(revision, side):
    """Exports `revision` into OUT/side/src and returns that directory."""
    src = OUT / side / "src"
    shutil.rmtree(src, ignore_errors=True)
    src.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "--format=tar", revision], cwd=ROOT,
                             stdout=subprocess.PIPE, check=True)
    subprocess.run(["tar", "-x", "-C", str(src)], input=archive.stdout, check=True)
    return src


def run_once(side, src, workload, seed, seconds, report):
    """Runs one workload on one side; returns (result dict or None, exit code)."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, CARGO_TARGET_DIR=str(OUT / side / "build"))
    started = time.monotonic()
    try:
        done = subprocess.run(command, cwd=src, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
                              check=False)
        stdout, stderr, code = done.stdout, done.stderr, done.returncode
    except subprocess.TimeoutExpired:
        stdout, stderr, code = "", f"timed out after {RUN_TIMEOUT_S} s\n", -1
    report.write_text(stdout + "\n--- stderr ---\n" + stderr, encoding="utf-8")
    lines = stdout.strip().split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    print(f"  {workload} seed {seed} {side}: exit {code}, "
          f"correct {None if result is None else result.get('correct')}, "
          f"{time.monotonic() - started:.0f} s", flush=True)
    return result, code


def worse_by(metric, base, change):
    """How much worse `change` is than `base`, as a share of `base`."""
    if change == base:
        return 0.0
    delta = change - base if metric["better"] == "lower" else base - change
    if base == 0:
        return float("inf") if delta > 0 else 0.0
    return delta / abs(base)


def failed_share(results):
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0.0


def main():
    if not 2 <= len(sys.argv) <= 3:
        sys.exit(__doc__)
    revisions = {"base": sys.argv[1], "change": sys.argv[2] if len(sys.argv) == 3 else "HEAD"}
    sources = {side: export(revision, side) for side, revision in revisions.items()}
    spec = json.loads((sources["base"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    results = {(w, side): [] for w in workloads for side in sources}
    failures = []

    for pair in range(PAIRS):
        seed = pair + 1
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        print(f"pair {pair + 1} of {PAIRS} (seed {seed}, {order[0]} first)", flush=True)
        for workload in workloads:
            for side in order:
                report = OUT / f"{workload}-pair{pair + 1}-{side}.txt"
                result, code = run_once(side, sources[side], workload, seed,
                                        spec["run_seconds"], report)
                if result is None or code != 0 or result.get("correct") is not True:
                    failures.append(f"{workload} seed {seed} {side}: run failed or is not "
                                    f"correct (exit {code}; see {report.name})")
                if result is not None and "metrics" in result:
                    results[(workload, side)].append(result)

    for workload in workloads:
        base, change = results[(workload, "base")], results[(workload, "change")]
        if not base or not change:
            continue
        print(f"\n{workload}: median of {len(base)} base and {len(change)} change runs")
        print(f"  {'metric':16} {'base':>14} {'change':>14} {'worse by':>9} {'bound':>6}")
        if failed_share(change) > failed_share(base):
            failures.append(f"{workload} failed share: change {failed_share(change):.3g} "
                            f"vs base {failed_share(base):.3g}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = statistics.median(r["metrics"][name]["value"] for r in base)
            c = statistics.median(r["metrics"][name]["value"] for r in change)
            worse = worse_by(metric, b, c)
            verdict = "FAIL" if worse > metric["bound"] else "ok"
            print(f"  {name:16} {b:14.6g} {c:14.6g} {worse:+9.1%} {metric['bound']:6}  {verdict}")
            if verdict == "FAIL":
                failures.append(f"{workload} {name}: change median {c:.6g} {metric['unit']} vs "
                                f"base {b:.6g} is {worse:.1%} worse (bound {metric['bound']:.0%})")

    print()
    for failure in failures:
        print(f"perfbench_ab: FAIL {failure}")
    print("perfbench_ab: " + ("FAILED" if failures else "passed"), flush=True)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
