#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics, next to their bounds.

Runs perfbench/run.py once per (workload, seed) and prints, per workload and
metric, the median, the quartiles (statistics.quantiles(values, n=4)) and
the interquartile distance as a share of the median, against the metric's
bound in BENCHMARK.json. Use it to check that the benchmark is steady:

    python3 perfbench/spread.py --workload fleet-mmap --seeds 1-10
    python3 perfbench/spread.py --workload edge-openloop --seeds 3,4,5 --trace 1

--out FILE also writes every run's result line as JSON.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            first, last = part.split("-", 1)
            seeds.extend(range(int(first), int(last) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.strip().split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    result["exit_code"] = done.returncode
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    raw = {}
    for workload in args.workload:
        results = []
        for seed in seeds:
            result = run_once(workload, seed, seconds, args.trace)
            status = "no result" if result is None else (
                f"correct={result['correct']} exit={result['exit_code']}")
            print(f"{workload} seed {seed}: {status}", flush=True)
            if result is not None:
                results.append(result)
        raw[workload] = results
        if not results:
            continue
        print(f"\n{workload}: {len(results)} runs, "
              f"{sum(r['correct'] for r in results)} correct")
        print(f"  {'metric':32} {'median':>14} {'q1':>14} {'q3':>14} {'IQR/med':>8} "
              f"{'bound':>6}  verdict")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                         else (values[0],) * 3)
            share = (q3 - q1) / abs(median) if median else 0.0
            bound = bounds.get(name)
            verdict = ""
            if bound is not None and name != "setup_s":
                verdict = ("ok" if share < bound / 3 else
                           "within bound" if share <= bound else "TOO NOISY")
            print(f"  {name:32} {median:14.6g} {q1:14.6g} {q3:14.6g} {share:8.2%} "
                  f"{'' if bound is None else bound:>6}  {verdict}")
        print(flush=True)
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(raw, indent=1), encoding="utf-8")


if __name__ == "__main__":
    main()
