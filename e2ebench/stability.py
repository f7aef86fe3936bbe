#!/usr/bin/env python3
"""Run every benchmark workload N times and report how steady it is.

Run from the repository root:

    python3 e2ebench/stability.py [--runs 10] [--seconds S] [--first-seed 1]
                                  [--workloads mis-rmat,dmr-mesh]

Each run uses its own seed (first-seed, first-seed + 1, ...). For every
end-to-end metric the script prints the median, the first and third
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median,
next to the bound in BENCHMARK.json, and derives a bound: three times the
spread, at least 0.05, at most 0.25. A run that exits non-zero, hangs,
prints no result, reports correct=false, or fails operations (a refuted
certificate, a failed check, a livelock, a leaked lock) is flagged with
its reason. Flagged runs are never retried: their metrics still count,
and the failed share of operations is reported per workload.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 900  # the first run may build


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, [f"hung: no exit after {RUN_TIMEOUT_S} s"]
    flags = []
    if proc.returncode != 0:
        flags.append(f"exit code {proc.returncode}")
    flags += [line for line in proc.stderr.splitlines()
              if line.startswith("FAIL") or "run.py:" in line]
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None, flags + ["no JSON result"]
    if not result.get("correct", False):
        flags.append("correct=false")
    if result.get("failed", 0):
        flags.append(f"{result['failed']} of {result['attempted']} "
                     "operations failed")
    return result, flags


def derived_bound(spread):
    return min(0.25, max(0.05, math.ceil(3 * spread * 100) / 100))


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    all_steady = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        attempted = failed = 0
        for i in range(args.runs):
            seed = args.first_seed + i
            result, flags = run_once(workload, seed, args.seconds)
            for flag in flags:
                print(f"FLAG {workload} seed={seed}: {flag}")
            if result is None:
                all_steady = False
                continue
            attempted += result["attempted"]
            failed += result["failed"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"run {workload} seed={seed} " + " ".join(
                f"{n}={result['metrics'][n]['value']:.4g}" for n in bounds),
                flush=True)
        share = failed / attempted if attempted else float("nan")
        print(f"== {workload}: {attempted} operations, {failed} failed "
              f"(share {share:.6f})")
        print(f"   {'metric':<12} {'median':>10} {'q1':>10} {'q3':>10} "
              f"{'spread':>7} {'bound':>6} {'derived':>7}")
        for name, xs in values.items():
            if len(xs) < 2:
                print(f"   {name:<12} too few results")
                all_steady = False
                continue
            q1, _, q3 = statistics.quantiles(xs, n=4)
            med = statistics.median(xs)
            spread = (q3 - q1) / med
            note = ""
            if name != "setup_s" and spread > bounds[name] / 3:
                note = "  above bound/3"
                all_steady = False
            print(f"   {name:<12} {med:>10.4g} {q1:>10.4g} {q3:>10.4g} "
                  f"{spread:>7.3f} {bounds[name]:>6.2f} "
                  f"{derived_bound(spread):>7.2f}{note}", flush=True)
    return 0 if all_steady else 1


if __name__ == "__main__":
    sys.exit(main())
