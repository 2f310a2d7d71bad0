#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

Runs one workload of the benchmark repeatedly, each time with another seed,
the way BENCHMARK.json's command is run, and prints for every end-to-end
metric its median, first and third quartile and the spread (IQR / median)
against the metric's bound in BENCHMARK.json. Also prints the share of
failed ops of every run, which must be identical across runs.

Usage (from anywhere):

    python3 simbench/steady.py --workload sgemm_paper [--runs 10]
        [--first-seed 1] [--seconds N]

Exit code 0 when every run is correct, every spread stays within its bound
and the failed share is the same in every run, else 1.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"seed {seed}: exit code {proc.returncode}")
    return json.loads(lines[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    opts = parser.parse_args()

    results = []
    for i in range(opts.runs):
        seed = opts.first_seed + i
        result = run_once(spec["command"], opts.workload, seed, opts.seconds)
        results.append(result)
        values = " ".join(
            f"{name}={m['value']:.6g}" for name, m in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} {values}",
              flush=True)

    ok = True
    if not all(r["correct"] for r in results):
        print("some run reported correct=false")
        ok = False
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share per run: {sorted(shares)}")
    if len(shares) != 1:
        print("failed share differs between runs")
        ok = False

    print(f"{'metric':<20} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else float("inf")
        if spread <= bound / 3:
            verdict = "ok (< bound/3)"
        elif spread <= bound:
            verdict = "within bound"
        else:
            verdict = "TOO NOISY"
            ok = False
        print(f"{name:<20} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
              f"{spread:>8.4f} {bound:>6}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
