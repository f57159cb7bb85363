"""Run the benchmark several times per workload and summarise the spread.

    python3 bench/spread.py [--runs 10] [--first-seed 1] [--trace 0|1]

Each round of runs gives every workload one run, with the same seed
(first-seed, first-seed + 1, ...), so that all workloads meet the same
changes in the machine's speed. A run lasts BENCHMARK.json's run_seconds.
For every metric the summary gives the median, the first and third
quartile as statistics.quantiles(values, n=4) computes them, and the
spread: the distance between the quartiles as a share of the median. These
are the figures the README's reference tables hold.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from run import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    config = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

    results: dict[str, list[dict]] = {name: [] for name in WORKLOADS}
    status = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for name, runs in results.items():
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(config["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=BENCH.parent, capture_output=True, text=True)
            if proc.returncode != 0:
                status = 1
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
            lines = proc.stdout.strip().splitlines()
            if not lines:
                continue
            result = json.loads(lines[-1])
            result["seed"] = seed
            runs.append(result)
            values = " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items())
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {values}",
                  flush=True)

    for name, runs in results.items():
        if not runs:
            continue
        print(f"\n{name} ({len(runs)} runs, seeds {runs[0]['seed']}-{runs[-1]['seed']})")
        print(f"  {'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
        for key, first in runs[0]["metrics"].items():
            values = [r["metrics"][key]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / median if median else 0.0
            print(f"  {key:32s} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.2%} {first['unit']}")
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"  failed share: {sorted(shares)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
