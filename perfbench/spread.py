#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --seeds 1-10 [--seconds 35] [--trace 0] \\
        [--workloads rates-haar,checks] [--out spread.json]

For every workload and metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread, which is
the distance between the quartiles as a share of the median. Runs are made
one after another, never in parallel. The run length defaults to
``run_seconds`` of BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="rates-haar,estimate-db8,checks")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default=str(json.loads(
        (HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]))
    parser.add_argument("--trace", default="0")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds(args.seeds):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
                capture_output=True, text=True, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: outputs differ from the references",
                      file=sys.stderr)
            runs.append(result)
        metrics = {name: summarize([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        report[workload] = {"attempted": [r["attempted"] for r in runs],
                            "failed": sum(r["failed"] for r in runs), "metrics": metrics}
        for name, s in metrics.items():
            print(f"{workload:14s} {name:30s} median {s['median']:12.6g}  "
                  f"q1 {s['q1']:12.6g}  q3 {s['q3']:12.6g}  spread {s['spread']:.4f}")
        sys.stdout.flush()
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
