"""Run the benchmark over several seeds and report each metric's spread.

    python3 divbench/spread.py [--runs 10] [--first-seed 101] [--trace 0|1]
                               [--workload NAME ...] [--out FILE]

For every workload and metric it prints the median and the distance
between the first and third quartiles (``statistics.quantiles(n=4)``) as a
share of the median, next to the metric's bound from BENCHMARK.json.
``baseline.json`` (ten seeds, --trace 0) and ``baseline_trace.json`` (three
seeds, --trace 1) beside this file were written by this script on the seed
commit.  A change that claims a gain compares against a fresh run on its
parent commit, not against these files.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    summary = {"run_seconds": spec["run_seconds"], "seeds": [], "workloads": {}}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    summary["seeds"] = seeds
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values, correct = {}, True
        for seed in seeds:
            proc = subprocess.run(
                spec["command"] + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            record = json.loads(proc.stdout.strip().splitlines()[-1])
            correct = correct and record["correct"] and record["failed"] == 0
            for name, metric in record["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        rows = {}
        for name, series in values.items():
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else 0.0
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": series}
            bound = bounds.get(name)
            flag = "" if bound is None else ("  ok" if spread < bound / 3 else "  WIDE")
            print(f"{workload:12s} {name:40s} median {median:.6g} spread {spread:.3f}"
                  f" bound {bound}{flag}", flush=True)
        summary["workloads"][workload] = {"correct": correct, "metrics": rows}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
