#!/usr/bin/env python3
"""Runs the benchmark several times and reports each metric's median,
quartiles, and spread (interquartile distance as a share of the median).
With --trace 0 it also reports `unscaled_wall_s`, the fastest cell's wall
before scaling by the host probe, read from the table.

    python3 simbench/spread.py --workload fleet --runs 10 --seconds 10 [--trace 0]
        [--first-seed 1] [--out spread.json]

Run i uses seed first_seed + i. Runs are serial, one process at a time.
"""

import argparse
import json
import statistics
import subprocess
import sys

BENCH = [sys.executable, "simbench/run.py"]


def one(workload, seed, seconds, trace):
    out = subprocess.run(
        [*BENCH, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True,
    )
    if out.returncode != 0:
        sys.exit(f"run failed ({out.returncode}): {out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"incorrect output on seed {seed}:\n{out.stdout}")
    for line in lines:
        if line.strip().startswith("unscaled cell wall: min"):
            raw = float(line.split()[4])
            result["metrics"]["unscaled_wall_s"] = {"value": raw, "unit": "s"}
    return result


def summarize(results):
    table = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        table[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": q2,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else 0.0,
            "values": values,
        }
    return table


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out")
    a = p.parse_args()

    seeds = [a.first_seed + i for i in range(a.runs)]
    results = [one(a.workload, s, a.seconds, a.trace) for s in seeds]
    table = summarize(results)
    for name, row in table.items():
        print(f"{a.workload:16} {name:28} median {row['median']:14.6g} {row['unit']:6} "
              f"q1 {row['q1']:12.6g} q3 {row['q3']:12.6g} spread {row['spread']:.4f}")
    if a.out:
        with open(a.out, "w") as f:
            json.dump({"workload": a.workload, "seeds": seeds, "seconds": a.seconds,
                       "trace": a.trace, "metrics": table}, f, indent=1)


if __name__ == "__main__":
    main()
