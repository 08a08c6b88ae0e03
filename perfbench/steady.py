#!/usr/bin/env python3
"""Steadiness check: do two separate sets of runs of the same code agree?

    python3 perfbench/steady.py

Run from the root of a checkout. For each of two sets it runs every
workload of BENCHMARK.json ten times through perfbench/run.py, each run
with its own seed, and prints each set's median and quartiles per
end-to-end metric. The two sets agree when, for every metric, the
quartile spread (Q3 - Q1) / median of each set is within the metric's
bound from BENCHMARK.json; when no second-set median is worse than the
first by more than the bound; and when every run is correct and fails
no operation.

Before each workload's runs it also times the fixed host-drift cell
(P=256, 64 MiB overlapped double tree; deterministic work), so the
host's own drift over the same period is reported beside the figures.
"""

import json
import os
import statistics
import subprocess
import sys

import run as bench

RUNS = 10


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(bench.HERE, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True).stdout
    # A run that fails an oracle exits non-zero but still prints its
    # result, which the agreement check then rejects.
    return json.loads(out.strip().splitlines()[-1])


def drift_cell():
    out = subprocess.run([bench.BINARY, "--drift-cell", "5"],
                         stdout=subprocess.PIPE, text=True,
                         check=True).stdout
    return json.loads(out.strip().splitlines()[-1])["drift_cell_s"]


def summarize(results, metric):
    values = [r["metrics"][metric]["value"] for r in results]
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med}


def main():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    if not bench.build():
        print("build failed", file=sys.stderr)
        return 2

    sets = []
    for set_index in (1, 2):
        per_workload = {}
        for workload in workloads:
            drift = drift_cell()
            results = [run_once(workload, 1000 * set_index + i, seconds)
                       for i in range(RUNS)]
            per_workload[workload] = {
                "drift_cell_s": drift,
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "correct": all(r["correct"] for r in results),
                "metrics": {m: summarize(results, m) for m in bounds},
            }
            print(f"set {set_index} {workload}: drift cell {drift:.4f} s",
                  file=sys.stderr)
        sets.append(per_workload)

    agree = True
    print(f"{'workload':24} {'metric':16} {'set':>3} {'q1':>12} "
          f"{'median':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
    for workload in workloads:
        for metric, info in bounds.items():
            for set_index, per_workload in enumerate(sets, 1):
                s = per_workload[workload]["metrics"][metric]
                print(f"{workload:24} {metric:16} {set_index:>3} "
                      f"{s['q1']:12.6g} {s['median']:12.6g} "
                      f"{s['q3']:12.6g} {s['spread']:7.3f} "
                      f"{info['bound']:6.2f}")
                if s["spread"] > info["bound"]:
                    agree = False
            first = sets[0][workload]["metrics"][metric]["median"]
            second = sets[1][workload]["metrics"][metric]["median"]
            worse = ((second - first) / first if info["better"] == "lower"
                     else (first - second) / first)
            if worse > info["bound"]:
                agree = False
        shares = [s[workload]["failed"] / s[workload]["attempted"]
                  for s in sets]
        drifts = [s[workload]["drift_cell_s"] for s in sets]
        print(f"{workload:24} failed share {shares[0]:.6f} / "
              f"{shares[1]:.6f}; host drift cell {drifts[0]:.4f} / "
              f"{drifts[1]:.4f} s")
        if any(s[workload]["failed"] or not s[workload]["correct"]
               for s in sets):
            agree = False
    all_drift = [s[w]["drift_cell_s"] for s in sets for w in workloads]
    print(f"host drift cell over the whole check: min {min(all_drift):.4f}"
          f" s, max {max(all_drift):.4f} s")
    print("the two sets agree within the bounds" if agree
          else "the two sets do NOT agree within the bounds")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
