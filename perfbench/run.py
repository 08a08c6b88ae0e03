#!/usr/bin/env python3
"""Builds the host benchmark from the checkout and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --regen-reference

Run from the root of a checkout. The benchmark and the library under
test are built from source into .bench_build/perfbench (build output
goes to stderr). The last line of stdout is the result as one JSON
object. A traced run (--trace 1) also writes a Chrome trace to
.bench_build/traces/.

--regen-reference rebuilds perfbench/reference/des_paper_grid.txt, the
simulated-time reference of the des_paper_grid workload, from the
current code. Do that only when a fidelity fix is meant to move
simulated time.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
REFERENCE = os.path.join(HERE, "reference", "des_paper_grid.txt")
WORKLOADS = ("dgx1_auto_small", "dgx1_supervised_large", "sm_p512_scale",
             "des_paper_grid")
# A run must end within 180 s; the benchmark itself takes far less.
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then builds; returns True on success."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            return False
    return True


def run_binary(args):
    """Runs the benchmark binary; returns its exit code."""
    try:
        return subprocess.run([BINARY] + args,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--regen-reference", action="store_true")
    args = parser.parse_args()
    if not args.regen_reference and args.workload is None:
        parser.error("--workload is required")
    if not build():
        print("build failed", file=sys.stderr)
        return 2
    if args.regen_reference:
        return run_binary(["--write-reference", REFERENCE])
    command = ["--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--reference", REFERENCE]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.trace.json")]
    return run_binary(command)


if __name__ == "__main__":
    sys.exit(main())
