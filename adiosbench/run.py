#!/usr/bin/env python3
"""Benchmark entry point: builds adios_bench from source, then runs one workload.

    python3 adiosbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: array-uniform, silo-tpcc, rocksdb-faulty (see adiosbench/NOTES.md).
The build goes to .bench_build/adiosbench under the repository root (CMake,
Release); --trace 1 also writes .bench_out/<workload>.perfetto.json. Standard
output ends with adios_bench's one-line JSON result; the exit code is
adios_bench's (1 when a correctness check failed, naming it).
"""

import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("array-uniform", "silo-tpcc", "rocksdb-faulty")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "adiosbench"
OUT_DIR = ROOT / ".bench_out"
# A run must end within 180 s; leave room for start-up and reporting.
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=Release"], stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"adiosbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [str(BUILD_DIR / "adios_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(OUT_DIR / f"{args.workload}.perfetto.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"adiosbench: {args.workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    if proc.returncode < 0:
        # The simulator crashed; its last output line names the run it was in.
        print(f"adiosbench: adios_bench killed by {signal.Signals(-proc.returncode).name}",
              file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"adiosbench: adios_bench exited with {proc.returncode}", file=sys.stderr)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
