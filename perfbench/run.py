#!/usr/bin/env python3
"""Runs one workload of the end-to-end matchmaker benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Builds the benchmark (perfbench/CMakeLists.txt, which compiles the
matchmaker's own sources from src/) in Release mode under .bench_build/
(or $CARGO_TARGET_DIR when set), then runs mm_perfbench. Its last line of
standard output is the run's JSON result; diagnostics go to standard
error. --selftest runs the benchmark's own check tests instead.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                    "mm_perfbench", "perfbench_selftest"],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    root = os.getcwd()
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    if args.selftest:
        cmd = [os.path.join(build_dir, "perfbench_selftest")]
    else:
        cmd = [os.path.join(build_dir, "mm_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
