#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <plan|serve|writeback|degraded> \\
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Configures and builds perfbench/ (the MHA
library from src/ plus the two benchmark binaries, Release) under
$CARGO_TARGET_DIR, or .bench_build when it is unset, then runs the untraced
binary (--trace 0, end-to-end metrics) or the traced one (--trace 1,
per-layer metrics).  Build output goes to stderr, so the last line of stdout
is the binary's JSON result.  Exits non-zero without a result when the build
fails or the binary times out; exits 1 when an output check fails.
"""
import argparse
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def build(source_dir, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["plan", "serve", "writeback", "degraded"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()

    source_dir = os.path.dirname(os.path.abspath(__file__))
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(build_root, "perfbench")
    if not build(source_dir, build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2

    binary = "mha_perfbench_traced" if args.trace == "1" else "mha_perfbench"
    command = [os.path.join(build_dir, binary),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--workdir", os.path.join(build_root, "work")]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: benchmark binary timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
