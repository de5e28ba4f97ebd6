#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper_batch --seed 1 --seconds 15 --trace 0

The build lands in $CARGO_TARGET_DIR if set, otherwise in .bench_build; build
output goes to stderr so that the last line of stdout is the result JSON
printed by the perfbench binary. Workloads, metrics and method: README.md.
"""
import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("paper_batch", "xl_steady", "serve_ckpt", "serve_burst")


def build(build_dir):
    """Configure once, then bring perfbench and netsel_serve up to date."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "netsel_serve", "-j", "4"])
    for cmd in steps:
        # The library's sources live outside this directory; a tree without
        # them fails here, before anything is measured.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(ROOT, ".bench_build"))
    build(build_dir)
    binary = os.path.join(build_dir, "perfbench")
    sys.stdout.flush()
    os.execv(binary, [binary, "--workload", args.workload,
                      "--seed", str(args.seed), "--seconds", str(args.seconds),
                      "--trace", str(args.trace), "--root", ROOT])


if __name__ == "__main__":
    main()
