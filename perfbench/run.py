#!/usr/bin/env python3
"""Build and run the SoftWatt same-host benchmark.

    python3 perfbench/run.py --workload mxs-suite --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --test          # tests of the benchmark's own code
    python3 perfbench/run.py --regen-pins    # rewrite perfbench/pins.txt

The simulator is built from ../src in Release mode into
.bench_build/perfbench at the checkout root (build output goes to
stderr), then the perfbench binary runs. Its last line of stdout is the
one-line JSON result. See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
PINS = os.path.join(HERE, "pins.txt")


def build(target):
    """Configure and build one target; False on failure.

    Every call re-asserts a plain Release configuration, so a build tree
    someone configured differently is never measured by mistake.
    """
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release", "-DCMAKE_CXX_FLAGS="],
             ["cmake", "--build", BUILD_DIR, "-j", jobs,
              "--target", target]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--test", action="store_true",
                    help="build and run the benchmark's own tests")
    ap.add_argument("--regen-pins", action="store_true",
                    help="rewrite the pinned output digests")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    if args.test:
        if not build("perfbench_tests"):
            return 1
        return subprocess.run(
            [os.path.join(BUILD_DIR, "perfbench_tests")],
            cwd=BUILD_DIR).returncode

    if not build("perfbench"):
        return 1
    cmd = [os.path.join(BUILD_DIR, "perfbench"), "--pins", PINS,
           "--out-dir", OUT_DIR]
    if args.regen_pins:
        cmd.append("--regen-pins")
    else:
        if not args.workload:
            ap.error("--workload is required")
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
