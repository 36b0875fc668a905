#!/usr/bin/env python3
"""Build the perfbench driver from this checkout and run one workload.

    python3 perfbench/run.py --workload paper_study [--seed 2020]
                             [--seconds 25] [--trace 0|1] [--quick]

The library is compiled from ../src by perfbench/CMakeLists.txt (Release)
into $CARGO_TARGET_DIR, or .bench_build when that is unset, relative to the
checkout root. Build output goes to stderr; the driver's stdout is passed
through, so the last stdout line is the driver's JSON result. A failed build
exits non-zero without printing a result.

Seeds: 2020 is the default; 4242 is held out for confirming a claimed gain
and is not used while tuning a change.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_study", "internet_scale", "becaused_live")


def build(build_dir):
    """Configure once, then (re)build the driver; True on success."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs, for the benchmark's own self-test")
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                             or ".bench_build")
    if not build(build_dir):
        return 1
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    if args.quick:
        cmd.append("--quick")
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
