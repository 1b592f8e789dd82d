#!/usr/bin/env python3
"""Builds the egglog benchmark harness from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload pointsto|eqsat|herbie --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The first form configures and builds perfbench/ (CMake, Release, tests and
failpoints off) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that is unset, then runs the workload in its own process. The last line
of standard output is the harness's JSON result; build output goes to
standard error. The exit code is the harness's: non-zero on a wrong answer.

--selftest builds the same way and runs the oracle self-test, which shows
each independent check rejecting a planted wrong answer.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("pointsto", "eqsat", "herbie")
# A run measures for --seconds plus at most one round (~10 s); a run still
# going this long after --seconds has hung. The self-test gets as long.
RUN_SLACK_S = 140


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures and builds the harness; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "Frontend.h")):
        fail("egglog sources not found under %s/src" % ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    # One build at a time per build directory.
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(
                ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
                + generator,
                stdout=sys.stderr, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", out, "--parallel", jobs],
                       stdout=sys.stderr, check=True)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    try:
        out = build()
    except subprocess.CalledProcessError as err:
        fail("build failed: %s" % err)

    if args.selftest:
        return subprocess.run([os.path.join(out, "perfbench_oracles")],
                              timeout=RUN_SLACK_S).returncode

    os.makedirs(WORK_DIR, exist_ok=True)
    command = [os.path.join(out, "perfbench_harness"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", WORK_DIR]
    timeout = args.seconds + RUN_SLACK_S
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("%s run exceeded %g s" % (args.workload, timeout))
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
