#!/usr/bin/env python3
"""Build and run the end-to-end benchmark for one workload.

Run from the root of a checkout:

    python3 benchmark/run.py --workload single_fp32 --seed 1 --seconds 20 --trace 0

The benchmark is compiled from the checkout's own sources into
.bench_build/ (an incremental no-op after the first run), then
ngb_benchmark runs the workload. Its last line of output is the JSON
result. With --trace 1 the benchmark's spans are written to
.bench_build/<workload>-seed<seed>.trace.json.

Build output goes to stderr, so stdout carries only the benchmark's
report. The exit code is the benchmark's: 0 when every output checked
out, nonzero on a failed check, a failed build or bad arguments.
"""

import argparse
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "ngb_benchmark")


def build():
    """Configure (once) and build ngb_benchmark; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        print("run.py: no CMakeLists.txt at %s; the benchmark builds the "
              "library from the checkout's sources" % ROOT, file=sys.stderr)
        return False
    configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    steps = [configure,
             ["cmake", "--build", BUILD_DIR, "--target", "ngb_benchmark",
              "-j", "4"]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("run.py: failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()

    if not build():
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--trace-out", os.path.join(
            BUILD_DIR, "%s-seed%s.trace.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
