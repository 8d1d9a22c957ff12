#!/usr/bin/env python3
"""Build and run the vbr host-performance benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload uni_fig5 --seed 1 --seconds 15 --trace 0

Builds the simulator library through the repository's own CMake build
and the benchmark program (perfbench/CMakeLists.txt) under .bench_build/,
then runs one workload. The last line of standard output is the result
JSON of vbr_perfbench; the builds' output goes to standard error, and
only when a build fails.
Exits non-zero, without a result line, when the simulator sources are
missing or a build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("uni_fig5", "mp16", "trace_replay")


def build(build_root):
    """Build the library, then vbr_perfbench; return the binary's path."""
    lib_build = os.path.join(build_root, "vbr")
    bench_build = os.path.join(build_root, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", ROOT, "-B", lib_build,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", lib_build, "--target", "vbr", "-j", jobs],
        ["cmake", "-S", BENCH_DIR, "-B", bench_build,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
         "-DVBR_ROOT=" + ROOT, "-DVBR_LIB_BUILD=" + lib_build],
        ["cmake", "--build", bench_build, "-j", jobs],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(bench_build, "vbr_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=0.0,
                    help="iteration multiplier (0 = the workload default)")
    ap.add_argument("--pins", default=os.path.join(BENCH_DIR, "pins.txt"))
    ap.add_argument("--write-pins", default="")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "sys", "system.hpp")):
        sys.exit("perfbench: simulator sources not found under "
                 + os.path.join(ROOT, "src"))
    build_root = os.path.join(ROOT, ".bench_build")
    binary = build(build_root)

    work_dir = os.path.join(build_root, "work-%d" % os.getpid())
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", str(args.scale), "--work-dir", work_dir,
           "--pins", args.pins]
    if args.write_pins:
        cmd += ["--write-pins", args.write_pins]
    try:
        sys.stdout.flush()
        code = subprocess.run(cmd).returncode
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
