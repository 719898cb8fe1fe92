#!/usr/bin/env python3
"""Build the arnet benchmark from source and run one workload.

Usage (from the repository root):

    python3 arbench/run.py --workload packet_sessions --seed 1 --seconds 10 --trace 0

Builds arbench/ (which compiles ../src) into $CARGO_TARGET_DIR/arbench,
default .bench_build/arbench, then runs the arbench binary. Build output goes to
stderr, so the last line on stdout is the arbench binary's JSON result. Extra
flags: --write-goldens regenerates arbench/goldens.txt for the workload
(seed 1 only). Exits non-zero, without a result, when the build fails.
"""
import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configure once, then an incremental build; output to stderr."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = ["cmake", "-S", BENCH_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", build_dir, "-j", "4"]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-goldens", action="store_true")
    args = p.parse_args()

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "arbench")
    if not build(build_dir):
        print("arbench: build failed", file=sys.stderr)
        return 1
    goldens = os.path.join(BENCH_DIR, "goldens.txt")
    cmd = [os.path.join(build_dir, "arbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--goldens", goldens, "--spans-dir", os.path.join(build_dir, "spans")]
    if args.write_goldens:
        cmd += ["--write-goldens", goldens]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
