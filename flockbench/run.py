#!/usr/bin/env python3
"""Build and run the flock benchmark.

Usage (from the repository root):
    python3 flockbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the flock library and the benchmark driver from source into
.bench_build/ (or $CARGO_TARGET_DIR when set) with CMake in Release mode,
then runs the driver with the same arguments. The driver's last stdout line
is the result JSON; its exit code is passed through. Exits non-zero, without
a result, when the sources or the toolchain are missing.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840


def fail(message):
    print("flockbench/run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "pipeline", "pipeline.h")):
        fail("the flock sources (src/) are missing next to flockbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")) and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [configure, ["cmake", "--build", build_dir, "--target", "flockbench", "-j", jobs]]
    for cmd in steps:
        # Build output goes to stderr so stdout stays the driver's.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, cwd=ROOT)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def main():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    build(build_dir)
    driver = os.path.join(build_dir, "flockbench")
    env = dict(os.environ)
    env.pop("FLOCK_LOCALIZE_THREADS", None)
    done = subprocess.run([driver] + sys.argv[1:], cwd=ROOT, env=env)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
