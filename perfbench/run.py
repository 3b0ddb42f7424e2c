#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload {vault|fleet|catchup} --seed N \
        --seconds S --trace {0|1}

Run from the root of a checkout. The first run configures and builds
perfbench/ (and the library sources it compiles) into the build directory
named by CARGO_TARGET_DIR, default .bench_build; later runs rebuild only
what changed. Build output goes to stderr; the benchmark's report goes to
stdout and ends with its one-line JSON result. The exit code is the
benchmark's: non-zero when the build fails or any output check fails.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: library sources not found under src/",
              file=sys.stderr)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
              build_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", "tc_bench",
              "-j", jobs]]
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not build(build_dir):
        return 1
    cmd = [os.path.join(build_dir, "tc_bench")] + sys.argv[1:]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
