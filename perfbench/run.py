#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
perfbench/ (a standalone CMake project that compiles libsthist from src/)
in Release mode under $CARGO_TARGET_DIR (default .bench_build); later calls
rebuild incrementally. Build output goes to stderr, so the last line of
stdout is the driver's JSON result. The exit code is the driver's, or 1 when
the build fails. See perfbench/README.md for the workloads and metrics.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    """The build directory, kept inside the checkout."""
    name = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = os.path.abspath(os.path.join(ROOT, name))
    if os.path.commonpath([path, ROOT]) != ROOT:
        path = os.path.join(ROOT, ".bench_build")
    return path


def build():
    """Configures (once) and builds the driver; returns its path or None."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4"])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return None
    binary = os.path.join(out, "sthist_perfbench")
    return binary if os.path.exists(binary) else None


def main(argv):
    binary = build()
    if binary is None:
        return 1
    tmp_dir = os.path.join(build_dir(), "perfbench-tmp")
    return subprocess.run([binary, *argv, "--tmp-dir", tmp_dir],
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
