#!/usr/bin/env python3
"""Builds causim and the benchmark from source, then runs one benchmark run.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The library is configured and built with the repository's own CMake files
(Release, no tests/benches/examples) and installed under .bench_build/;
perfbench/ is then built against that install. Both builds are incremental,
so only the first run in a checkout pays for them. Build output goes to
stderr; the benchmark's stdout is passed through unchanged, and its last
line is the JSON result. The exit code is the benchmark's (non-zero when a
build fails or an output check fails).
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
LIB_BUILD = BUILD / "causim"
PREFIX = BUILD / "prefix"
BENCH_BUILD = BUILD / "perfbench"
BINARY = BENCH_BUILD / "perfbench"
JOBS = str(min(os.cpu_count() or 1, 8))
RUN_TIMEOUT_S = 175


def sh(cmd):
    """Runs a build step with its output on stderr; raises on failure."""
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise RuntimeError(f"no causim source tree at {ROOT}")
    if not (LIB_BUILD / "CMakeCache.txt").is_file():
        sh(["cmake", "-S", str(ROOT), "-B", str(LIB_BUILD), "-G", "Ninja",
            "-DCMAKE_BUILD_TYPE=Release", "-DCAUSIM_BUILD_TESTS=OFF",
            "-DCAUSIM_BUILD_BENCH=OFF", "-DCAUSIM_BUILD_EXAMPLES=OFF",
            f"-DCMAKE_INSTALL_PREFIX={PREFIX}"])
    sh(["cmake", "--build", str(LIB_BUILD), "-j", JOBS])
    sh(["cmake", "--install", str(LIB_BUILD)])
    if not (BENCH_BUILD / "CMakeCache.txt").is_file():
        sh(["cmake", "-S", str(HERE), "-B", str(BENCH_BUILD), "-G", "Ninja",
            "-DCMAKE_BUILD_TYPE=Release", f"-DCMAKE_PREFIX_PATH={PREFIX}"])
    sh(["cmake", "--build", str(BENCH_BUILD), "-j", JOBS])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        traces = BUILD / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}.events")]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
