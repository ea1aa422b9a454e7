#!/usr/bin/env python3
"""Builds and runs the csxa serve benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload paper_mix --seed 1 --seconds 15 --trace 0

The benchmark binary is built from source on first use (CMake, into the
directory named by $CARGO_TARGET_DIR, default `.bench_build`), then run with
the given arguments. Its last line of standard output is the JSON result;
build output goes to standard error. Traced runs also write a Chrome
trace-event file per run under `<build dir>/traces/`.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configures (once) and builds the servebench target; returns its path."""
    cmake_dir = os.path.join(build_dir, "perfbench")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", cmake_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", cmake_dir, "--target", "servebench", "-j", jobs],
        stdout=sys.stderr, check=True)
    return os.path.join(cmake_dir, "servebench")


def main(argv):
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    repo_root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(repo_root, "CMakeLists.txt")):
        print("perfbench: no csxa source tree next to the benchmark",
              file=sys.stderr)
        return 2
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    return subprocess.run([binary, *argv, "--trace-dir", trace_dir]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
