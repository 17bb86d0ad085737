#!/usr/bin/env python3
"""Builds and runs the scheduling daemon benchmark (perfbench).

Run from the root of a checkout:

    python3 perfbench/run.py --workload http-batch --seed 7 --seconds 48 --trace 0
    python3 perfbench/run.py --selftest

Every call configures and builds the repository's libraries and the
benchmark with CMake under $CARGO_TARGET_DIR (default .bench_build);
after the first call that is incremental and takes a second or two. Build output goes to stderr, so the
last line on stdout is the benchmark's JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_dir):
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench",
         "perfbench_tests", "-j", str(min(4, os.cpu_count() or 1))],
        stdout=sys.stderr, check=True)


def main():
    build_dir = os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
        "perfbench")
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if sys.argv[1:] == ["--selftest"]:
        cmd = [os.path.join(build_dir, "perfbench_tests")]
    else:
        cmd = [os.path.join(build_dir, "perfbench")] + sys.argv[1:]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        proc.kill()
        proc.wait()
        return 3
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
