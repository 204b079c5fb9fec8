#!/usr/bin/env python3
"""Build and run one workload of the picosim end-to-end benchmark.

Run from the root of a picosim checkout:

    python3 perfbench/run.py --workload fig9-sweep --seed 1 --seconds 30 --trace 0

The first call configures and builds perfbench/ (and through it the
picosim library) into .bench_build/; later calls rebuild incrementally.
Build output goes to stderr. The benchmark binary's stdout passes through
unchanged: human-readable lines, then one JSON result line. Exits
non-zero, printing no result, when the build or the run fails.
"""

import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run_checked(cmd, timeout, **kwargs):
    """Run cmd to completion (killing it on timeout); return its exit code."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: timed out after {timeout} s: {' '.join(cmd)}",
              file=sys.stderr)
        return 124


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    source = os.path.join(root, "perfbench")
    build = os.path.join(root, ".bench_build")
    binary = os.path.join(build, "picosim_perfbench")

    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        configure = ["cmake", "-S", source, "-B", build,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if run_checked(configure, BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
            # A half-configured tree would skip configuring next time.
            shutil.rmtree(build, ignore_errors=True)
            print("perfbench: configure failed", file=sys.stderr)
            return 2
    jobs = str(os.cpu_count() or 1)
    if run_checked(["cmake", "--build", build, "--target",
                    "picosim_perfbench", "-j", jobs],
                   BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    out_dir = os.path.join(build, "perfbench-out")
    return run_checked([binary, *sys.argv[1:], "--out-dir", out_dir],
                       RUN_TIMEOUT_S, cwd=root)


if __name__ == "__main__":
    sys.exit(main())
