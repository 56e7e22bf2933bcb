#!/usr/bin/env python3
"""Builds and runs the remio benchmark (perfbench).

Usage, from the repository root:

    python3 perfbench/run.py --workload <rpc4k|async4k|bulk1m|laplace_das2> \\
        --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds perfbench/ together with the library
sources in src/ into .bench_build/perfbench; later calls reuse that build.
Build output goes to stderr. The benchmark's own output goes to stdout, and
its last line is the JSON result. When the build or the run fails, this
script exits non-zero.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def run_checked(cmd, timeout):
    """Runs a build step with its output on stderr; True when it succeeded."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        return proc.wait(timeout=timeout) == 0
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: build step timed out: " + " ".join(cmd), file=sys.stderr)
        return False


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: src/CMakeLists.txt not found next to perfbench/",
              file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if not run_checked(configure, BUILD_TIMEOUT_S):
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_checked(["cmake", "--build", BUILD_DIR, "-j", jobs],
                       BUILD_TIMEOUT_S)


def main():
    if not build():
        return 1
    proc = subprocess.Popen([BINARY] + sys.argv[1:], stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    sys.stdout.buffer.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
