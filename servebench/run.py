#!/usr/bin/env python3
"""Builds and runs the serving-path benchmark from the root of a checkout.

    python3 servebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 servebench/run.py --self-test

The benchmark is a CMake project of its own (servebench/CMakeLists.txt) over
the repository's library. It is built in Release mode under
$CARGO_TARGET_DIR/servebench (default .bench_build/servebench); run records,
the served store and span files go to the run/ directory beside the build.
Extra flags (--xkg-seed, ...) pass through to the binary. The
last line of stdout is the result object; the exit code is the binary's.
"""

import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(message, code=2):
    print(f"servebench: {message}", file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; stdout stays clean."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}", 3)
    if done.returncode != 0:
        fail(f"failed ({done.returncode}): {' '.join(cmd)}", 3)


def build(build_dir, target):
    if shutil.which("cmake") is None:
        fail("cmake not found", 3)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", "servebench", "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", build_dir, "--target", target, "-j", jobs],
               BUILD_TIMEOUT_S)


def git_sha():
    for var in ("SPECQP_GIT_SHA", "GITHUB_SHA"):
        if os.environ.get(var):
            return os.environ[var]
    if os.path.exists(".git") and shutil.which("git") is not None:
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                  text=True, timeout=10)
            if done.returncode == 0 and done.stdout.strip():
                return done.stdout.strip()
        except subprocess.TimeoutExpired:
            pass
    return "unknown"


def main(argv):
    # The benchmark builds the library from this checkout's sources; without
    # them there is nothing to measure.
    for needed in ("CMakeLists.txt", os.path.join("src", "core", "engine.h"),
                   os.path.join("servebench", "CMakeLists.txt")):
        if not os.path.isfile(needed):
            fail(f"run from the repository root: {needed} is missing")

    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, "servebench")
    if argv == ["--self-test"]:
        build(build_dir, "servebench_test")
        binary = os.path.join(build_dir, "servebench_test")
        sys.exit(subprocess.run([binary], timeout=RUN_TIMEOUT_S).returncode)

    build(build_dir, "servebench")
    binary = os.path.join(build_dir, "servebench")
    cmd = [binary, *argv, "--out", os.path.join(root, "run"), "--git-sha", git_sha()]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 4)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main(sys.argv[1:])
