#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree. The build (CMake, Release) goes to
.bench_build/e2e; the benchmark's scratch files go to .bench_build/run and
are removed when it ends. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Exits non-zero, without a result,
when the tree cannot be built.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "e2e")
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
WORKDIR = os.path.join(ROOT, ".bench_build", "run")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", BUILD, "--target", "e2e_bench", "-j", jobs]]
    # Configure until one build has succeeded; after that the build step
    # re-runs CMake itself when a CMakeLists.txt changes.
    if not os.path.exists(os.path.join(BUILD, "e2e_bench")):
        steps.insert(0, ["cmake", "-S", SOURCE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            print("run.py: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv):
    if not build():
        return 1
    binary = os.path.join(BUILD, "e2e_bench")
    command = [binary, *argv, "--workdir", WORKDIR, "--git", git_sha()]
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
