#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds the library from ./src and
the benchmark driver from ./perfbench into .bench_build/perfbench (CMake,
RelWithDebInfo like the repository's default build; the first run builds,
later runs only re-check), then runs one workload. The driver's report
and its final JSON result line go to standard output; the build log goes
to .bench_build/perfbench-build.log. An extra `--inject-fault reorder`
corrupts one compiled output so the output gate must fail.

Exit codes: the driver's own (0 gate passed, 1 gate failed, 2 usage), or
3 when the build fails or the run exceeds its time limit.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD_DIR = os.path.join(".bench_build", "perfbench")
LOG = os.path.join(".bench_build", "perfbench-build.log")
RUN_LIMIT_S = 170  # One run, build check included, stays under 180 s.


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    with open(LOG, "a") as log:
        for step in steps:
            log.write("$ " + " ".join(step) + "\n")
            log.flush()
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                return False
    return True


def main():
    if not os.path.isfile(os.path.join("perfbench", "CMakeLists.txt")):
        sys.stderr.write("run.py: run from the checkout root\n")
        return 3
    if not build():
        sys.stderr.write("run.py: build failed; see %s\n" % LOG)
        try:
            with open(LOG) as log:
                sys.stderr.write("".join(log.readlines()[-20:]))
        except OSError:
            pass
        return 3
    binary = os.path.join(BUILD_DIR, "perfbench")
    try:
        return subprocess.run([binary] + sys.argv[1:], cwd=ROOT,
                              timeout=RUN_LIMIT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: run exceeded %d s\n" % RUN_LIMIT_S)
        return 3


if __name__ == "__main__":
    sys.exit(main())
