#!/usr/bin/env python3
"""Builds the serving benchmark and runs one workload once.

    python3 servebench/run.py --workload ask --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds the
benchmark (Release) under .bench_build/servebench; later runs only rebuild
what changed. The program's last stdout line is the JSON result. The run
fails without a result when the sources are missing, the build fails,
or the verification pass disagrees with servebench/expected.json.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")
BINARY = os.path.join(BUILD, "servebench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("servebench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("repository sources not found under " + ROOT)
    tmp = os.path.join(BUILD, "tmp")  # compiler scratch stays in the tree
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    log_path = os.path.join(BUILD, "build.log")
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build per checkout at a time
        steps = [["cmake", "--build", BUILD, "--target", "servebench",
                  "-j", "4"]]
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                             "-DCMAKE_BUILD_TYPE=Release"])
        with open(log_path, "w") as log:
            for step in steps:
                if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                  env=env).returncode != 0:
                    with open(log_path) as f:
                        sys.stderr.write(f.read()[-4000:])
                    fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["ask", "related", "link_web"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build()
    with open(os.path.join(HERE, "expected.json")) as f:
        expected = json.load(f)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", os.path.join(BUILD, "out"),
           "--quality-floor", repr(expected["floor"][args.workload])]
    recorded = expected["recorded"][args.workload].get(str(args.seed))
    if recorded is not None:
        cmd += ["--expect-quality", repr(recorded)]
    try:
        code = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
