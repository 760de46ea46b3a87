#!/usr/bin/env python3
"""Builds the YASK serving benchmark from source and runs one workload.

Run from the repository root:

    python3 servebench/run.py --workload whynot_local --seed 7 \
        --seconds 10 --trace 0

The first run configures and builds `servebench` (the library sources under
src/ plus servebench/servebench.cc) into .bench_build/servebench; later runs
only rebuild what changed. The build log goes to
.bench_build/servebench/build.log, never to stdout, so the last stdout line
is always the benchmark's result JSON. Exit status is non-zero when the
sources are missing, the build fails, the run times out, or any answer was
wrong.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")
BINARY = os.path.join(BUILD, "servebench")
WORKLOADS = ("query_hot", "whynot_local", "whynot_remote")
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("servebench: " + message, file=sys.stderr)
    sys.exit(code)


def source_id():
    """The git sha when the checkout is a repository, else a content hash of
    the sources the binary is built from."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git-" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "bench", "servebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".txt")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "tree-" + digest.hexdigest()[:12]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "server",
                                       "yask_service.h")):
        fail("the YASK sources (src/) are not in this checkout", 2)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    compile_ = ["cmake", "--build", BUILD, "-j", jobs]
    with open(log_path, "w") as log:
        def step(cmd):
            return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=850).returncode == 0
        ok = step(configure)
        if not ok:
            # A cache left by a checkout at another path: start over once.
            shutil.rmtree(BUILD, ignore_errors=True)
            os.makedirs(BUILD, exist_ok=True)
            ok = step(configure)
        ok = ok and step(compile_)
    if not ok or not os.path.isfile(BINARY):
        with open(log_path) as log:
            tail = log.read()[-4000:]
        fail("build failed; last lines of " + log_path + ":\n" + tail)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1", 2)

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--source-id", source_id()]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s and was stopped" % RUN_TIMEOUT_S)
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        raise
    sys.exit(code)


if __name__ == "__main__":
    main()
