#!/usr/bin/env python3
"""Builds the sparsedet benchmark harness from source and runs one workload.

    python3 perfbench/run.py --workload study_batch --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

The harness and the repository's libraries are built into the directory
named by CARGO_TARGET_DIR (default .bench_build) under the repository
root; the first call configures and builds, later calls only rebuild what
changed. Build output goes to standard error, so the last line of standard
output is the harness's JSON result. Traced runs write their spans to
<build dir>/traces/. --self-test builds and runs the output checkers' own
tests instead of a workload.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def step(cmd):
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build step failed: " + " ".join(cmd))


def build(target):
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", SOURCE, "-B", out]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        step(configure)
    step(["cmake", "--build", out, "--target", target,
          "-j", str(os.cpu_count() or 1)])
    return out


def main(argv):
    if argv == ["--self-test"]:
        out = build("perfbench_checks_test")
        return subprocess.run([os.path.join(out, "perfbench_checks_test")]).returncode
    out = build("perfbench")
    traces = os.path.join(out, "traces")
    os.makedirs(traces, exist_ok=True)
    harness = [os.path.join(out, "perfbench")] + argv + ["--trace-dir", traces]
    return subprocess.run(harness).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
