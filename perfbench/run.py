#!/usr/bin/env python3
"""Builds and runs the vupred repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload nightly|backtest|serve_zipf \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first run configures and builds perfbench/CMakeLists.txt (the vupred
libraries from src/ plus the vupbench program) into .bench_build/, or into
$CARGO_TARGET_DIR when that is set. Each run works in its own directory
under the build tree and removes it afterwards; simulated inputs are
cached in the build tree until the next rebuild. The last line of standard
output is vupbench's JSON result. A failed build or run exits non-zero
without printing a result.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("nightly", "backtest", "serve_zipf")


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(ROOT, path))


def build(out):
    """Configures (once) and builds; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("vupred sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the load-generator self-tests and exit")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    out = build_dir()
    binary = os.path.join(out, "vupbench")
    before = os.path.getmtime(binary) if os.path.exists(binary) else None
    if not build(out):
        return 1
    inputs = os.path.join(out, "inputs")
    if os.path.getmtime(binary) != before:
        # Cached inputs were made by the previous build; make them afresh.
        shutil.rmtree(inputs, ignore_errors=True)
    if args.self_test:
        return subprocess.run([os.path.join(out, "vupbench_selftest")]).returncode

    work = os.path.join(out, "run", str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    try:
        result = subprocess.run(
            [binary,
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", work, "--cache-dir", inputs],
            cwd=ROOT, timeout=170)
    except subprocess.TimeoutExpired:
        print("benchmark timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
