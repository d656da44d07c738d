#!/usr/bin/env python3
"""Paper-workload benchmark: build it from source and run a workload.

The benchmark binary (perfbench/main.cpp) is built by the CMake package in
this directory from the checkout's src/ tree. The build tree is
$CARGO_TARGET_DIR when set, else .bench_build, relative to the checkout
root; scratch files go to .bench_work and are removed afterwards.

Usage (from the checkout root):
  python3 perfbench/run.py --workload tb-swap --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --selfcheck

Workloads: tb-swap, depth, serve-mix (see BENCHMARK.json). The last line
of standard output is the result JSON; build logs go to standard error.
--selfcheck runs the determinism self-check instead: two reduced passes
per workload with one seed must agree on every deterministic count.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "perfbench")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure and build the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no olsq2 sources under {ROOT}/src; run from a full checkout")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    jobs = str(min(4, os.cpu_count() or 1))
    # Configuring every time keeps a reused build tree in step with the
    # package's targets; it is a no-op check when nothing changed.
    steps = [["cmake", "-S", PACKAGE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", build_dir, "--target", "perfbench",
              "-j", jobs]]
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail(f"build step failed: {err}")
        if proc.returncode != 0:
            fail(f"build step failed ({proc.returncode}): {' '.join(cmd)}")
    binary = os.path.join(build_dir, "perfbench")
    if not os.path.isfile(binary):
        fail(f"benchmark binary not built at {binary}")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=["tb-swap", "depth", "serve-mix"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    if not args.selfcheck and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    workdir = os.path.join(ROOT, ".bench_work")
    if args.selfcheck:
        cmd = [binary, "--selfcheck"]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    cmd += ["--workdir", workdir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = proc.stdout.splitlines()
    if args.selfcheck:
        print("\n".join(lines))
        return proc.returncode
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0 or not isinstance(result, dict) or \
            set(result) != RESULT_KEYS:
        print("\n".join(lines), file=sys.stderr)
        fail(f"benchmark exited {proc.returncode} without a valid result line")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
