#!/usr/bin/env python3
"""Builds and runs the mdmatch end-to-end benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <batch_rules|batch_fs|stream_churn>
                             --seed <n> --seconds <s> --trace <0|1>

The library is compiled from ../src with one fixed build type into
.bench_build/perfbench (configured once, rebuilt incrementally), then the
perfbench binary runs the workload. Build output goes to stderr; the last
line of stdout is the binary's JSON result. A traced run also writes its
spans to .bench_build/perfbench/spans-<workload>-<seed>.jsonl.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kwargs):
    """Runs cmd to completion (killing it on timeout); returns its exit code."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"run.py: {cmd[0]} timed out after {timeout}s", file=sys.stderr)
        return 124


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "api", "plan.h")):
        print("run.py: mdmatch sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return 2
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)  # compiler temporaries stay inside
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        code = run(step, BUILD_TIMEOUT_S, stdout=sys.stderr, env=env)
        if code != 0:
            print(f"run.py: build step failed ({code}): {' '.join(step)}",
                  file=sys.stderr)
            return code
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["batch_rules", "batch_fs", "stream_churn"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in [1, 60]")

    code = build()
    if code != 0:
        return code
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out",
                os.path.join(BUILD, f"spans-{args.workload}-{args.seed}.jsonl")]
    sys.stdout.flush()
    return run(cmd, RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
