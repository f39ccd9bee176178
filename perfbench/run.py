#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <paper-sim|serve-stream|cpu-engines>
        --seed <n> --seconds <s> --trace <0|1>
        [--scale full|tiny] [--inject-mismatch]

Run it from the repository root. The binary is built with cargo (offline)
into $CARGO_TARGET_DIR, or .bench_build when that is unset. Its standard
output is passed through unchanged; the last line is the result object.
A traced run also writes its spans as JSON lines under
<target dir>/perfbench-trace/. The exit status is the benchmark's: 0 when
every output checked out, non-zero on a mismatch or a failed build.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper-sim", "serve-stream", "cpu-engines")
# The seed claims are developed on; README.md names the held-out one.
DEFAULT_SEED = 1
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--inject-mismatch", action="store_true")
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode

    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--scale", args.scale,
    ]
    if args.trace:
        out = os.path.join(target, "perfbench-trace", f"{args.workload}-{args.seed}.jsonl")
        cmd += ["--trace-out", out]
    if args.inject_mismatch:
        cmd.append("--inject-mismatch")
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} ran past {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
