#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

It checks that
  1. all three workloads run and check out (correct, no failures);
  2. every metric named in BENCHMARK.json is printed, with its unit, on
     every workload: end-to-end ones untraced, per-layer ones traced;
  3. a deliberately wrong expectation (--inject-mismatch) is counted as a
     failed operation (error rate above 0) and makes the run exit non-zero;
     on serve-stream the same flag also registers a tenant the server must
     refuse, and the refusal is counted rather than aborting the run;
  4. two paper-sim runs on one seed report identical modeled counters
     (sim.<machine x mode>.cycles / stall_cycles / energy_pj / matches), so
     a host-only change can show it left the paper's numbers alone.
Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper-sim", "serve-stream", "cpu-engines")
MODELED = ("cycles", "stall_cycles", "energy_pj", "matches")


def run(workload, trace, *extra):
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", "3", "--seconds", "0.2",
        "--trace", str(trace), "--scale", "tiny", *extra,
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    traced = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result, err = run(workload, trace)
            label = f"{workload} trace={trace}"
            check(code == 0 and result is not None, f"{label}: exits 0 with a result")
            if result is None:
                print(err[-2000:])
                continue
            check(
                result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                f"{label}: outputs correct ({result['attempted']} attempted)",
            )
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == wanted[trace], f"{label}: prints exactly the BENCHMARK.json metrics and units")
            if trace:
                traced[workload] = result

        code, result, err = run(workload, 0, "--inject-mismatch")
        check(
            code != 0 and result is not None and not result["correct"]
            and result["failed"] >= 1 and result["failed"] / result["attempted"] > 0,
            f"{workload}: a wrong expectation counts in the error rate and exits non-zero",
        )
        if workload == "serve-stream":
            check(
                result is not None and "refused" in err and result["failed"] >= 2,
                f"{workload}: a refused registration counts in the error rate",
            )

    _, again, _ = run("paper-sim", 1)
    if "paper-sim" in traced and again is not None:
        first, second = traced["paper-sim"]["metrics"], again["metrics"]
        names = [n for n in wanted[1] if n.startswith("sim.") and n.endswith(MODELED)]
        same = all(first[n]["value"] == second[n]["value"] for n in names)
        moving = any(first[n]["value"] != 0 for n in names)
        check(same and moving, f"paper-sim: {len(names)} modeled counters repeat exactly")
    else:
        check(False, "paper-sim: modeled counters repeat exactly")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
