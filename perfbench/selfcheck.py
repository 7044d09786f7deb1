#!/usr/bin/env python3
"""Self-check of the FragVisor-Sim benchmark.

Run from the root of a checkout:

    python3 perfbench/selfcheck.py

1. Every workload, in both modes, prints every metric BENCHMARK.json names,
   with its unit (run.py refuses a result that does not), and passes every
   correctness check.
2. A deliberately wrong expected digest makes the run count as failed:
   correct is false and failed == attempted.
Exits with code 0 when both hold.
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = [sys.executable, str(Path(__file__).resolve().parent / "run.py")]
WORKLOADS = ["avm-omp", "storm64", "cluster128-flash"]


def run(workload, trace, *extra):
    cmd = RUN + ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
                 *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=400)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        return None
    return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])


def main():
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run(workload, trace)
            label = f"{workload} --trace {trace}"
            if result is None:
                problems.append(f"{label}: no result")
            elif not result["correct"] or result["failed"] != 0:
                problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
            else:
                print(f"ok   {label}: {len(result['metrics'])} metrics, "
                      f"{result['attempted']} operations")

    wrong = run("storm64", 0, "--expect-digest", "0123456789abcdef")
    if wrong is None or wrong["correct"] or wrong["failed"] != wrong["attempted"]:
        problems.append(f"wrong expected digest did not fail the run: {wrong}")
    else:
        print(f"ok   wrong expected digest: correct=false, failed={wrong['failed']} of "
              f"{wrong['attempted']}")

    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
