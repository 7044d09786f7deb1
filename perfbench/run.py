#!/usr/bin/env python3
"""Entry point of the FragVisor-Sim benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload storm64 --seed 1 --seconds 50 --trace 0

Builds the simulator and the fvbench program from source (an optimised CMake
build under $CARGO_TARGET_DIR/perfbench-<checkout hash>; the target directory
defaults to .bench_build), runs one workload, and relays fvbench's output.
The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; before printing it, this script checks that the metrics
are exactly the ones BENCHMARK.json declares for the mode (end_to_end for
--trace 0, per_layer for --trace 1), each with its declared unit.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
BUILD_JOBS = "3"  # the build shares the machine with others; keep it small
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def source_id():
    """Git commit when available, else a digest of every source file."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return "git:" + head.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(top.rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cc", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sha256:" + digest.hexdigest()[:16]


def build():
    # One build directory per checkout, so two checkouts that share the target
    # directory never time each other's binary. Configuring every time is cheap
    # and makes CMake stop if a cache belongs to another source tree.
    checkout = hashlib.sha256(str(BENCH_DIR).encode()).hexdigest()[:12]
    build_dir = (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") /
                 f"perfbench-{checkout}")
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(build_dir), "-j", BUILD_JOBS]]
    for cmd in steps:
        # Build chatter goes to stderr so stdout stays the benchmark's own.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return build_dir


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("fvbench did not end with a JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys are " + ", ".join(sorted(result)))
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    declared = declared_metrics(trace)
    if printed != declared:
        missing = sorted(set(declared) - set(printed))
        extra = sorted(set(printed) - set(declared))
        wrong = sorted(n for n in set(declared) & set(printed) if declared[n] != printed[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, "
             f"wrong unit {wrong}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["avm-omp", "storm64", "cluster128-flash"])
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed; 1 is the default, 1001 the held-out seed")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--expect-digest",
                        help="hex digest to require instead of the pinned one (self-check)")
    args = parser.parse_args()

    if not (BENCH_DIR.parent / "src" / "CMakeLists.txt").is_file():
        fail("simulator sources (src/) not found next to perfbench/; run from a full checkout")
    if not (ROOT / "BENCHMARK.json").is_file():
        fail("BENCHMARK.json not found; run from the root of the checkout")

    build_dir = build()
    cmd = [str(build_dir / "fvbench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--source-id", source_id()]
    if args.trace:
        spans_dir = build_dir / "spans"
        spans_dir.mkdir(exist_ok=True)
        cmd += ["--spans", str(spans_dir / f"{args.workload}-seed{args.seed}.json")]
    if args.expect_digest:
        cmd += ["--expect-digest", args.expect_digest]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"fvbench did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        fail(f"fvbench exited with code {proc.returncode}")
    check_result(lines[-1], args.trace)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
