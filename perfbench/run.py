#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload serve --seed 1 --seconds 20 --trace 0

The first call configures and builds perfbench/CMakeLists.txt (the
library sources under src/ plus the benchmark program, Release) into
.bench_build/perfbench; later calls rebuild incrementally. Build output
goes to stderr, so the last line of stdout is the benchmark's JSON
result. The exit code is the benchmark's: 0 on success, non-zero when
the build fails, a correctness check fails or the arguments are wrong.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"


def build() -> None:
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   stdout=sys.stderr, check=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"build failed: {error}", file=sys.stderr)
        return 1

    result = subprocess.run(
        [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    if result.returncode != 0:
        return result.returncode
    lines = result.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print("benchmark printed no JSON result", file=sys.stderr)
        return 1
    return 0 if report.get("correct") is True else 1


if __name__ == "__main__":
    sys.exit(main())
