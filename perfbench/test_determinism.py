#!/usr/bin/env python3
"""Determinism test of the benchmark.

For each workload: two runs at one seed must print the same determinism
digest (a hash of every deterministic counter and tick metric), and a
run at another seed must print a different one. (The windowed-engine
probe is pinned inside every traced run instead: its two runs at two
lanes must agree.)

    python3 perfbench/test_determinism.py            # all workloads
    python3 perfbench/test_determinism.py serve fleet

Exits 0 when every workload passes, 1 otherwise.
"""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ["serve", "recover", "fleet"]


def digest(workload: str, seed: int) -> str:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    for line in out.splitlines():
        if line.startswith("digest "):
            return line.split()[1]
    raise AssertionError(f"{workload}: no digest line in the output")


def main() -> int:
    failures = 0
    for workload in sys.argv[1:] or WORKLOADS:
        first, again, other = digest(workload, 1), digest(workload, 1), \
            digest(workload, 2)
        ok = first == again and first != other
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {workload}: seed 1 {first} / "
              f"{again}, seed 2 {other}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
