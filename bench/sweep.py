#!/usr/bin/env python3
"""Scaling sweep at the sizes of the ROADMAP Baseline.

Star with N = 100, 200, 400 users and mesh with U/L/B/P = 10/4/4/20,
20/6/6/40, 40/8/8/80. For each size, prints the median `wall_s` (host
seconds in Engine.run + build_report) of REPEATS passes at the default seed,
as a markdown table. Every report is checked as in `run.py`.

    python3 bench/sweep.py
"""

from __future__ import annotations

import statistics
import sys

import run
from workloads import DEFAULT_SEED

REPEATS = 3
SWEEP = (
    ("star", {"users": 100}),
    ("star", {"users": 200}),
    ("star", {"users": 400}),
    ("mesh", {"users": 10, "lps": 4, "businesses": 4, "payments": 20}),
    ("mesh", {"users": 20, "lps": 6, "businesses": 6, "payments": 40}),
    ("mesh", {"users": 40, "lps": 8, "businesses": 8, "payments": 80}),
)


def main() -> int:
    print("| workload | size | wall_s (median) | x previous size | ticks | settled |")
    print("|---|---|---|---|---|---|")
    previous = {}
    for workload, size in SWEEP:
        passes = [run.run_pass(workload, DEFAULT_SEED, size) for _ in range(REPEATS)]
        if any(p.failed for p in passes):
            print(f"{workload} {size}: a scenario failed", file=sys.stderr)
            return 1
        wall = statistics.median(p.wall_s for p in passes)
        growth = f"{wall / previous[workload]:.1f}" if workload in previous else "-"
        previous[workload] = wall
        label = "/".join(str(v) for v in size.values())
        p = passes[0]
        print(f"| {workload} | {label} | {wall:.3f} | {growth} | {p.ticks} | "
              f"{p.settled}/{p.payments} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
