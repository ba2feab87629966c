#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes.

Runs every workload twice in one process, untraced and traced, and checks
that the report digests agree across all four runs, that every run is
correct, that the emitted metric names are exactly those declared in
BENCHMARK.json, and that `--compare` passes equal result sets and fails
differing ones. It is a script, not part of the pytest suite:

    python3 bench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import run

TINY = {
    "corpus": {"count": 12},
    "star": {"users": 8},
    "mesh": {"users": 6, "lps": 4, "businesses": 3, "payments": 8},
    "churn": {"payments": 12},
}


def main() -> int:
    declared = json.loads((run.BENCH.parent / "BENCHMARK.json").read_text())
    names = {
        0: [m["name"] for m in declared["end_to_end"]],
        1: [m["name"] for m in declared["per_layer"]],
    }
    assert sorted(w["name"] for w in declared["workloads"]) == sorted(TINY)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for workload, size in TINY.items():
            recs = []
            for trace in (0, 1, 0, 1):
                spans = str(out / f"{workload}.jsonl") if trace else None
                rec = run.measure(workload, 5, 0, bool(trace), spans, size)
                assert rec["correct"], (workload, trace, rec)
                assert sorted(rec["metrics"]) == sorted(names[trace]), (
                    workload, trace,
                    set(rec["metrics"]) ^ set(names[trace]),
                )
                printed = io.StringIO()
                with contextlib.redirect_stdout(printed):
                    run.print_result(rec)
                last = json.loads(printed.getvalue().splitlines()[-1])
                assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
                assert last["attempted"] >= 1 and last["failed"] == 0
                for name, m in last["metrics"].items():
                    assert sorted(m) == ["unit", "value"], (name, m)
                    assert isinstance(m["value"], (int, float)), (name, m)
                recs.append(rec)
            digests = {r["digest"] for r in recs}
            assert len(digests) == 1, (workload, digests)
            assert (out / f"{workload}.jsonl").stat().st_size > 0
            for side, rec in zip("ab", recs[::2]):
                (out / side).mkdir(exist_ok=True)
                (out / side / f"{workload}.json").write_text(json.dumps(rec))
            print(f"{workload}: digest {recs[0]['digest'][:16]} stable over 4 runs")
        assert run.compare(str(out / "a"), str(out / "b")) == 0
        tampered = json.loads((out / "b" / "mesh.json").read_text())
        tampered["digest"] = "0" * 64
        (out / "b" / "mesh.json").write_text(json.dumps(tampered))
        assert run.compare(str(out / "a"), str(out / "b")) == 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
