#!/usr/bin/env python3
"""Benchmark of the comit-sim simulator.

Generates one of four workloads from a seed, runs every scenario through the
public `comit.simnet` entry points (`validate_scenario`, `Engine`,
`Engine.run`, `build_report`, `report_json`) for the given number of
seconds, checks every canonical report, and prints the metrics. The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. See bench/README.md for the workloads
and the metrics.

    python3 bench/run.py --workload mesh --seed 7 --seconds 10 --trace 0
    python3 bench/run.py --workload mesh --trace 1 --spans bench/out/mesh.jsonl
    python3 bench/run.py --workload star --out bench/out/a/star.json
    python3 bench/run.py --compare bench/out/a bench/out/b
    python3 bench/run.py --pin

It imports the simulator from the `src` directory next to this one and
exits with an error when that is missing.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import math
import signal
import statistics
import sys
import time
import tracemalloc
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from comit.simnet import Engine, build_report, report_json, validate_scenario  # noqa: E402

from layertrace import BUILD, REPORT, RUN, Tracer, layer_metrics  # noqa: E402
from workloads import DEFAULT_SEED, SIZES, generate  # noqa: E402

PINS = BENCH / "digests.json"
PIN_SEEDS = (DEFAULT_SEED, *range(32))
# Worlds without faults, where every payment must settle.
FAULT_FREE = ("star", "mesh", "churn")
# After each timed pass, set-up alone repeats for SETUP_EACH_S (at least
# once), so that set-up samples are spread over the whole run.
SETUP_EACH_S = 0.2
# Host-speed probe: every PROBE_PERIOD_S of a timed section, a signal handler
# times a fixed pure-Python snippet that does not use the simulator.
# PROBE_REF_S is the snippet's median time on the reference host when it is
# not contended (a 2-vCPU Xeon VM, Python 3.11).
PROBE_PERIOD_S = 0.01
PROBE_REF_S = 125e-6


@dataclass
class Pass:
    """One execution of every scenario of a workload."""

    setup_s: float = 0.0
    wall_s: float = 0.0
    scenario_ms: list = field(default_factory=list)
    scenarios: int = 0
    failed: int = 0
    digest: str = ""
    ticks: int = 0
    payments: int = 0
    settled: int = 0
    settle_ticks: list = field(default_factory=list)
    onchain_txs: int = 0
    scale: float = 1.0  # host seconds -> seconds at the reference speed


def _probe_snippet() -> bytes:
    d = {}
    for i in range(60):
        d[str(i)] = (i, [i, i + 1])
    return hashlib.sha256(repr(sorted(d.values(), key=lambda t: -t[0])).encode()).digest()


class HostSpeed:
    """Samples how fast the host runs Python while timed code runs.

    The shared host this benchmark was tuned on changes speed by up to 2.5x,
    within a pass as well as over minutes. `factor` rescales a stretch of
    host time piece by piece: the time between two probes counts at the
    speed the later probe measured. Over 48 `mesh` and 65 `churn` passes in
    one process each, this cut the pass-to-pass spread of `wall_s` (IQR /
    median) from 0.13 and 0.19 raw to 0.04 and 0.05. One factor per pass,
    from the median probe time during it, reached only 0.09 and 0.12.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, probe seconds)

    def _probe(self, _signum, _frame) -> None:
        start = time.perf_counter()
        _probe_snippet()
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self) -> "HostSpeed":
        self._saved = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)

    def factor(self, since: float) -> float:
        """Host seconds -> seconds at the reference host's speed, over the
        time from `since` to now. The stretch after the last probe counts at
        that probe's speed; with no probe since, the last one before rules."""
        now = time.perf_counter()
        taken = self.samples[bisect.bisect_left(self.samples, since, key=lambda s: s[0]):]
        if not taken:
            return PROBE_REF_S / self.samples[-1][1] if self.samples else 1.0
        ref, prev = 0.0, since
        for start, probe_s in taken:
            ref += (start - prev) * PROBE_REF_S / probe_s
            prev = start
        ref += (now - prev) * PROBE_REF_S / taken[-1][1]
        return ref / (now - since)


def _direct(_name, fn, *args):
    return fn(*args)


def problems(workload: str, report: dict) -> list[str]:
    """What is wrong with one canonical report, if anything."""
    found = list(report["violations"])
    for p in report["payments"]:
        if p["status"] not in ("settled", "refunded"):
            found.append(f"payment {p['index']} ended {p['status']}")
        elif workload in FAULT_FREE and p["status"] != "settled":
            found.append(f"payment {p['index']} refunded ({p['reason']}) in a fault-free world")
    if workload == "churn":
        chan, chain = report["channels"][0], report["chains"]["main"]
        if chan["updates"] != 2 * len(report["payments"]) or chain["confirmed_txs"] != 2:
            found.append(f"churn: {chan['updates']} updates, {chain['confirmed_txs']} txs")
    return found


def run_pass(workload: str, seed: int, size: dict | None = None,
             tracer: Tracer | None = None) -> Pass:
    """Set up and run every scenario once; time set-up and run apart."""
    call = tracer.root if tracer else _direct
    out = Pass()
    digest = hashlib.sha256()
    gc.collect()
    t0 = time.perf_counter()
    docs = generate(workload, seed, **(size or {}))
    out.setup_s = time.perf_counter() - t0
    for i, doc in enumerate(docs):
        out.scenarios += 1
        if tracer:
            tracer.scenario = i
        a = time.perf_counter()
        try:
            scenario, errors = validate_scenario(doc)
            if errors:
                raise ValueError(f"invalid scenario: {errors}")
            engine = call(BUILD, Engine, scenario)
            b = time.perf_counter()
            call(RUN, engine.run)
            report = call(REPORT, build_report, engine)
            text = report_json(report)
            c = time.perf_counter()
        except Exception:  # one scenario's crash is a failure, not the run's end
            traceback.print_exc(file=sys.stderr)
            out.failed += 1
            digest.update(b"<raised>\n")
            continue
        out.setup_s += b - a
        out.wall_s += c - b
        out.scenario_ms.append((c - a) * 1e3)
        digest.update(text.encode())
        found = problems(workload, report)
        if found:
            print(f"{workload} scenario {i}: {found[:3]}", file=sys.stderr)
            out.failed += 1
        out.ticks += report["ticks"]
        for p in report["payments"]:
            out.payments += 1
            if p["status"] == "settled":
                out.settled += 1
                out.settle_ticks.append(p["resolved_tick"] - p["started_tick"])
        out.onchain_txs += sum(c["confirmed_txs"] for c in report["chains"].values())
    out.digest = digest.hexdigest()
    return out


def setup_pass(workload: str, seed: int, size: dict | None = None) -> float:
    """The set-up half of a pass alone: generate, validate, build worlds."""
    gc.collect()
    t0 = time.perf_counter()
    for doc in generate(workload, seed, **(size or {})):
        Engine(validate_scenario(doc)[0])
    return time.perf_counter() - t0


def memory_pass(workload: str, seed: int, size: dict | None = None) -> tuple[Pass, float]:
    """An untimed pass under tracemalloc; returns it and its peak in MiB."""
    gc.collect()
    tracemalloc.start()
    try:
        p = run_pass(workload, seed, size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return p, peak / 2**20


def percentile(xs: list, q: float) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    s = sorted(xs)
    return s[max(0, math.ceil(q / 100 * len(s)) - 1)] if s else 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def end_to_end(passes: list[Pass], setups: list[tuple[float, float]], peak_mb: float,
               scaled: bool = True) -> dict:
    """The end-to-end metrics, with host times at the reference speed
    (`scaled`) or as measured. `setups` holds (seconds, scale) pairs."""
    first = passes[0]
    k = [p.scale if scaled else 1.0 for p in passes]
    return {
        "wall_s": statistics.median(f * p.wall_s for f, p in zip(k, passes)),
        "setup_s": statistics.median(t * (f if scaled else 1.0) for t, f in setups),
        "ticks_per_s": statistics.median(_ratio(p.ticks, f * p.wall_s) for f, p in zip(k, passes)),
        "settled_per_s": statistics.median(
            _ratio(p.settled, f * p.wall_s) for f, p in zip(k, passes)),
        "scenario_p50_ms": statistics.median(
            f * percentile(p.scenario_ms, 50) for f, p in zip(k, passes)),
        "scenario_p98_ms": statistics.median(
            f * percentile(p.scenario_ms, 98) for f, p in zip(k, passes)),
        "peak_mem_mb": peak_mb,
        "settled_share": _ratio(first.settled, first.payments),
        "settle_ticks_mean": statistics.fmean(first.settle_ticks or [0]),
        "onchain_txs": first.onchain_txs,
    }


def units() -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them with the bounds."""
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}


def measure(workload: str, seed: int, seconds: float, traced: bool,
            spans_path: str | None = None, size: dict | None = None) -> dict:
    """One benchmark run: returns the result record. `size` overrides the
    workload's generator arguments (for the self-test)."""
    deadline = time.perf_counter() + seconds
    passes: list[Pass] = []  # untraced passes
    speed = HostSpeed()
    if not traced:
        with speed:
            started = time.perf_counter()
            setups: list[tuple[float, float]] = []
            while not passes or time.perf_counter() < deadline:
                mark = time.perf_counter()
                p = run_pass(workload, seed, size)
                p.scale = speed.factor(mark)
                passes.append(p)
                setups.append((p.setup_s, p.scale))
                if p.failed:  # set-up alone could raise
                    continue
                until = time.perf_counter() + SETUP_EACH_S
                while time.perf_counter() < until:
                    mark = time.perf_counter()
                    t = setup_pass(workload, seed, size)
                    setups.append((t, speed.factor(mark)))
            speed_factor = speed.factor(started)
        mem, peak_mb = memory_pass(workload, seed, size)
        checked = passes + [mem]
        metrics = end_to_end(passes, setups, peak_mb)
        raw = end_to_end(passes, setups, peak_mb, scaled=False)
    else:
        traced_passes: list[tuple[Pass, dict]] = []
        passes.append(run_pass(workload, seed, size))
        tracer = None
        while not traced_passes or time.perf_counter() < deadline:
            tracer = Tracer()
            with tracer.install():
                p = run_pass(workload, seed, size, tracer)
            traced_passes.append((p, layer_metrics(tracer, p.ticks)))
            passes.append(run_pass(workload, seed, size))
        if spans_path:
            tracer.dump(spans_path)
        checked = passes + [p for p, _ in traced_passes]
        metrics = {
            key: statistics.median(m[key] for _, m in traced_passes)
            for key in traced_passes[0][1]
        }
        metrics["trace.overhead"] = _ratio(
            statistics.median(p.wall_s for p, _ in traced_passes),
            statistics.median(p.wall_s for p in passes),
        )
        raw = metrics
        speed_factor = 1.0  # traced host times are reported as measured

    pinned = None
    if size is None and PINS.exists():
        pinned = json.loads(PINS.read_text()).get(workload, {}).get(str(seed))
    reference = pinned or checked[0].digest
    failed = 0
    for p in checked:
        failed += p.scenarios if p.digest != reference else p.failed
    attempted = sum(p.scenarios for p in checked)
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(traced),
        "digest": checked[0].digest,
        "pinned": pinned,
        "passes": len(checked),
        "scenario_samples": sum(len(p.scenario_ms) for p in passes) if not traced else 0,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "speed_factor": speed_factor,
        "metrics": metrics,
        "raw_metrics": raw,
    }


def print_result(rec: dict) -> None:
    unit = units()
    pin = "no pinned digest for this seed"
    if rec["pinned"]:
        pin = "matches pinned" if rec["digest"] == rec["pinned"] else "DIFFERS from pinned"
    print(f"workload {rec['workload']} seed {rec['seed']} trace {rec['trace']}: "
          f"{rec['passes']} passes, {rec['scenario_samples']} timed scenario samples")
    print(f"report digest {rec['digest']} ({pin})")
    print(f"failed_share {rec['failed'] / rec['attempted']} "
          f"({rec['failed']} of {rec['attempted']} scenario runs)")
    print(f"host speed factor {rec['speed_factor']:.4f} "
          f"(metrics are at reference speed; raw host figures in brackets)")
    for name, value in rec["metrics"].items():
        print(f"  {name:36s} {value:>16.6f} {unit[name]:6s} [{rec['raw_metrics'][name]:.6f}]")
    print(json.dumps({
        "correct": rec["correct"],
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in rec["metrics"].items()},
    }))


def _records(path: str) -> list[dict]:
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    return [json.loads(f.read_text()) for f in files]


def compare(a: str, b: str) -> int:
    """Compare two result sets; non-zero when any report digest differs."""
    sides = []
    for path in (a, b):
        by_key: dict = {}
        for rec in _records(path):
            by_key.setdefault((rec["workload"], rec["seed"]), []).append(rec)
        sides.append(by_key)
    common = sorted(set(sides[0]) & set(sides[1]))
    if not common:
        print("no workload and seed in common", file=sys.stderr)
        return 1
    status = 0
    for key in common:
        recs = sides[0][key] + sides[1][key]
        digests = {r["digest"] for r in recs}
        same = len(digests) == 1 and all(r["correct"] for r in recs)
        status |= not same
        print(f"{key[0]} seed {key[1]}: reports {'identical' if same else 'DIFFER'}")
        for name in recs[0]["metrics"]:
            va = [r["metrics"][name] for r in sides[0][key] if name in r["metrics"]]
            vb = [r["metrics"][name] for r in sides[1][key] if name in r["metrics"]]
            if va and vb:
                ma, mb = statistics.median(va), statistics.median(vb)
                ratio = f"{mb / ma:.3f}x" if ma else "-"
                print(f"  {name:36s} {ma:>14.6f} -> {mb:>14.6f}  {ratio}")
    return status


def pin() -> int:
    """Recompute the pinned digests (after an intended report change)."""
    table: dict = {}
    for workload in SIZES:
        for seed in PIN_SEEDS:
            p = run_pass(workload, seed)
            if p.failed:
                print(f"{workload} seed {seed}: {p.failed} scenarios failed", file=sys.stderr)
                return 1
            table.setdefault(workload, {})[str(seed)] = p.digest
            print(f"{workload} {seed} {p.digest}", flush=True)
    PINS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(SIZES))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the result record to this file")
    ap.add_argument("--spans", help="with --trace 1, write the last traced pass's spans here")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare two result files or directories of them")
    ap.add_argument("--pin", action="store_true", help="recompute bench/digests.json")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.pin:
        return pin()
    if not args.workload:
        ap.error("--workload is required")
    rec = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.spans)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(rec, indent=1) + "\n")
    print_result(rec)
    return 0 if rec["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
