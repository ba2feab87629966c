"""Layer tracing for the benchmark's traced run.

`Tracer.install()` wraps the layer functions at the names the engine looks
them up by (a module-level `from ..crp import find_route` binding is patched
in `comit.simnet.engine`, not in `comit.crp`), and restores them on exit.
Each wrapped call becomes a span: name, start, end, parent and the index of
the scenario it ran in. The two functions that run hundreds of thousands of
times per workload (`ChannelGraph.edges_into`, `GossipState.gossip_step`)
are only counted and timed. A counted call's time stays part of the span it
runs in (`edges_into` is part of `find_route`), except under a harness root
span, where it is charged to its own layer (the engine's `gossip_step`
calls). Spans stay in memory; nothing is written into a report.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import NamedTuple

import comit.simnet.engine as engine_mod
import comit.swap.payment as payment_mod
from comit.chainlab import Ledger
from comit.channels import Channel
from comit.crp import ChannelGraph, GossipState

# (owner, attribute, span name). Several Channel builders share one name.
SPANNED = (
    (engine_mod, "find_route", "crp.find_route"),
    (engine_mod, "onion_peel", "crp.onion_peel"),
    (payment_mod, "onion_create", "crp.onion_create"),
    (ChannelGraph, "from_adverts", "crp.from_adverts"),
    (engine_mod, "make_invoice", "swap.make_invoice"),
    (engine_mod, "prepare_attempt", "swap.prepare_attempt"),
    (engine_mod, "check_forward", "swap.check_forward"),
    (engine_mod, "check_delivery", "swap.check_delivery"),
    (Channel, "add_htlc", "channels.add_htlc"),
    (Channel, "fulfill_htlc", "channels.fulfill_htlc"),
    (Channel, "fail_htlc", "channels.fail_htlc"),
    (Channel, "process_block", "channels.process_block"),
    (Channel, "unilateral_close", "channels.onchain"),
    (Channel, "cooperative_close", "channels.onchain"),
    (Channel, "punish_breach", "channels.onchain"),
    (Channel, "build_htlc_claim", "channels.onchain"),
    (Channel, "build_htlc_refund", "channels.onchain"),
    (Channel, "build_delayed_sweep", "channels.onchain"),
    (Ledger, "submit_tx", "chainlab.submit_tx"),
    (Ledger, "mine_blocks", "chainlab.mine_blocks"),
)
COUNTED = (
    (ChannelGraph, "edges_into", "crp.edges_into"),
    (GossipState, "gossip_step", "crp.gossip_step"),
)
# Span name -> the stat that counts calls ending in an exception.
FAILURE_STAT = {
    "crp.find_route": "no_route",
    "crp.onion_peel": "failed",
    "channels.add_htlc": "failed",
    "swap.check_forward": "rejected",
    "swap.check_delivery": "rejected",
    "chainlab.submit_tx": "rejected",
}
# Span names reported as calls, s (self seconds) and us_per_call.
TIMED = (
    "crp.find_route", "crp.from_adverts", "crp.onion_create", "crp.onion_peel",
    "crp.gossip_step",
    "channels.add_htlc", "channels.fulfill_htlc", "channels.fail_htlc",
    "channels.process_block", "channels.onchain",
    "chainlab.submit_tx", "chainlab.mine_blocks",
    "swap.prepare_attempt", "swap.make_invoice", "swap.check_forward",
    "swap.check_delivery",
)
LAYERS = ("crp", "channels", "chainlab", "swap")
# The harness's own spans around Engine(...), Engine.run and build_report.
BUILD, RUN, REPORT = "simnet.build_world", "simnet.run", "simnet.build_report"


class Span(NamedTuple):
    scenario: int
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    self_s: float  # end - start minus the time of traced calls inside it
    failed: bool


class Tracer:
    """The spans and counters of one traced pass."""

    def __init__(self) -> None:
        self.spans: list = []
        # name -> [calls, seconds, items returned, seconds charged to its layer]
        self.counts: dict[str, list] = {name: [0, 0.0, 0, 0.0] for _, _, name in COUNTED}
        self.scenario = -1
        # open spans: [span index, seconds in traced calls inside it, is root]
        self._stack: list[list] = []

    def _spanned(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)  # reserve the index so children can name it
            frame = [idx, 0.0, not stack]
            stack.append(frame)
            failed = False
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                failed = True
                raise
            finally:
                end = clock()
                stack.pop()
                parent = -1
                if stack:
                    parent = stack[-1][0]
                    stack[-1][1] += end - start
                spans[idx] = Span(self.scenario, name, start, end, parent,
                                  end - start - frame[1], failed)

        return traced

    def _counted(self, name: str, fn):
        stack, clock, totals = self._stack, time.perf_counter, self.counts[name]

        def counted(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            spent = clock() - start
            totals[0] += 1
            totals[1] += spent
            totals[2] += len(result)
            if stack and stack[-1][2]:
                stack[-1][1] += spent
                totals[3] += spent
            return result

        return counted

    @contextmanager
    def install(self):
        """Wrap every traced function for the duration of the block."""
        saved = []
        try:
            for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
                for owner, attr, name in table:
                    original = vars(owner)[attr]
                    saved.append((owner, attr, original))
                    if isinstance(original, classmethod):
                        wrapped = classmethod(make(name, original.__func__))
                    else:
                        wrapped = make(name, original)
                    setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def root(self, name: str, fn, *args):
        """Run `fn(*args)` as a root span of the current scenario."""
        return self._spanned(name, fn)(*args)

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines, parents before children."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **s._asdict()}) + "\n")


def _mean(xs) -> float:
    return sum(xs) / len(xs) if xs else 0.0


def layer_metrics(tracer: Tracer, ticks: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    Function stats cover calls made inside Engine.run; calls made while
    building the world (channel funding) are part of simnet.build_world.s.
    """
    root_of: list[int] = []
    for i, s in enumerate(tracer.spans):
        root_of.append(i if s.parent < 0 else root_of[s.parent])
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    fails: dict[str, int] = {}
    inclusive = {BUILD: 0.0, RUN: 0.0, REPORT: 0.0}
    run_self = 0.0
    updates: dict[str, list[float]] = {"channels.add_htlc": [], "channels.fulfill_htlc": []}
    for i, s in enumerate(tracer.spans):
        if s.parent < 0:
            inclusive[s.name] += s.end - s.start
            if s.name == RUN:
                run_self += s.self_s
            continue
        if tracer.spans[root_of[i]].name != RUN:
            continue
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + s.self_s
        fails[s.name] = fails.get(s.name, 0) + s.failed
        if s.name in updates and not s.failed:
            updates[s.name].append(s.end - s.start)
    charged = {}
    for name, (n, spent, _, own) in tracer.counts.items():
        calls[name] = n
        self_s[name] = spent
        charged[name] = own

    out: dict[str, float] = {}
    for name in TIMED:
        n, spent = calls.get(name, 0), self_s.get(name, 0.0)
        out[f"{name}.calls"] = n
        out[f"{name}.s"] = spent
        out[f"{name}.us_per_call"] = spent / n * 1e6 if n else 0.0
    for name, stat in FAILURE_STAT.items():
        out[f"{name}.{stat}"] = fails.get(name, 0)
    out["crp.edges_into.calls"] = calls["crp.edges_into"]
    out["crp.edges_into.s"] = self_s["crp.edges_into"]
    routes = calls.get("crp.find_route", 0) - fails.get("crp.find_route", 0)
    edges = tracer.counts["crp.edges_into"][2]
    out["crp.edges_per_route"] = edges / routes if routes else 0.0
    for layer in LAYERS:
        out[f"{layer}.s"] = sum(
            charged.get(k, v) for k, v in self_s.items() if k.startswith(layer + ".")
        )
    # One add+fulfill pair, over the first and the last tenth of the pass's
    # channel updates in call order.
    for label, pick in (("first_decile", lambda xs: xs[: max(1, len(xs) // 10)]),
                        ("last_decile", lambda xs: xs[-max(1, len(xs) // 10):])):
        out[f"channels.update_us.{label}"] = 1e6 * sum(
            _mean(pick(xs)) for xs in updates.values()
        )
    out["simnet.build_world.s"] = inclusive[BUILD]
    out["simnet.run.s"] = inclusive[RUN]
    out["simnet.self_s"] = run_self
    out["simnet.tick_ms_mean"] = inclusive[RUN] * 1e3 / ticks if ticks else 0.0
    out["simnet.build_report.s"] = inclusive[REPORT]
    return out
