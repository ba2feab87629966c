"""Run reports: canonical JSON plus a human-readable rendering.

The JSON form is byte-identical across runs of the same scenario: keys are
sorted, every value is an int, bool, or string, and nothing time- or
machine-dependent goes in. The exit status of the CLI is derived from the
`violations` list, so a clean report means every invariant held for the
whole run.

A report is plain dicts and lists. Each payment, channel and actor row is
the instance `__dict__` of a small row class, so the rows of a kind share
one key table and a long payment list costs about a third of what dict
literals would. A built row must not gain keys: the first added key gives
that row a table of its own.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii

from .engine import ActorState, ChanRt, Engine, PayRt


def _no_loss(initial, final, settled_in, settled_out, fees) -> bool:
    assets = set(initial) | set(final) | set(settled_in) | set(settled_out) | set(fees)
    for asset in sorted(assets):
        floor = (
            initial.get(asset, 0)
            + settled_in.get(asset, 0)
            - settled_out.get(asset, 0)
            - fees.get(asset, 0)
        )
        if final.get(asset, 0) < floor:
            return False
    return True


# `vars()` of a row class instance is one report row. Each `__init__` sets
# every key, always in the same order: that is what lets a kind's rows share
# their class's key table (PEP 412).


class _PaymentRow:
    def __init__(self, p: PayRt) -> None:
        spec = p.spec
        self.index = p.idx
        self.sender = spec.sender
        self.recipient = spec.recipient
        self.asset = spec.asset
        self.amount = spec.amount
        self.status = p.status
        self.reason = p.reason
        self.cost = p.cost
        self.hops = p.hop_count
        self.started_tick = p.started_tick
        self.resolved_tick = p.resolved_tick


class _ChannelRow:
    def __init__(self, rt: ChanRt) -> None:
        channel = rt.channel
        self.index = rt.idx
        self.chain_id = rt.chain_id
        self.party_a, self.party_b = rt.names
        self.phase = channel.phase.value
        self.updates = channel.commitment_number
        close = channel.close  # its broadcaster, once a unilateral close confirms
        self.closed_by = (close.side or "") if close and close.height is not None else ""


class _ActorRow:
    def __init__(self, actor: ActorState, honest: bool, initial: dict, final: dict,
                 ok: bool) -> None:
        self.kind = actor.kind
        self.honest = honest
        self.initial = dict(sorted(initial.items()))
        self.final = dict(sorted(final.items()))
        self.settled_in = dict(sorted(actor.settled_in.items()))
        self.settled_out = dict(sorted(actor.settled_out.items()))
        self.fees_authorized = dict(sorted(actor.fees.items()))
        self.no_loss = ok


def build_report(engine: Engine) -> dict:
    sc = engine.sc
    violations = list(engine.violations)
    faulty = {f.actor for f in sc.faults}
    genesis: dict[str, dict[str, int]] = {name: {} for name in engine.actors}
    for c in sc.chains:
        for name, amount in c.genesis:
            genesis[name][c.asset] = genesis[name].get(c.asset, 0) + amount

    actors = {}
    for name in sorted(engine.actors):
        actor = engine.actors[name]
        initial = genesis[name]
        final = engine.final_balances(name)
        honest = name not in faulty
        ok = _no_loss(initial, final, actor.settled_in, actor.settled_out, actor.fees)
        if honest and not ok:
            violations.append(
                f"no-honest-loss: actor {name!r} ended below its entitled balance"
            )
        actors[name] = vars(_ActorRow(actor, honest, initial, final, ok))

    chains = {}
    for cid, led in engine.ledgers.items():
        chains[cid] = {
            "asset": led.params.asset_id,
            "height": led.height,
            "burned": led.burned,
            "confirmed_txs": led.confirmed_tx_count,
            "genesis_total": led.genesis_total,
            "utxo_total": led.total_utxo_value(),
        }

    payments = [vars(_PaymentRow(p)) for p in engine.payments]
    channels = [vars(_ChannelRow(rt)) for rt in engine.channels]

    faults = []
    for i, f in enumerate(sc.faults):
        faults.append(
            {
                "kind": f.kind,
                "actor": f.actor,
                "at_tick": f.at_tick,
                "applied": engine.fault_hits[i],
            }
        )

    return {
        "scenario_digest": sc.digest(),
        "seed": sc.seed,
        "ticks": engine.tick,
        "chains": chains,
        "actors": actors,
        "payments": payments,
        "channels": channels,
        "faults": faults,
        "gossip": {
            "converged_tick": engine.gossip_converged_tick,
            "invalid_dropped": sum(
                a.gossip.invalid_dropped for _, a in sorted(engine.actors.items())
            ),
        },
        "metrics": dict(sorted(engine.metrics.items())),
        "violations": violations,
    }


def report_json(report: dict) -> str:
    """Canonical serialization; byte-identical for identical runs.

    The bytes are exactly `json.dumps(report, sort_keys=True, indent=2)`
    plus a newline. json's own `indent` path lists every token before
    joining them; `_encode` instead returns each container as one string,
    so the encoding costs about twice the output, not seven times it.
    """
    return _encode(report, "\n") + "\n"


def _encode(obj, newline: str) -> str:
    """`obj` as json.dumps writes it with sort_keys and indent=2, where
    `newline` starts each line at `obj`'s depth. Strings are escaped to
    ASCII by json's own escaper; dict keys must be strings, and any value
    other than str, None, bool, int, list, tuple or dict (a float
    included) raises TypeError."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = newline + "  "
    # One f-string per container: a chain of `+` would copy its body twice.
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        body = ("," + inner).join([_encode(v, inner) for v in obj])
        return f"[{inner}{body}{newline}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = ("," + inner).join(
            [f"{encode_basestring_ascii(k)}: {_encode(v, inner)}" for k, v in sorted(obj.items())]
        )
        return f"{{{inner}{body}{newline}}}"
    raise TypeError(f"Object of type {type(obj).__name__} is not part of a canonical report")


def render_text(report: dict) -> str:
    lines = []
    lines.append(f"run: {report['ticks']} ticks, seed {report['seed']}")
    lines.append(
        f"gossip converged at tick {report['gossip']['converged_tick']}"
    )
    lines.append("")
    lines.append("chains:")
    for cid, c in report["chains"].items():
        lines.append(
            f"  {cid}: height {c['height']}, {c['confirmed_txs']} txs, "
            f"asset {c['asset']}, burned {c['burned']}"
        )
    lines.append("")
    lines.append("payments:")
    if not report["payments"]:
        lines.append("  (none)")
    for p in report["payments"]:
        detail = f" ({p['reason']})" if p["reason"] else ""
        lines.append(
            f"  [{p['index']}] {p['sender']} -> {p['recipient']}: "
            f"{p['amount']} {p['asset']} {p['status']}{detail}, "
            f"cost {p['cost']}, {p['hops']} hops"
        )
    lines.append("")
    lines.append("actors:")
    for name, a in report["actors"].items():
        balances = ", ".join(f"{amt} {asset}" for asset, amt in a["final"].items()) or "0"
        flag = "" if a["no_loss"] else "  LOSS"
        lines.append(f"  {name} ({a['kind']}): {balances}{flag}")
    lines.append("")
    lines.append("channels:")
    for ch in report["channels"]:
        lines.append(
            f"  [{ch['index']}] {ch['party_a']}--{ch['party_b']} on {ch['chain_id']}: "
            f"{ch['phase']}, {ch['updates']} updates"
        )
    if report["faults"]:
        lines.append("")
        lines.append("faults:")
        for f in report["faults"]:
            lines.append(
                f"  {f['kind']} on {f['actor']} at tick {f['at_tick']} "
                f"(applied {f['applied']}x)"
            )
    lines.append("")
    if report["violations"]:
        lines.append("violations:")
        for v in report["violations"]:
            lines.append(f"  {v}")
    else:
        lines.append("violations: none")
    return "\n".join(lines) + "\n"
