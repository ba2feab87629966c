"""The scenario validator as it was before the spec fields carried their
schema: every field restated by hand with `_get_int`/`_get_str`. It is the
reference that `tests/test_scenario_schema.py` holds `validate_scenario`
to: an equal `Scenario` and the same diagnostics, in the same order, on
every input. Kept as it was; do not refactor it."""

from __future__ import annotations

import json
from typing import Iterator, Optional, Union

from comit.chainlab import MAX_AMOUNT, HashFnId
from comit.crp.onion import ID_CAP
from comit.crp.quotes import PPM
from comit.simnet.scenario import (
    ActorSpec,
    ChainSpec,
    ChannelSpec,
    CloseSpec,
    FaultSpec,
    PaymentSpec,
    QuoteSpec,
    Scenario,
)

ACTOR_KINDS = ("business", "lp", "user")
FAULT_KINDS = (
    "broadcast-revoked",
    "crash",
    "drop-gossip",
    "refuse-forward",
    "stall-secret",
)
WINDOW_FAULTS = ("drop-gossip", "refuse-forward", "stall-secret")

# until_tick for window faults that never end; one past the largest max_ticks.
FAR_FUTURE = 2**31

MAX_SEED = 2**64 - 1
MAX_CSV_DELAY = 2**32 - 1  # a relative timelock is a u32 in the script bytes
DEFAULT_MAX_TICKS = 500


class _Diags:
    """Accumulates classified, field-addressed diagnostics."""

    def __init__(self) -> None:
        self.errors: list[str] = []

    def parse(self, where: str, msg: str) -> None:
        self.errors.append(f"parse-error: {where}: {msg}")

    def unknown(self, where: str, msg: str) -> None:
        self.errors.append(f"unknown-reference: {where}: {msg}")

    def constraint(self, where: str, msg: str) -> None:
        self.errors.append(f"constraint-violation: {where}: {msg}")


def _str_keys(obj: dict, where: str, d: _Diags) -> list[str]:
    """The string keys of `obj`, sorted; any other key is a parse error
    (JSON cannot produce one, but a dict source can)."""
    keys = []
    for key in obj:
        if isinstance(key, str):
            keys.append(key)
        else:
            d.parse(where, f"key {key!r} is not a string")
    return sorted(keys)


def _get_int(
    obj: dict,
    key: str,
    where: str,
    d: _Diags,
    default: Optional[int] = None,
    lo: Optional[int] = None,
    hi: Optional[int] = None,
) -> Optional[int]:
    if key not in obj:
        if default is not None:
            return default
        d.parse(f"{where}.{key}", "required field is missing")
        return None
    v = obj[key]
    # bool is an int subclass; a JSON true/false here is a type error.
    if not isinstance(v, int) or isinstance(v, bool):
        d.parse(f"{where}.{key}", f"expected an integer, got {v!r}")
        return None
    if lo is not None and v < lo:
        d.constraint(f"{where}.{key}", f"must be >= {lo}, got {v}")
        return None
    if hi is not None and v > hi:
        d.constraint(f"{where}.{key}", f"must be <= {hi}, got {v}")
        return None
    return v


def _get_str(
    obj: dict, key: str, where: str, d: _Diags, default: Optional[str] = None
) -> Optional[str]:
    if key not in obj:
        if default is not None:
            return default
        d.parse(f"{where}.{key}", "required field is missing")
        return None
    v = obj[key]
    if not isinstance(v, str) or not v:
        d.parse(f"{where}.{key}", f"expected a non-empty string, got {v!r}")
        return None
    return v


def _entries(
    doc: dict, section: str, d: _Diags, need: str = ""
) -> Iterator[tuple[int, str, dict]]:
    """Walk the list `doc[section]`, yielding (index, where, entry) for
    each object in it; any other entry is a parse error. With `need`, an
    empty list is one too."""
    items = doc.get(section, [])
    if not isinstance(items, list):
        d.parse(f"document.{section}", f"expected a list, got {type(items).__name__}")
        items = []
    if need and not items:
        d.parse(section, f"at least one {need} is required")
    for i, obj in enumerate(items):
        where = f"{section}[{i}]"
        if isinstance(obj, dict):
            yield i, where, obj
        else:
            d.parse(where, "expected an object")


def _id_ok(value: str, where: str, d: _Diags) -> bool:
    if len(value.encode()) > ID_CAP:  # ids must fit the onion payload fields
        d.constraint(where, f"must be at most {ID_CAP} bytes, got {value!r}")
        return False
    return True


def _parse_chain(where: str, obj: dict, actor_names: set, d: _Diags) -> tuple:
    """(chain_id, asset, hash_fns, block_interval, tx_fee, genesis), None
    where a field is refused; hash_fns is None if no entry of it parsed."""
    chain_id = _get_str(obj, "chain_id", where, d)
    asset = _get_str(obj, "asset", where, d)
    if chain_id is not None:
        _id_ok(chain_id, f"{where}.chain_id", d)
    if asset is not None:
        _id_ok(asset, f"{where}.asset", d)
    fns: list[HashFnId] = []
    raw_fns = obj.get("hash_fns")
    if not isinstance(raw_fns, list) or not raw_fns:
        d.parse(f"{where}.hash_fns", "expected a non-empty list of hash function names")
    else:
        for j, name in enumerate(raw_fns):
            try:
                fn = HashFnId.from_name(name if isinstance(name, str) else repr(name))
            except ValueError:
                d.unknown(f"{where}.hash_fns[{j}]", f"unknown hash function {name!r}")
                continue
            if fn in fns:
                d.constraint(f"{where}.hash_fns[{j}]", f"duplicate entry {name!r}")
                continue
            fns.append(fn)
    interval = _get_int(obj, "block_interval", where, d, default=1, lo=1)
    tx_fee = _get_int(obj, "tx_fee", where, d, default=0, lo=0)
    genesis: list[tuple[str, int]] = []
    raw_gen = obj.get("genesis", {})
    if not isinstance(raw_gen, dict):
        d.parse(f"{where}.genesis", "expected an object mapping actor to amount")
    else:
        for actor in _str_keys(raw_gen, f"{where}.genesis", d):
            if actor not in actor_names:
                d.unknown(f"{where}.genesis.{actor}", f"no actor named {actor!r}")
                continue
            amt = raw_gen[actor]
            if not isinstance(amt, int) or isinstance(amt, bool) or amt <= 0:
                d.constraint(
                    f"{where}.genesis.{actor}", f"amount must be a positive integer, got {amt!r}"
                )
                continue
            if amt > MAX_AMOUNT:
                d.constraint(f"{where}.genesis.{actor}", f"must be <= {MAX_AMOUNT}, got {amt}")
                continue
            genesis.append((actor, amt))
        total = sum(amt for _, amt in genesis)
        if total > MAX_AMOUNT:
            d.constraint(f"{where}.genesis", f"total must be <= {MAX_AMOUNT}, got {total}")
    return chain_id, asset, tuple(fns) or None, interval, tx_fee, tuple(genesis)


def _channel_index(obj: dict, where: str, doc: dict, d: _Diags) -> Optional[int]:
    """The entry's `channel`: an integer >= 0 naming an entry of the
    document's `channels` list, whether or not that entry parsed."""
    chan = _get_int(obj, "channel", where, d, lo=0)
    entries = doc.get("channels")
    if chan is not None and chan >= (len(entries) if isinstance(entries, list) else 0):
        d.unknown(f"{where}.channel", f"no channel with index {chan}")
        return None
    return chan


def _parse_actor(where: str, obj: dict, d: _Diags) -> Optional[ActorSpec]:
    name = _get_str(obj, "name", where, d)
    kind = _get_str(obj, "kind", where, d)
    if kind is not None and kind not in ACTOR_KINDS:
        d.constraint(f"{where}.kind", f"must be one of {ACTOR_KINDS}, got {kind!r}")
        kind = None
    if name is None or kind is None:
        return None
    return ActorSpec(name, kind)


def validate_scenario(source: Union[str, bytes, dict]) -> tuple[Optional[Scenario], list[str]]:
    """Parse and validate a scenario document.

    Returns (scenario, errors). The scenario is None whenever errors is
    non-empty; all detectable problems are reported, not just the first.
    """
    d = _Diags()
    if isinstance(source, (str, bytes)):
        try:
            doc = json.loads(source)
        except (ValueError, RecursionError) as e:  # a JSONDecodeError is a ValueError
            why = f"{e.msg} at line {e.lineno}" if isinstance(e, json.JSONDecodeError) else e
            d.parse("document", f"not valid JSON ({why})")
            return None, d.errors
    else:
        doc = source
    if not isinstance(doc, dict):
        d.parse("document", "top level must be a JSON object")
        return None, d.errors

    known_sections = {
        "seed", "max_ticks", "chains", "actors", "channels",
        "quotes", "payments", "faults", "closes", "name", "comment",
    }
    for key in _str_keys(doc, "document", d):
        if key not in known_sections:
            d.unknown(key, "not a scenario section")

    seed = _get_int(doc, "seed", "document", d, lo=0, hi=MAX_SEED)
    max_ticks = _get_int(
        doc, "max_ticks", "document", d, default=DEFAULT_MAX_TICKS, lo=10, hi=FAR_FUTURE - 1
    )
    last_tick = None if max_ticks is None else max_ticks - 1

    # Actors first: nearly everything else refers to them by name.
    actors: list[ActorSpec] = []
    actor_names: set = set()
    for _, where, obj in _entries(doc, "actors", d, need="actor"):
        spec = _parse_actor(where, obj, d)
        if spec is None:
            continue
        if spec.name in actor_names:
            d.constraint(f"{where}.name", f"duplicate actor {spec.name!r}")
            continue
        actor_names.add(spec.name)
        actors.append(spec)
    kind_of = {a.name: a.kind for a in actors}

    # A chain whose id and asset parsed is registered for references even
    # when another field is refused; only a full parse makes a ChainSpec.
    chains: list[ChainSpec] = []
    fee_of: dict[str, int] = {}  # registered chain id -> tx_fee, 0 if refused
    assets: set = set()
    chain_at: dict[str, int] = {}  # chain id -> document index
    refused_genesis: set = set()  # (chain id, actor) of each refused genesis entry
    for i, where, obj in _entries(doc, "chains", d, need="chain"):
        values = _parse_chain(where, obj, actor_names, d)
        chain_id, asset, _, _, tx_fee, _ = values
        if chain_id is None or asset is None:
            continue
        if chain_id in fee_of:
            d.constraint(f"{where}.chain_id", f"duplicate chain {chain_id!r}")
            continue
        fee_of[chain_id] = tx_fee or 0
        assets.add(asset)
        if None not in values:
            chain_at[chain_id] = i
            chains.append(ChainSpec(*values))
            # a genesis that is not an object refuses every actor's entry
            raw_gen = obj.get("genesis", {})
            kept = {actor for actor, _ in values[5]}
            entries = raw_gen if isinstance(raw_gen, dict) else actor_names
            refused_genesis |= {(chain_id, a) for a in entries if a not in kept}

    # document index -> spec, for each channel entry that parsed
    channel_at: dict[int, ChannelSpec] = {}
    seen_pairs: set = set()
    ends: list[tuple[str, str]] = []  # the parties of each channel entry, refused or not
    for i, where, obj in _entries(doc, "channels", d):
        cid = _get_str(obj, "chain_id", where, d)
        pa = _get_str(obj, "party_a", where, d)
        pb = _get_str(obj, "party_b", where, d)
        fund_a = _get_int(obj, "fund_a", where, d, lo=0)
        fund_b = _get_int(obj, "fund_b", where, d, lo=0)
        csv = _get_int(obj, "csv_delay", where, d, default=6, lo=1, hi=MAX_CSV_DELAY)
        dust = _get_int(obj, "dust_limit", where, d, default=0, lo=0)
        ok = None not in (cid, pa, pb, fund_a, fund_b, csv, dust)
        if pa is not None and pb is not None:
            ends.append((pa, pb))
        if cid is not None and cid not in fee_of:
            d.unknown(f"{where}.chain_id", f"no chain named {cid!r}")
            ok = False
        for field_name, party in (("party_a", pa), ("party_b", pb)):
            if party is not None and party not in actor_names:
                d.unknown(f"{where}.{field_name}", f"no actor named {party!r}")
                ok = False
        if pa is not None and pa == pb:
            d.constraint(f"{where}.party_b", "both ends name the same actor")
            ok = False
        if fund_a is not None and fund_b is not None and fund_a + fund_b <= 0:
            d.constraint(f"{where}.fund_a", "channel capacity must be positive")
            ok = False
        elif (
            fund_a is not None and fund_b is not None and cid in fee_of
            and min(fund_a, fund_b) == 0 and fund_a + fund_b <= 2 * fee_of[cid]
        ):
            d.constraint(
                f"{where}.fund_a",
                "a channel funded by one side must hold more than twice its chain's tx_fee "
                f"({2 * fee_of[cid]}), got {fund_a + fund_b}",
            )
            ok = False
        if not ok:
            continue
        pair = (cid, *sorted((pa, pb)))
        if pair in seen_pairs:
            d.constraint(where, f"a channel between {pa!r} and {pb!r} on {cid!r} already exists")
            continue
        seen_pairs.add(pair)
        channel_at[i] = ChannelSpec(cid, pa, pb, fund_a, fund_b, csv, dust)
    channels = list(channel_at.values())

    # Funding must be covered by genesis allocations on the same chain
    # (party_a also pays the funding tx fee).
    owed: dict[tuple[str, str], int] = {}
    for ch in channels:
        fee = fee_of[ch.chain_id]
        owed[(ch.chain_id, ch.party_a)] = owed.get((ch.chain_id, ch.party_a), 0) + ch.fund_a + fee
        owed[(ch.chain_id, ch.party_b)] = owed.get((ch.chain_id, ch.party_b), 0) + ch.fund_b
    for c in chains:
        held = {actor: amt for actor, amt in c.genesis}
        for (cid, actor), need in sorted(owed.items()):
            if cid != c.chain_id or need == 0 or (cid, actor) in refused_genesis:
                continue
            have = held.get(actor, 0)
            if have < need:
                d.constraint(
                    f"chains[{chain_at[c.chain_id]}].genesis.{actor}",
                    f"holds {have} on {cid!r} but channel funding needs {need}",
                )

    quotes: list[QuoteSpec] = []
    for _, where, obj in _entries(doc, "quotes", d):
        node = _get_str(obj, "node", where, d)
        a_in = _get_str(obj, "asset_in", where, d)
        a_out = _get_str(obj, "asset_out", where, d)
        num = _get_int(obj, "rate_num", where, d, lo=1, hi=MAX_AMOUNT)
        den = _get_int(obj, "rate_den", where, d, lo=1, hi=MAX_AMOUNT)
        base = _get_int(obj, "base_fee", where, d, default=0, lo=0, hi=MAX_AMOUNT)
        ppm = _get_int(obj, "fee_ppm", where, d, default=0, lo=0, hi=PPM - 1)
        ok = None not in (node, a_in, a_out, num, den, base, ppm)
        if node is not None and node not in actor_names:
            d.unknown(f"{where}.node", f"no actor named {node!r}")
            ok = False
        elif node is not None and kind_of.get(node) != "lp":
            d.constraint(f"{where}.node", f"{node!r} is not a liquidity provider")
            ok = False
        for field_name, asset in (("asset_in", a_in), ("asset_out", a_out)):
            if asset is None:
                continue
            if not _id_ok(asset, f"{where}.{field_name}", d):
                ok = False
            elif asset not in assets:
                d.unknown(f"{where}.{field_name}", f"no chain carries asset {asset!r}")
                ok = False
        if ok:
            quotes.append(QuoteSpec(node, a_in, a_out, num, den, base, ppm))

    lp_peers: dict[str, set] = {a.name: set() for a in actors}
    for pa, pb in ends:
        if kind_of.get(pb) == "lp":
            lp_peers.setdefault(pa, set()).add(pb)
        if kind_of.get(pa) == "lp":
            lp_peers.setdefault(pb, set()).add(pa)

    payments: list[PaymentSpec] = []
    for _, where, obj in _entries(doc, "payments", d):
        at_tick = _get_int(obj, "at_tick", where, d, lo=0, hi=last_tick)
        sender = _get_str(obj, "sender", where, d)
        recipient = _get_str(obj, "recipient", where, d)
        amount = _get_int(obj, "amount", where, d, lo=1)
        asset = _get_str(obj, "asset", where, d)
        ok = None not in (at_tick, sender, recipient, amount, asset)
        fn: Optional[HashFnId] = None
        if "hash_fn" in obj and obj["hash_fn"] is not None:
            try:
                fn = HashFnId.from_name(obj["hash_fn"])
            except ValueError:
                d.unknown(f"{where}.hash_fn", f"unknown hash function {obj['hash_fn']!r}")
                ok = False
        for field_name, actor in (("sender", sender), ("recipient", recipient)):
            if actor is not None and actor not in actor_names:
                d.unknown(f"{where}.{field_name}", f"no actor named {actor!r}")
                ok = False
        if sender is not None and sender == recipient:
            d.constraint(f"{where}.recipient", "sender and recipient must differ")
            ok = False
        if asset is not None and asset not in assets:
            d.unknown(f"{where}.asset", f"no chain carries asset {asset!r}")
            ok = False
        if ok:
            for field_name, actor in (("sender", sender), ("recipient", recipient)):
                if kind_of[actor] != "lp" and not lp_peers.get(actor):
                    d.constraint(
                        f"{where}.{field_name}",
                        f"{actor!r} has no channel to a liquidity provider",
                    )
                    ok = False
        if ok:
            payments.append(PaymentSpec(at_tick, sender, recipient, amount, asset, fn))

    faults: list[FaultSpec] = []
    for _, where, obj in _entries(doc, "faults", d):
        kind = _get_str(obj, "kind", where, d)
        actor = _get_str(obj, "actor", where, d)
        breach = kind == "broadcast-revoked"
        at_tick = _get_int(obj, "at_tick", where, d, lo=0, hi=last_tick if breach else None)
        ok = None not in (kind, actor, at_tick)
        if actor is not None and actor not in actor_names:
            d.unknown(f"{where}.actor", f"no actor named {actor!r}")
            ok = False
        if kind not in FAULT_KINDS:  # its kind-specific fields are unknown
            if kind is not None:
                d.unknown(f"{where}.kind", f"unknown fault kind {kind!r}")
            continue
        start = at_tick or 0  # a bad at_tick is reported; check the rest anyway
        duration = 0
        until = FAR_FUTURE
        chan: Optional[int] = None
        if kind == "crash":
            duration = _get_int(obj, "duration", where, d, lo=1)
            until = None if duration is None else start + duration
        elif kind in WINDOW_FAULTS:
            until = _get_int(obj, "until_tick", where, d, default=FAR_FUTURE, lo=start + 1)
        elif kind == "broadcast-revoked":
            until = start + 1
            if "channel" in obj and obj["channel"] is not None:
                chan = _channel_index(obj, where, doc, d)
                spec = channel_at.get(chan)
                if chan is None:
                    ok = False
                elif ok and spec and actor not in (spec.party_a, spec.party_b):
                    d.constraint(f"{where}.channel", f"{actor!r} is not a party of channel {chan}")
                    ok = False
        if ok and until is not None:
            faults.append(FaultSpec(kind, actor, at_tick, until, duration, chan))

    closes: list[CloseSpec] = []
    for _, where, obj in _entries(doc, "closes", d):
        at_tick = _get_int(obj, "at_tick", where, d, lo=0, hi=last_tick)
        chan = _channel_index(obj, where, doc, d)
        if None not in (at_tick, chan):
            closes.append(CloseSpec(at_tick, chan))

    if d.errors:
        return None, d.errors
    return (
        Scenario(
            seed=seed,
            max_ticks=max_ticks,
            chains=tuple(chains),
            actors=tuple(actors),
            channels=tuple(channels),
            quotes=tuple(quotes),
            payments=tuple(payments),
            faults=tuple(faults),
            closes=tuple(closes),
        ),
        [],
    )
