"""Declarative scenario files for the simulation harness.

A scenario is a JSON document that fully determines a run: the chains and
their genesis allocations, the actors and their roles, the channels funded
between them, the conversion quotes liquidity providers advertise, the
payments to attempt, the faults to inject, and any scheduled cooperative
closes. Together with the seed it pins every random draw, so two runs of the
same scenario produce byte-identical reports.

`validate_scenario` never raises on bad input; it returns field-precise
diagnostics so the CLI can show everything wrong with a file at once. Each
diagnostic is prefixed with its class: `parse-error` (not JSON / wrong shape),
`unknown-reference` (a name that resolves to nothing), or
`constraint-violation` (a value outside its legal range).

The schema lives on the spec fields. A field's annotation is its type, and
its `_schema(...)` states the rest once: the document key, the default, the
bounds, the allowed values, the `ID_CAP` check on an id, and what the value
refers to. `_walk` reads an entry by it; hand-written code keeps only rules
that span fields or entries (hash function lists, genesis maps, duplicates,
capacity, funding, LP peers, fault windows). Every value the engine packs
into a fixed-width field is bounded there, so no accepted scenario fails on
one, and a payment, close or `broadcast-revoked` fault must come before
`max_ticks`, or the run would end with it still to do.

`Scenario.digest` hashes the specs themselves, so every field of every spec,
plus `seed` and `max_ticks`, is part of a report's `scenario_digest`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Iterator, NamedTuple, Optional, Union, get_type_hints

from ..chainlab import MAX_AMOUNT, HashFnId
from ..channels import empty_commitment
from ..crp.onion import ID_CAP
from ..crp.quotes import PPM

WINDOW_FAULTS = ("drop-gossip", "refuse-forward", "stall-secret")
FAULT_KINDS = ("broadcast-revoked", "crash", *WINDOW_FAULTS)

# until_tick for window faults that never end; one past the largest max_ticks.
FAR_FUTURE = 2**31

_REQUIRED = object()  # the default of a field the document must give


class _Rule(NamedTuple):
    """A spec field's schema: how `_walk` reads the field from an entry.
    The field's annotation is its type."""

    key: str = ""  # the document key, if it is not the field's name
    default: Any = _REQUIRED
    lo: Optional[int] = None
    hi: Optional[int] = None
    # at most max_ticks - 1; a string limits this to entries of that kind
    # (whose first field, `kind`, is that string)
    before_end: Union[bool, str] = False
    choices: tuple[str, ...] = ()
    cap: bool = False  # an id, at most ID_CAP bytes: it fits the onion payload
    ref: str = ""  # what the value names: a key of `_Diags.names`
    differs: Optional[tuple[str, str]] = None  # (other field, message if equal)
    # a hand-written reader (obj, where, d) -> value, for a field no rule fits
    parse: Optional[Callable[[dict, str, _Diags], Any]] = None


def _schema(**rule: Any) -> Any:
    """A spec field carrying its schema, a `_Rule`."""
    return field(metadata={"schema": _Rule(**rule)})


class _Diags:
    """Accumulates classified, field-addressed diagnostics, and holds what
    entries may refer to: `names[ref]` is the collection a `_Rule.ref`
    value must be in, filled section by section, and `last_tick` is
    max_ticks - 1 (None if max_ticks is bad)."""

    def __init__(self) -> None:
        self.errors: list[str] = []
        self.names: dict[str, Any] = {}
        self.last_tick: Optional[int] = None

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


def _hash_fns(obj: dict, where: str, d: _Diags) -> Optional[tuple[HashFnId, ...]]:
    fns: list[HashFnId] = []
    raw_fns = obj.get("hash_fns")
    if not isinstance(raw_fns, list) or not raw_fns:
        d.parse(f"{where}.hash_fns", "expected a non-empty list of hash function names")
        return None
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
    return tuple(fns) or None


def _genesis(obj: dict, where: str, d: _Diags) -> tuple[tuple[str, int], ...]:
    genesis: list[tuple[str, int]] = []
    raw_gen = obj.get("genesis", {})
    if not isinstance(raw_gen, dict):
        d.parse(f"{where}.genesis", "expected an object mapping actor to amount")
        return ()
    for actor in _str_keys(raw_gen, f"{where}.genesis", d):
        if actor not in d.names["actor"]:
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
    return tuple(genesis)


@dataclass(frozen=True, slots=True)
class ChainSpec:
    chain_id: str = _schema(cap=True)
    asset: str = _schema(cap=True)
    hash_fns: tuple[HashFnId, ...] = _schema(parse=_hash_fns)
    mining_interval: int = _schema(key="block_interval", default=1, lo=1)
    tx_fee: int = _schema(default=0, lo=0)
    genesis: tuple[tuple[str, int], ...] = _schema(parse=_genesis)  # sorted by actor


@dataclass(frozen=True, slots=True)
class ActorSpec:
    name: str = _schema()
    kind: str = _schema(choices=("business", "lp", "user"))


@dataclass(frozen=True, slots=True)
class ChannelSpec:
    chain_id: str = _schema(ref="chain")
    party_a: str = _schema(ref="actor")
    party_b: str = _schema(ref="actor", differs=("party_a", "both ends name the same actor"))
    fund_a: int = _schema(lo=0)
    fund_b: int = _schema(lo=0)
    # a relative timelock is a u32 in the script bytes
    csv_delay: int = _schema(default=6, lo=1, hi=2**32 - 1)
    dust_limit: int = _schema(default=0, lo=0)


@dataclass(frozen=True, slots=True)
class QuoteSpec:
    node: str = _schema(ref="lp")
    asset_in: str = _schema(cap=True, ref="asset")
    asset_out: str = _schema(cap=True, ref="asset")
    rate_num: int = _schema(lo=1, hi=MAX_AMOUNT)
    rate_den: int = _schema(lo=1, hi=MAX_AMOUNT)
    base_fee: int = _schema(default=0, lo=0, hi=MAX_AMOUNT)
    fee_ppm: int = _schema(default=0, lo=0, hi=PPM - 1)


@dataclass(frozen=True, slots=True)
class PaymentSpec:
    at_tick: int = _schema(lo=0, before_end=True)
    sender: str = _schema(ref="actor")
    recipient: str = _schema(ref="actor", differs=("sender", "sender and recipient must differ"))
    amount: int = _schema(lo=1)
    asset: str = _schema(ref="asset")
    hash_fn: Optional[HashFnId] = _schema(default=None)


@dataclass(frozen=True, slots=True)
class FaultSpec:
    kind: str = _schema()
    actor: str = _schema(ref="actor")
    at_tick: int = _schema(lo=0, before_end="broadcast-revoked")
    until_tick: int  # exclusive; crash stores at_tick + duration here too
    duration: int  # crash only, 0 otherwise
    channel: Optional[int]  # broadcast-revoked only


@dataclass(frozen=True, slots=True)
class CloseSpec:
    at_tick: int = _schema(lo=0, before_end=True)
    channel: int = _schema(lo=0, ref="channel")


@dataclass(frozen=True, slots=True)
class Scenario:
    seed: int = _schema(lo=0, hi=2**64 - 1)
    # a height stays within a u32 (a script's timelock) up to this tick
    max_ticks: int = _schema(default=500, lo=10, hi=FAR_FUTURE - 1)
    chains: tuple[ChainSpec, ...]
    actors: tuple[ActorSpec, ...]
    channels: tuple[ChannelSpec, ...]
    quotes: tuple[QuoteSpec, ...]
    payments: tuple[PaymentSpec, ...]
    faults: tuple[FaultSpec, ...]
    closes: tuple[CloseSpec, ...]

    def digest(self) -> str:
        """sha256 of `json.dumps(self, sort_keys=True, default=_plain)`, fed
        to the hash field by field and `_DIGEST_BATCH` specs at a time, so
        no string of the whole scenario is ever built."""
        h = hashlib.sha256()
        opening = "{"
        for name in sorted(self.__slots__):
            value = getattr(self, name)
            h.update(f"{opening}{_ENCODE(name)}: ".encode())
            opening = ", "
            if not isinstance(value, tuple):
                h.update(_ENCODE(value).encode())
                continue
            h.update(b"[")
            for start in range(0, len(value), _DIGEST_BATCH):
                batch = _ENCODE(value[start : start + _DIGEST_BATCH])[1:-1]
                h.update(f"{', ' if start else ''}{batch}".encode())
            h.update(b"]")
        h.update(b"}")
        return h.hexdigest()


def _plain(obj: Any) -> Any:
    """json's `default` hook for `Scenario.digest`: a spec is its fields, a
    hash function its name, and a chain's genesis an actor -> amount object,
    so every field of every spec is in the digest without being listed. A
    slotted dataclass's `__slots__` names its fields."""
    if isinstance(obj, HashFnId):
        return obj.value
    plain = {name: getattr(obj, name) for name in obj.__slots__}
    if isinstance(obj, ChainSpec):
        plain["genesis"] = dict(obj.genesis)
    return plain


# Built once: json.dumps with keyword arguments builds a fresh encoder per
# call, which dominates when it is called once per batch.
_ENCODE = json.JSONEncoder(sort_keys=True, default=_plain).encode
_DIGEST_BATCH = 64

# What a `_Rule.ref` value that names nothing is reported as.
_MISSING = {
    "actor": "no actor named {!r}",
    "lp": "no actor named {!r}",
    "chain": "no chain named {!r}",
    "asset": "no chain carries asset {!r}",
    "channel": "no channel with index {}",
}


def _read(obj: dict, where: str, d: _Diags, reads: tuple, values: list) -> list:
    """Append to `values` each field of `reads` read from entry `obj`, and
    return it. A read is (key, type, default, lo, hi, choices, before_end);
    the value is `obj[key]` if it has that type and is within `lo`..`hi`
    (`hi` is max_ticks - 1 under `before_end`) and `choices`, else None and
    a diagnostic. An absent key is `default`."""
    for key, type_, default, lo, hi, choices, before_end in reads:
        if before_end and (before_end is True or before_end == values[0]):
            hi = d.last_tick
        if key not in obj:
            if default is _REQUIRED:
                d.parse(f"{where}.{key}", "required field is missing")
                default = None
            values.append(default)
            continue
        v = obj[key]
        if type_ is int:
            # bool is an int subclass; a JSON true/false here is a type error.
            if not isinstance(v, int) or isinstance(v, bool):
                d.parse(f"{where}.{key}", f"expected an integer, got {v!r}")
                v = None
            elif lo is not None and v < lo:
                d.constraint(f"{where}.{key}", f"must be >= {lo}, got {v}")
                v = None
            elif hi is not None and v > hi:
                d.constraint(f"{where}.{key}", f"must be <= {hi}, got {v}")
                v = None
        elif type_ is str:
            if not isinstance(v, str) or not v:
                d.parse(f"{where}.{key}", f"expected a non-empty string, got {v!r}")
                v = None
            elif choices and v not in choices:
                d.constraint(f"{where}.{key}", f"must be one of {choices}, got {v!r}")
                v = None
        elif v is not None:  # HashFnId, which may be null
            try:
                v = HashFnId.from_name(v)
            except ValueError:
                d.unknown(f"{where}.{key}", f"unknown hash function {v!r}")
                v = None
        values.append(v)
    return values


def _read_int(
    obj: dict, key: str, where: str, d: _Diags, lo: int, default: Any = _REQUIRED
) -> Optional[int]:
    """`_read` of one integer field, for the fields no schema holds."""
    return _read(obj, where, d, ((key, int, default, lo, None, (), False),), [])[0]


def _runs(cls: type) -> tuple:
    """`cls`'s schema compiled for `_walk`: its schema fields in declaration
    order, cut after each field with a hand-written `parse`. Per run: the
    fields' reads for `_read`; (position, key, cap, ref, differs) for each
    field with something to resolve, where `differs` names its field by
    position; and the `parse` that ends the run, or None."""
    schema = [f for f in fields(cls) if "schema" in f.metadata]
    hints = get_type_hints(cls)
    names = [f.name for f in schema]
    runs, reads, resolves = [], [], []
    for i, f in enumerate(schema):
        r = f.metadata["schema"]
        if r.parse is not None:
            runs.append((tuple(reads), tuple(resolves), r.parse))
            reads, resolves = [], []
            continue
        key = r.key or f.name
        reads.append((key, _TYPES[hints[f.name]], r.default, r.lo, r.hi, r.choices, r.before_end))
        if r.cap or r.ref or r.differs:
            differs = r.differs and (names.index(r.differs[0]), r.differs[1])
            resolves.append((i, key, r.cap, r.ref, differs))
    runs.append((tuple(reads), tuple(resolves), None))
    return tuple(runs)


# A schema field's type -> the type `_read` reads it as. A schema field
# (one without a `parse`) must be annotated with one of these types.
_TYPES = {int: int, str: str, Optional[HashFnId]: HashFnId}
_RULES = {
    cls: _runs(cls)
    for cls in (ChainSpec, ActorSpec, ChannelSpec, QuoteSpec, PaymentSpec, FaultSpec,
                CloseSpec, Scenario)
}
_SECTIONS = {f.name for f in fields(Scenario)} | {"name", "comment"}


def _walk(cls: type, obj: dict, where: str, d: _Diags) -> list:
    """Read entry `obj` of spec `cls` by its schema, reporting every problem:
    each run of fields first by type and bound, then by id cap and
    reference, in declaration order; a hand-written `parse` ends a run.
    Returns the schema fields' values in declaration order, None where a
    type or bound failed; a value that fails its cap or reference is kept,
    and its diagnostic tells."""
    values: list = []
    for reads, resolves, parse in _RULES[cls]:
        _read(obj, where, d, reads, values)
        # an id cap, else a reference; then `differs`
        for i, key, cap, ref, differs in resolves:
            v = values[i]
            if v is None:
                continue
            if cap and len(v.encode()) > ID_CAP:
                d.constraint(f"{where}.{key}", f"must be at most {ID_CAP} bytes, got {v!r}")
            elif ref and v not in d.names[ref]:
                d.unknown(f"{where}.{key}", _MISSING[ref].format(v))
            elif ref == "lp" and d.names["lp"][v] != "lp":
                d.constraint(f"{where}.{key}", f"{v!r} is not a liquidity provider")
            if differs and v == values[differs[0]]:
                d.constraint(f"{where}.{key}", differs[1])
        if parse is not None:
            values.append(parse(obj, where, d))
    return values


def _entries(
    doc: dict, section: str, cls: type, d: _Diags, need: str = ""
) -> Iterator[tuple[int, str, dict, list, int]]:
    """Walk the list `doc[section]`, yielding (index, where, entry, values,
    n) for each object in it: `values` is the entry read by `_walk` as a
    `cls`, and `n` the number of diagnostics before it. Any other entry is
    a parse error. With `need`, an empty list is one too."""
    items = doc.get(section, [])
    if not isinstance(items, list):
        d.parse(f"document.{section}", f"expected a list, got {type(items).__name__}")
        items = []
    if need and not items:
        d.parse(section, f"at least one {need} is required")
    for i, obj in enumerate(items):
        where = f"{section}[{i}]"
        if isinstance(obj, dict):
            n = len(d.errors)
            yield i, where, obj, _walk(cls, obj, where, d), n
        else:
            d.parse(where, "expected an object")


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

    for key in _str_keys(doc, "document", d):
        if key not in _SECTIONS:
            d.unknown(key, "not a scenario section")
    seed, max_ticks = _walk(Scenario, doc, "document", d)
    if max_ticks is not None:
        d.last_tick = max_ticks - 1

    # Actors first: nearly everything else refers to them by name.
    actors: list[ActorSpec] = []
    kind_of: dict[str, str] = {}
    d.names["actor"] = d.names["lp"] = kind_of
    for _, where, _, (name, kind), _ in _entries(doc, "actors", ActorSpec, d, need="actor"):
        if name is None or kind is None:
            continue
        if name in kind_of:
            d.constraint(f"{where}.name", f"duplicate actor {name!r}")
            continue
        kind_of[name] = kind
        actors.append(ActorSpec(name, kind))

    # A chain whose id and asset parsed registers both, even when another
    # of its fields (or an id's length) is refused, so what refers to it
    # gets no second diagnostic. Only a chain that parsed in full becomes a
    # ChainSpec.
    fee_of: dict[str, int] = {}  # registered chain id -> tx_fee (0 if refused)
    assets: set[str] = set()
    chains: list[ChainSpec] = []
    chain_at: dict[str, int] = {}  # chain id -> document index
    for i, where, _, v, _ in _entries(doc, "chains", ChainSpec, d, need="chain"):
        cid, asset, _, _, tx_fee, _ = v
        if cid is None or asset is None:
            continue
        if cid in fee_of:
            d.constraint(f"{where}.chain_id", f"duplicate chain {cid!r}")
            continue
        fee_of[cid] = tx_fee or 0
        assets.add(asset)
        if None not in v:
            chains.append(ChainSpec(*v))
            chain_at[cid] = i
    d.names["chain"] = fee_of
    d.names["asset"] = assets
    # A channel index names an entry of the document's list, parsed or not.
    entries = doc.get("channels")
    d.names["channel"] = range(len(entries) if isinstance(entries, list) else 0)

    # document index -> spec, for each channel entry that parsed
    channel_at: dict[int, ChannelSpec] = {}
    seen_pairs: set = set()
    # The actors with a channel to an LP, for the payment rule. A channel
    # entry refused for another field than its parties counts too.
    lp_linked: set[str] = set()
    for i, where, _, v, n in _entries(doc, "channels", ChannelSpec, d):
        cid, pa, pb, fund_a, fund_b = v[:5]
        if pa is not None and pb is not None:
            if kind_of.get(pb) == "lp":
                lp_linked.add(pa)
            if kind_of.get(pa) == "lp":
                lp_linked.add(pb)
        if fund_a is not None and fund_b is not None:
            total = fund_a + fund_b
            fee = fee_of.get(cid, 0)
            if total <= 0:
                d.constraint(f"{where}.fund_a", "channel capacity must be positive")
            elif empty_commitment(fund_a, fund_b, fee):
                # `open_channel` refuses a commitment 0 with no output
                d.constraint(
                    f"{where}.fund_a",
                    "a channel funded by one side must hold more than twice its chain's "
                    f"tx_fee ({2 * fee}), got {total}",
                )
        if len(d.errors) > n:
            continue
        pair = (cid, *sorted((pa, pb)))
        if pair in seen_pairs:
            d.constraint(where, f"a channel between {pa!r} and {pb!r} on {cid!r} already exists")
            continue
        seen_pairs.add(pair)
        channel_at[i] = ChannelSpec(*v)
    channels = list(channel_at.values())

    # Funding must be covered by genesis allocations on the same chain
    # (party_a also pays the funding tx fee).
    owed: dict[tuple[str, str], int] = {}
    for ch in channels:
        fee = fee_of[ch.chain_id]
        owed[(ch.chain_id, ch.party_a)] = owed.get((ch.chain_id, ch.party_a), 0) + ch.fund_a + fee
        owed[(ch.chain_id, ch.party_b)] = owed.get((ch.chain_id, ch.party_b), 0) + ch.fund_b
    for c in chains:
        # An actor whose genesis entry was refused, or every actor when the
        # genesis object was, has its diagnostic already.
        raw = doc["chains"][chain_at[c.chain_id]].get("genesis", {})
        if not isinstance(raw, dict):
            continue
        held = {actor: amt for actor, amt in c.genesis}
        refused = raw.keys() - held.keys()
        for (cid, actor), need in sorted(owed.items()):
            if cid != c.chain_id or need == 0 or actor in refused:
                continue
            have = held.get(actor, 0)
            if have < need:
                d.constraint(
                    f"chains[{chain_at[c.chain_id]}].genesis.{actor}",
                    f"holds {have} on {cid!r} but channel funding needs {need}",
                )

    quotes: list[QuoteSpec] = []
    for _, _, _, v, n in _entries(doc, "quotes", QuoteSpec, d):
        if len(d.errors) == n:
            quotes.append(QuoteSpec(*v))

    payments: list[PaymentSpec] = []
    for _, where, _, v, n in _entries(doc, "payments", PaymentSpec, d):
        if len(d.errors) > n:
            continue
        for field_name, actor in (("sender", v[1]), ("recipient", v[2])):
            if kind_of[actor] != "lp" and actor not in lp_linked:
                d.constraint(
                    f"{where}.{field_name}", f"{actor!r} has no channel to a liquidity provider"
                )
        if len(d.errors) == n:
            payments.append(PaymentSpec(*v))

    faults: list[FaultSpec] = []
    for _, where, obj, (kind, actor, at_tick), n in _entries(doc, "faults", FaultSpec, d):
        if kind not in FAULT_KINDS:  # its kind-specific fields are unknown
            if kind is not None:
                d.unknown(f"{where}.kind", f"unknown fault kind {kind!r}")
            continue
        start = at_tick or 0  # a bad at_tick is reported; check the rest anyway
        duration = 0
        until = FAR_FUTURE
        chan: Optional[int] = None
        if kind == "crash":
            duration = _read_int(obj, "duration", where, d, lo=1)
            until = None if duration is None else start + duration
        elif kind in WINDOW_FAULTS:
            until = _read_int(obj, "until_tick", where, d, lo=start + 1, default=FAR_FUTURE)
        else:  # broadcast-revoked
            until = start + 1
            if obj.get("channel") is not None:
                chan = _read_int(obj, "channel", where, d, lo=0)
                if chan is not None and chan not in d.names["channel"]:
                    d.unknown(f"{where}.channel", _MISSING["channel"].format(chan))
                spec = channel_at.get(chan)
                if spec and len(d.errors) == n and actor not in (spec.party_a, spec.party_b):
                    d.constraint(f"{where}.channel", f"{actor!r} is not a party of channel {chan}")
        if len(d.errors) == n:
            faults.append(FaultSpec(kind, actor, at_tick, until, duration, chan))

    closes: list[CloseSpec] = []
    for _, _, _, v, n in _entries(doc, "closes", CloseSpec, d):
        if len(d.errors) == n:
            closes.append(CloseSpec(*v))

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


def with_seed(scenario: Scenario, seed: int) -> tuple[Optional[Scenario], list[str]]:
    """`scenario` with another seed, checked by the rule a document's seed
    is: (the scenario, []), or (None, the diagnostics)."""
    d = _Diags()
    reads = tuple(r for run in _RULES[Scenario] for r in run[0] if r[0] == "seed")
    (seed,) = _read({"seed": seed}, "document", d, reads, [])
    return (None, d.errors) if d.errors else (replace(scenario, seed=seed), [])


def load_scenario(path: str) -> tuple[Optional[Scenario], list[str]]:
    """Read and validate a scenario file from disk."""
    try:
        with open(path, "rb") as fh:
            text = fh.read()
    except OSError as exc:
        return None, [f"parse-error: {path}: {exc.strerror or exc}"]
    return validate_scenario(text)
