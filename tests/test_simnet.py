"""End-to-end tests for the scenario engine, report, and command line."""

import copy
import dataclasses
import hashlib
import itertools
import json
import random
import sys
from collections import Counter
from importlib import resources
from pathlib import Path

import pytest

import comit.crp.graph as graph_mod
import comit.simnet.engine as engine_mod
from comit.chainlab import HashFnId, Outpoint, PayToKey
from comit.chainlab.ledger import Utxo
from comit.channels import CLOSED_ON_CHAIN, Channel, ChannelPhase, Spend
from comit.crp import ChannelGraph, GossipState, NodeKey, onion_create, onion_peel
from comit.simnet import (
    ActorSpec,
    ChainSpec,
    ChannelSpec,
    CloseSpec,
    FaultSpec,
    PaymentSpec,
    QuoteSpec,
    derived_bytes,
    derived_rng,
    load_scenario,
    run_scenario,
    validate_scenario,
)
from comit.simnet.cli import main
from comit.simnet.report import build_report, render_text, report_json
from test_acceptance import random_scenario, workloads
from test_mesh_faults import CORPUS_SEED, MESHES, mesh_doc


def minimal_doc() -> dict:
    """A small two-actor scenario that settles one payment over one channel."""
    return {
        "seed": 7,
        "max_ticks": 60,
        "chains": [
            {
                "chain_id": "main",
                "asset": "coin",
                "hash_fns": ["SHA256"],
                "tx_fee": 2,
                "genesis": {"ann": 50000, "lp": 50000},
            }
        ],
        "actors": [
            {"name": "ann", "kind": "user"},
            {"name": "lp", "kind": "lp"},
        ],
        "channels": [
            {
                "chain_id": "main",
                "party_a": "ann",
                "party_b": "lp",
                "fund_a": 20000,
                "fund_b": 20000,
            }
        ],
        "quotes": [],
        "payments": [
            {"at_tick": 4, "sender": "ann", "recipient": "lp", "amount": 3000, "asset": "coin"}
        ],
        "faults": [],
    }


def run_doc(doc):
    scenario, errors = validate_scenario(doc)
    assert errors == [], errors
    return run_scenario(scenario)


def demo_scenario(name: str):
    path = resources.files("comit.simnet") / "scenarios" / f"{name}.json"
    scenario, errors = validate_scenario(path.read_bytes())
    assert errors == []
    return scenario


def demo_report(name: str) -> dict:
    return run_scenario(demo_scenario(name))


def line_doc() -> dict:
    """minimal_doc plus a user bob behind lp, and ann paying bob through lp."""
    doc = minimal_doc()
    doc["actors"].append({"name": "bob", "kind": "user"})
    doc["chains"][0]["genesis"]["bob"] = 50000
    doc["channels"].append(
        {"chain_id": "main", "party_a": "lp", "party_b": "bob", "fund_a": 20000, "fund_b": 20000}
    )
    doc["quotes"] = [
        {"node": "lp", "asset_in": "coin", "asset_out": "coin", "rate_num": 1, "rate_den": 1}
    ]
    doc["payments"][0]["recipient"] = "bob"
    return doc


# ---------------------------------------------------------------- validation


def test_minimal_scenario_validates():
    scenario, errors = validate_scenario(minimal_doc())
    assert errors == []
    assert scenario.seed == 7
    assert scenario.chains[0].tx_fee == 2
    assert scenario.payments[0].amount == 3000


def test_validate_accepts_json_text_and_rejects_garbage():
    scenario, errors = validate_scenario(json.dumps(minimal_doc()))
    assert scenario is not None and errors == []
    scenario, errors = validate_scenario("{not json")
    assert scenario is None
    assert any(e.startswith("parse-error:") for e in errors)
    scenario, errors = validate_scenario("[1, 2]")
    assert scenario is None


MALFORMED = (b"\x80{}", "[" * 100_000, '{"seed": ' + "9" * 5_000 + "}")


def test_validate_never_raises_on_malformed_documents():
    """Bytes that are not UTF-8, 100,000 nested arrays and an integer
    literal of 5,000 digits each give one `parse-error` line, not an
    exception. A Python with no limit on int-string conversion (before
    3.10.7) parses the integer and refuses it as a seed out of range."""
    for source in MALFORMED:
        scenario, errors = validate_scenario(source)
        assert scenario is None and errors, errors
        if source is not MALFORMED[2] or hasattr(sys, "get_int_max_str_digits"):
            assert len(errors) == 1, errors
            assert errors[0].startswith("parse-error: document: not valid JSON ("), errors
    assert validate_scenario(MALFORMED[0])[1] == [
        "parse-error: document: not valid JSON ('utf-8' codec can't decode byte 0x80 in "
        "position 0: invalid start byte)"]


def test_validate_flags_unknown_section_and_bad_types():
    doc = minimal_doc()
    doc["wormholes"] = []
    doc["seed"] = "eleven"
    _, errors = validate_scenario(doc)
    assert any("wormholes" in e for e in errors)
    assert any("seed" in e and e.startswith("parse-error:") for e in errors)
    # A dict source can carry keys JSON never produces; sorting them
    # together with strings must not raise.
    doc = minimal_doc()
    doc[7] = 1
    doc["chains"][0]["genesis"][8] = 1
    doc["mining"] = {"main": 1}
    scenario, errors = validate_scenario(doc)
    assert scenario is None
    assert "parse-error: document: key 7 is not a string" in errors
    assert "parse-error: chains[0].genesis: key 8 is not a string" in errors
    # a chain's block interval is stated once, in the chain itself
    assert "unknown-reference: mining: not a scenario section" in errors


def test_validate_unknown_references():
    doc = minimal_doc()
    doc["chains"][0]["genesis"]["ghost"] = 100
    doc["channels"][0]["party_b"] = "nobody"
    doc["payments"][0]["asset"] = "moondust"
    doc["faults"] = [{"kind": "crash", "actor": "phantom", "at_tick": 1, "duration": 2}]
    _, errors = validate_scenario(doc)
    joined = "\n".join(errors)
    assert "ghost" in joined
    assert "nobody" in joined
    assert "moondust" in joined
    assert "phantom" in joined
    assert all(
        e.startswith(("parse-error:", "unknown-reference:", "constraint-violation:"))
        for e in errors
    )
    # Every problem of one payment or fault entry is reported, not the first.
    doc = minimal_doc()
    doc["payments"][0].update(hash_fn="md5", sender="zz")
    assert validate_scenario(doc) == (None, [
        "unknown-reference: payments[0].hash_fn: unknown hash function 'md5'",
        "unknown-reference: payments[0].sender: no actor named 'zz'",
    ])
    doc = minimal_doc()
    doc["faults"] = [{"kind": "crash", "actor": "zz", "at_tick": 1, "duration": 0}]
    assert validate_scenario(doc) == (None, [
        "unknown-reference: faults[0].actor: no actor named 'zz'",
        "constraint-violation: faults[0].duration: must be >= 1, got 0",
    ])


def test_validate_channel_index_in_closes_and_faults():
    """A close and a broadcast-revoked fault read their channel index by
    one rule: an integer >= 0 that names a channel of the document."""
    for channels, index, want in (
        (0, 0, "unknown-reference: {}.channel: no channel with index 0"),
        (2, 2, "unknown-reference: {}.channel: no channel with index 2"),
        (2, 5, "unknown-reference: {}.channel: no channel with index 5"),
        (2, -1, "constraint-violation: {}.channel: must be >= 0, got -1"),
    ):
        doc = forward_doc()
        doc["channels"] = doc["channels"][:channels]
        doc["payments"] = []
        doc["faults"] = [{"kind": "broadcast-revoked", "actor": "lp", "at_tick": 1,
                          "channel": index}]
        doc["closes"] = [{"at_tick": 3, "channel": index}]
        assert validate_scenario(doc) == (None, [want.format("faults[0]"),
                                                 want.format("closes[0]")])
    doc["faults"][0]["channel"] = doc["closes"][0]["channel"] = 1
    assert validate_scenario(doc)[1] == []


def test_channel_index_names_the_document_entry_even_if_it_did_not_parse():
    """A bad channel entry shifts no later index: ann is a party of entry 0
    and entry 1 exists, so the one diagnostic is entry 0's own."""
    doc = forward_doc()
    doc["payments"] = []
    doc["channels"][0]["fund_a"] = "x"
    doc["faults"] = [{"kind": "broadcast-revoked", "actor": "ann", "at_tick": 1, "channel": 0}]
    doc["closes"] = [{"at_tick": 3, "channel": 1}]
    assert validate_scenario(doc) == (
        None, ["parse-error: channels[0].fund_a: expected an integer, got 'x'"])


def test_validate_constraint_violations():
    doc = minimal_doc()
    doc["chains"].append(copy.deepcopy(doc["chains"][0]))  # duplicate chain_id
    doc["channels"][0]["party_b"] = "ann"  # channel with itself
    doc["payments"][0]["recipient"] = "ann"  # pay yourself
    _, errors = validate_scenario(doc)
    assert len(errors) >= 3
    assert all(e.startswith("constraint-violation:") for e in errors)
    # Values the engine packs into fixed-width fields: u64 amounts, genesis
    # totals, rates and fees, and a u32 csv_delay.
    u64 = 2**64 - 1
    over = [
        (("chains", 0, "genesis", "ann"), u64 + 1, "chains[0].genesis.ann: must be <= {u64}"),
        (("chains", 0, "genesis", "ann"), u64 - 99999, "chains[0].genesis: total must be <= {u64}"),
        (("quotes", 0, "rate_num"), u64 + 1, "quotes[0].rate_num: must be <= {u64}"),
        (("quotes", 0, "rate_den"), u64 + 1, "quotes[0].rate_den: must be <= {u64}"),
        (("quotes", 0, "base_fee"), u64 + 1, "quotes[0].base_fee: must be <= {u64}"),
        (("channels", 0, "csv_delay"), 2**32, "channels[0].csv_delay: must be <= 4294967295"),
    ]
    for (*path, key), value, want in over:
        doc = line_doc()
        obj = doc
        for step in path:
            obj = obj[step]
        obj[key] = value
        scenario, errors = validate_scenario(doc)
        assert scenario is None
        assert any(e.startswith("constraint-violation: " + want.format(u64=u64)) for e in errors)
        assert all(e.startswith("constraint-violation:") for e in errors)
    # A payment, close or revoked broadcast the run (max_ticks 60) ends before.
    for at_tick, close_tick, want in ((59, 59, []), (60, 2**70, [
        "constraint-violation: payments[0].at_tick: must be <= 59, got 60",
        "constraint-violation: faults[0].at_tick: must be <= 59, got 60",
        f"constraint-violation: closes[0].at_tick: must be <= 59, got {2**70}",
    ])):
        doc = line_doc()
        doc["payments"][0]["at_tick"] = at_tick
        doc["faults"] = [
            {"kind": "broadcast-revoked", "actor": "ann", "at_tick": at_tick, "channel": 0}
        ]
        doc["closes"] = [{"at_tick": close_tick, "channel": 0}]
        scenario, errors = validate_scenario(doc)
        assert errors == want
        assert (scenario is None) == bool(want)


@pytest.mark.parametrize(
    "limit",
    ["rates", "genesis-total", "csv-delay-breach"],
)
def test_value_limits_validate_and_run(limit):
    doc = line_doc()
    if limit == "rates":
        doc["quotes"][0].update(rate_num=2**64 - 1, rate_den=2**64 - 1)
    elif limit == "genesis-total":
        doc["chains"][0]["genesis"]["ann"] = 2**64 - 1 - 100000
    else:
        doc["channels"][0]["csv_delay"] = 2**32 - 1
        doc["faults"] = [
            {"kind": "broadcast-revoked", "actor": "ann", "at_tick": 8, "channel": 0}
        ]
    report = run_doc(doc)
    assert report["violations"] == []
    assert report["payments"][0]["status"] in ("settled", "refunded")


@pytest.mark.parametrize(
    "section", ["actors", "chains", "channels", "quotes", "payments", "faults", "closes"]
)
def test_validate_non_object_section_entry(section):
    doc = line_doc()
    doc.setdefault(section, []).append(["not", "an", "object"])
    i = len(doc[section]) - 1
    scenario, errors = validate_scenario(doc)
    assert scenario is None
    assert errors == [f"parse-error: {section}[{i}]: expected an object"]


def test_validate_genesis_must_cover_funding():
    doc = minimal_doc()
    doc["channels"][0]["fund_a"] = 50001
    _, errors = validate_scenario(doc)
    assert any("genesis" in e and e.startswith("constraint-violation:") for e in errors)
    # party_a also owes the funding fee on top of its side
    doc = minimal_doc()
    doc["channels"][0]["fund_a"] = 50000
    _, errors = validate_scenario(doc)
    assert any(e.startswith("constraint-violation:") for e in errors)


def test_validate_funding_diagnostic_names_the_chains_document_index():
    """A chain entry that does not parse still counts in the index the
    funding diagnostic gives the chain it names."""
    doc = minimal_doc()
    doc["chains"].insert(0, {"chain_id": "side", "asset": "gold", "hash_fns": "SHA256",
                             "genesis": {"ann": 10}})
    doc["channels"][0]["fund_a"] = 60000
    _, errors = validate_scenario(doc)
    assert errors == [
        "parse-error: chains[0].hash_fns: expected a non-empty list of hash function names",
        "constraint-violation: chains[1].genesis.ann: holds 50000 on 'main' "
        "but channel funding needs 60002",
    ]


def test_validate_max_ticks_keeps_every_height_within_a_u32():
    """max_ticks is at most FAR_FUTURE - 1 (2**31 - 1): heights, one block
    per tick at most, then stay far below 2**32, where a script's timelock
    would no longer fit its u32."""
    doc = minimal_doc()
    doc["max_ticks"] = 2**31
    scenario, errors = validate_scenario(doc)
    assert scenario is None
    assert errors == [
        "constraint-violation: document.max_ticks: must be <= 2147483647, got 2147483648"
    ]
    doc["max_ticks"] = 2**31 - 1
    assert validate_scenario(doc)[1] == []


def test_validate_quotes_only_from_lps():
    doc = minimal_doc()
    doc["quotes"] = [
        {
            "node": "ann",
            "asset_in": "coin",
            "asset_out": "coin",
            "rate_num": 1,
            "rate_den": 1,
            "base_fee": 0,
            "fee_ppm": 0,
        }
    ]
    _, errors = validate_scenario(doc)
    assert any("ann" in e and e.startswith("constraint-violation:") for e in errors)


def test_validate_fault_windows():
    doc = minimal_doc()
    doc["faults"] = [
        {"kind": "crash", "actor": "lp", "at_tick": 3},  # missing duration
        {"kind": "refuse-forward", "actor": "lp", "at_tick": 9, "until_tick": 9},
        {"kind": "broadcast-revoked", "actor": "ann", "at_tick": 5, "channel": 4},
    ]
    _, errors = validate_scenario(doc)
    assert len(errors) >= 3


def test_validate_user_needs_lp_channel():
    doc = minimal_doc()
    doc["actors"][1]["kind"] = "business"
    _, errors = validate_scenario(doc)
    assert any("liquidity provider" in e or "lp" in e for e in errors)


def set_path(*path):
    """An edit setting the entry at `path[:-1]` of a document to `path[-1]`."""
    def edit(doc):
        obj = doc
        for step in path[:-2]:
            obj = obj[step]
        obj[path[-2]] = path[-1]
    return edit


def test_validate_reports_each_rule_of_chains_actors_channels_and_faults():
    """One edit of minimal_doc (forward_doc for the last) and the first
    diagnostic it gets, for each rule no other test reaches. An entry
    refused for one field still registers what its other fields name, so
    most edits get that diagnostic alone: a chain refused for its hash
    functions still names its chain and asset, and a channel refused for
    its funding still links its user to an LP, and a refused genesis
    amount is not also reported as unmet funding. With no actors every name
    in the document is unknown. A missing file is a parse error naming its
    path."""
    no_actors = "parse-error: actors: at least one actor is required"
    follow_ons = {no_actors: 6}
    for make, edit, want in (
        (minimal_doc, set_path("chains", 0, "hash_fns", ["MD5"]),
         "unknown-reference: chains[0].hash_fns[0]: unknown hash function 'MD5'"),
        (minimal_doc, set_path("chains", 0, "hash_fns", ["SHA256", "SHA256"]),
         "constraint-violation: chains[0].hash_fns[1]: duplicate entry 'SHA256'"),
        (minimal_doc, set_path("chains", 0, "genesis", "ann", 0),
         "constraint-violation: chains[0].genesis.ann: amount must be a positive integer, got 0"),
        (minimal_doc, set_path("chains", 0, "genesis", "ann", 2**64),
         f"constraint-violation: chains[0].genesis.ann: must be <= {2**64 - 1}, got {2**64}"),
        (minimal_doc, set_path("chains", 0, "genesis", "x"),
         "parse-error: chains[0].genesis: expected an object mapping actor to amount"),
        (minimal_doc, set_path("payments", {}),
         "parse-error: document.payments: expected a list, got dict"),
        (minimal_doc, set_path("actors", []), no_actors),
        (minimal_doc, lambda doc: doc["actors"].append({"name": "ann", "kind": "user"}),
         "constraint-violation: actors[2].name: duplicate actor 'ann'"),
        (minimal_doc, lambda doc: doc["channels"][0].update(fund_a=0, fund_b=0),
         "constraint-violation: channels[0].fund_a: channel capacity must be positive"),
        (minimal_doc, lambda doc: doc["channels"][0].update(fund_a=3, fund_b=0),
         "constraint-violation: channels[0].fund_a: a channel funded by one side must hold "
         "more than twice its chain's tx_fee (4), got 3"),
        (minimal_doc, lambda doc: doc["channels"].append(dict(doc["channels"][0])),
         "constraint-violation: channels[1]: a channel between 'ann' and 'lp' on 'main' "
         "already exists"),
        (minimal_doc, set_path("faults", [{"kind": "meteor", "actor": "ann", "at_tick": 1}]),
         "unknown-reference: faults[0].kind: unknown fault kind 'meteor'"),
        (forward_doc, set_path("faults", [{"kind": "broadcast-revoked", "actor": "ann",
                                           "at_tick": 1, "channel": 1}]),
         "constraint-violation: faults[0].channel: 'ann' is not a party of channel 1"),
    ):
        doc = make()
        edit(doc)
        scenario, errors = validate_scenario(doc)
        assert scenario is None and errors[0] == want, errors
        assert len(errors) == 1 + follow_ons.get(want, 0), errors
    missing = str(Path(__file__).with_name("no-such-scenario.json"))
    assert not Path(missing).exists()
    scenario, errors = load_scenario(missing)
    assert scenario is None and len(errors) == 1
    assert errors[0].startswith(f"parse-error: {missing}: "), errors


def test_validate_accepts_only_channels_the_engine_can_open():
    """Over tx_fee 0-3 and fund_a, fund_b 0-9 of minimal_doc's channel, a
    document is refused exactly when its commitment 0 would have no output
    (no capacity, or one side funded 0 and the other at most two fees);
    every other one builds an Engine."""
    grid = list(itertools.product(range(4), range(10), range(10)))
    refused = []
    for fee, fund_a, fund_b in grid:
        doc = minimal_doc()
        doc["chains"][0]["tx_fee"] = fee
        doc["channels"][0].update(fund_a=fund_a, fund_b=fund_b)
        scenario, errors = validate_scenario(doc)
        if scenario is None:
            assert errors[0].startswith("constraint-violation: channels[0].fund_a: "), errors
            refused.append((fee, fund_a, fund_b))
        else:
            engine_mod.Engine(scenario)
    assert refused == [(fee, a, b) for fee, a, b in grid if min(a, b) == 0 and max(a, b) <= 2 * fee]
    assert len(refused) == 4 + 24  # no capacity at each fee, and 24 one-sided


# -------------------------------------------------------------- determinism


def test_report_bytes_are_reproducible():
    doc = minimal_doc()
    a = report_json(run_doc(doc))
    b = report_json(run_doc(doc))
    assert a == b
    assert a.endswith("\n")
    parsed = json.loads(a)
    assert parsed["violations"] == []


def test_seed_changes_digest_but_not_outcome():
    doc = minimal_doc()
    r1 = run_doc(doc)
    doc["seed"] = 8
    r2 = run_doc(doc)
    assert r1["scenario_digest"] != r2["scenario_digest"]
    assert r1["payments"][0]["status"] == r2["payments"][0]["status"] == "settled"


DEMO_DIGESTS = {
    "breach-punish": "0e6ce1d9b0c2264d65c7c79b0677e0052eb6fa2427ed6a7056188386b8b12eb2",
    "cross-chain-2lp": "b81bb12acd5d3e98c03f6416e8580fa83f13d0639b849951199204b32fcc84ab",
    "refund-cascade": "cef9b7fd03f7ffebeb7dd95f9e59a731bed62a3ac093a04d1a694cc36b2b741d",
    "single-hop": "707d86c672b77f9a29183c91d6b07a1990ff7dfe118bda1e3336a950e7aebe96",
}


def test_demo_scenario_digests_are_pinned():
    for name, digest in DEMO_DIGESTS.items():
        assert demo_scenario(name).digest() == digest, name
        assert demo_report(name)["scenario_digest"] == digest, name


# sha256 of each demo's `render_text`: the CLI's text format, pinned apart
# from the canonical JSON, which it reads through the report dict.
TEXT_DIGESTS = {
    "breach-punish": "93cb63b30458d385a1ef7a090928f95c1cf6e8902b396ce950e00d90ef26ade8",
    "cross-chain-2lp": "19a55697159fa9ec181627f3a706a073d2102993dd4b779d23c6c25b47df808d",
    "refund-cascade": "59727f9d70c989b4984dd2bd5c1e5aba53d59eaa4789e091cf5d66a2af17d12d",
    "single-hop": "0e9da7cd3d08f53149d51e8ea6c01f5d9753feb1628e0ee8e78c11c6814870e5",
}


def test_demo_text_reports_are_pinned():
    assert TEXT_DIGESTS.keys() == DEMO_DIGESTS.keys()
    for name, digest in TEXT_DIGESTS.items():
        text = render_text(demo_report(name))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, name


# How the cross-chain-2lp demo's world derives its keys and secrets. Mesh
# route order breaks cost ties by node pubkeys, so a change to the actor key
# streams moves the mesh pins of bench/digests.json; each row names the
# derivation that moved first.
DERIVATION_DEMO = "cross-chain-2lp"
DEMO_LP1_NODE_PUBKEY = "db9e2e1c9c056f57bbae84b4e6acf4ced34eef5f35897c53b8739d8a4d5c5071"
DEMO_ANA_ALPHA_PUBKEY = "40fa092bf724667133fbb1136c0a3c77381415c6e94a8a3db926a69487658988"


def _signatures_stay_with_their_key(engine):
    """No wallet key's signature verifies under another key's pubkey, as
    signed or relabelled with that pubkey."""
    keys = [key for actor in engine.actors.values() for key in actor.wallet.values()]
    assert len({key.pubkey for key in keys}) == len(keys) > 1
    digest = bytes(range(32))
    for key in keys:
        sig = key.sign(digest)
        for other in keys:
            relabelled = dataclasses.replace(sig, pubkey=other.pubkey)
            if other is not key and (sig.verifies(other.pubkey, digest)
                                     or relabelled.verifies(other.pubkey, digest)):
                return False
    return True


@pytest.mark.parametrize("holds", [
    lambda e: e.actors["lp1"].node_key.pubkey.hex() == DEMO_LP1_NODE_PUBKEY,
    lambda e: e.actors["ana"].wallet["alpha"].pubkey.hex() == DEMO_ANA_ALPHA_PUBKEY,
    lambda e: all(rt.party(name).revocation_seed == derived_bytes(e.sc.seed, "chan", rt.idx, name)
                  for rt in e.channels for name in rt.names),
    lambda e: all(derived_rng(e.sc.seed, *parts).randbytes(64)
                  == random.Random(int.from_bytes(derived_bytes(e.sc.seed, *parts), "big")).randbytes(64)
                  for parts in (("actor", "ana", "keys"), ("payment", 0))),
    _signatures_stay_with_their_key,
], ids=["node-pubkey", "wallet-pubkey", "revocation-seed-is-a-hash", "stream-is-seeded-by-the-hash",
        "signature-under-another-pubkey"])
def test_world_derivation_is_pinned(holds):
    assert holds(engine_mod.Engine(demo_scenario(DERIVATION_DEMO)))


def _other(value):
    """A value of the same shape as `value` that differs from it."""
    if isinstance(value, HashFnId):
        return next(fn for fn in HashFnId if fn is not value)
    if isinstance(value, tuple):
        assert value
        return value[:-1]
    if value is None:
        return 1
    return value + (1 if isinstance(value, int) else "x")


def test_digest_covers_every_spec_field():
    sections = {
        "chains": ChainSpec,
        "actors": ActorSpec,
        "channels": ChannelSpec,
        "quotes": QuoteSpec,
        "payments": PaymentSpec,
        "faults": FaultSpec,
        "closes": CloseSpec,
    }
    seen = set()
    for name in DEMO_DIGESTS:
        sc = demo_scenario(name)
        sc = dataclasses.replace(sc, closes=sc.closes + (CloseSpec(at_tick=5, channel=0),))
        base = sc.digest()
        for field in ("seed", "max_ticks"):
            changed = dataclasses.replace(sc, **{field: getattr(sc, field) + 1})
            assert changed.digest() != base, field
        for section in sections:
            specs = getattr(sc, section)
            for i, spec in enumerate(specs):
                for f in dataclasses.fields(spec):
                    new = dataclasses.replace(spec, **{f.name: _other(getattr(spec, f.name))})
                    changed = dataclasses.replace(
                        sc, **{section: specs[:i] + (new,) + specs[i + 1:]}
                    )
                    assert changed.digest() != base, (name, section, i, f.name)
                    seen.add((section, f.name))
    # the demos (plus the added close) replaced every field of every spec
    for section, spec_cls in sections.items():
        assert {(section, f.name) for f in dataclasses.fields(spec_cls)} <= seen


# ------------------------------------------------------------ demo behavior


def test_demo_single_hop_settles():
    report = demo_report("single-hop")
    pay = report["payments"][0]
    assert pay["status"] == "settled" and pay["cost"] == 2500
    assert report["actors"]["alice"]["final"] == {"ACN": 97500}
    assert report["actors"]["lou"]["final"] == {"ACN": 102500}
    assert report["violations"] == []
    # the funding transaction is the only on-chain footprint
    assert report["chains"]["alpha"]["confirmed_txs"] == 1


def test_demo_cross_chain_settles_off_chain():
    report = demo_report("cross-chain-2lp")
    pay = report["payments"][0]
    assert pay["status"] == "settled"
    assert pay["hops"] == 3
    assert pay["cost"] == 5004  # 10000 BCN at 2:1 plus both LP fees
    actors = report["actors"]
    assert actors["bo"]["final"]["BCN"] - actors["bo"]["initial"]["BCN"] == 10000
    assert actors["ana"]["initial"]["ACN"] - actors["ana"]["final"]["ACN"] == 5004
    # each LP ends at least".whole" per asset: forwarding never loses money
    for lp in ("lp1", "lp2"):
        assert actors[lp]["no_loss"] is True
    # nothing hit the chains beyond the three channel fundings
    assert report["chains"]["alpha"]["confirmed_txs"] == 1
    assert report["chains"]["beta"]["confirmed_txs"] == 2
    assert all(c["phase"] == "open" for c in report["channels"])
    assert report["violations"] == []


def test_demo_refund_cascade_restores_everyone():
    report = demo_report("refund-cascade")
    pay = report["payments"][0]
    assert pay["status"] == "refunded"
    assert pay["reason"] == "refused-forward"
    assert pay["hops"] == 2  # the refusal happened at the second LP
    for info in report["actors"].values():
        assert info["final"] == info["initial"]
    assert report["faults"][0]["applied"] >= 1
    assert all(c["phase"] == "open" for c in report["channels"])
    assert report["violations"] == []


def test_demo_breach_punish_strips_cheater():
    report = demo_report("breach-punish")
    assert report["payments"][0]["status"] == "settled"
    actors = report["actors"]
    # vic keeps the payment and sweeps mal's whole channel balance
    assert actors["vic"]["final"]["DCN"] == 70000
    assert actors["mal"]["final"]["DCN"] == 10000
    assert actors["mal"]["honest"] is False
    assert actors["vic"]["no_loss"] is True
    assert report["channels"][0]["phase"] == "settled"
    assert report["faults"][0]["applied"] == 1
    assert report["violations"] == []


# -------------------------------------------------------- feature scenarios


def test_scheduled_cooperative_close():
    doc = minimal_doc()
    doc["closes"] = [{"at_tick": 8, "channel": 0}]
    report = run_doc(doc)
    chan = report["channels"][0]
    assert chan["phase"] == "settled"
    assert chan["updates"] == 2  # the one payment before the close
    # funding plus one settlement transaction, nothing else
    assert report["chains"]["main"]["confirmed_txs"] == 2
    assert report["actors"]["ann"]["final"]["coin"] < 50000  # paid 3000 and fees
    assert report["violations"] == []


def test_stall_secret_forces_on_chain_resolution():
    doc = minimal_doc()
    doc["faults"] = [
        {"kind": "stall-secret", "actor": "lp", "at_tick": 0}  # never reveals
    ]
    report = run_doc(doc)
    pay = report["payments"][0]
    assert pay["status"] == "refunded"
    assert report["channels"][0]["phase"] == "settled"
    ann = report["actors"]["ann"]
    assert ann["no_loss"] is True
    # ann got the held amount back on-chain, minus authorized fees only
    assert ann["final"]["coin"] + ann["fees_authorized"]["coin"] == 50000
    assert report["violations"] == []

    # Two overlapping stalls: the settle waits for the shorter one to end,
    # then for the longer one; the HTLC nears expiry first, ann closes, the
    # stalling lp does not claim on-chain, and ann refunds.
    doc["faults"] = [
        {"kind": "stall-secret", "actor": "lp", "at_tick": 3, "until_tick": 12},
        {"kind": "stall-secret", "actor": "lp", "at_tick": 4, "until_tick": 8},
    ]
    report = run_doc(doc)
    pay = report["payments"][0]
    assert (pay["status"], pay["reason"]) == ("refunded", "expired")
    assert report["metrics"]["stall_blocks"] == 2
    assert [f["applied"] for f in report["faults"]] == [3, 1]
    assert report["violations"] == []


@pytest.mark.parametrize("amount", [1, 2])
def test_htlc_no_larger_than_the_fee_is_refused(amount):
    """An HTLC output of at most `tx_fee` (2) could never be claimed or
    refunded on chain, so the channel refuses it and the payment refunds at
    once instead of holding the channel open until `max_ticks`."""
    doc = minimal_doc()
    doc["payments"][0]["amount"] = amount
    doc["faults"] = [{"kind": "stall-secret", "actor": "lp", "at_tick": 0}]
    report = run_doc(doc)
    pay = report["payments"][0]
    assert (pay["status"], pay["reason"]) == ("refunded", f"first-hop: {amount} <= tx_fee 2")
    assert report["violations"] == []


def test_delayed_output_no_larger_than_the_fee_is_trimmed():
    """After paying 19,993 of its 20,000, ann's commitment keeps 7 coins:
    2 pay its fee and 5 go to its delayed output. The second payment holds
    3 in an HTLC, so the delayed output is 2, no larger than the fee of its
    sweep. It becomes commitment fee, and the stalled HTLC refunds."""
    doc = minimal_doc()
    doc["max_ticks"] = 120
    doc["payments"] = [
        {"at_tick": 4, "sender": "ann", "recipient": "lp", "amount": 19993, "asset": "coin"},
        {"at_tick": 12, "sender": "ann", "recipient": "lp", "amount": 3, "asset": "coin"},
    ]
    doc["faults"] = [{"kind": "stall-secret", "actor": "lp", "at_tick": 10}]
    report = run_doc(doc)
    assert [p["status"] for p in report["payments"]] == ["settled", "refunded"]
    assert report["channels"][0]["phase"] == "settled"
    ann = report["actors"]["ann"]
    assert ann["fees_authorized"] == {"coin": 8}  # funding 2, commitment 2 + 2, refund 2
    assert ann["final"]["coin"] + ann["fees_authorized"]["coin"] == 50000 - 19993
    assert report["violations"] == []


def test_crash_delays_but_does_not_lose_payment():
    doc = minimal_doc()
    doc["faults"] = [{"kind": "crash", "actor": "lp", "at_tick": 3, "duration": 4}]
    report = run_doc(doc)
    pay = report["payments"][0]
    assert pay["status"] == "settled"
    assert pay["resolved_tick"] >= 7  # could not finish before recovery
    assert report["faults"][0]["applied"] >= 1
    assert report["violations"] == []

    # A second crash window, 6-11, overlaps the first, 3-7: the payment
    # waits through both, and only the window active at tick 4 is hit.
    doc["faults"].append({"kind": "crash", "actor": "lp", "at_tick": 6, "duration": 5})
    report = run_doc(doc)
    pay = report["payments"][0]
    assert pay["status"] == "settled"
    assert pay["started_tick"] == 11
    assert [f["applied"] for f in report["faults"]] == [1, 0]
    assert report["violations"] == []


def forward_doc() -> dict:
    """ann pays beth 2000 coin through lp, which charges a fee of 1."""
    return {
        "seed": 3,
        "max_ticks": 60,
        "chains": [
            {
                "chain_id": "main",
                "asset": "coin",
                "hash_fns": ["SHA256"],
                "genesis": {"ann": 50000, "lp": 50000, "beth": 50000},
            }
        ],
        "actors": [
            {"name": "ann", "kind": "user"},
            {"name": "lp", "kind": "lp"},
            {"name": "beth", "kind": "business"},
        ],
        "channels": [
            {"chain_id": "main", "party_a": "ann", "party_b": "lp",
             "fund_a": 20000, "fund_b": 20000},
            {"chain_id": "main", "party_a": "lp", "party_b": "beth",
             "fund_a": 20000, "fund_b": 20000},
        ],
        "quotes": [
            {"node": "lp", "asset_in": "coin", "asset_out": "coin",
             "rate_num": 1, "rate_den": 1, "base_fee": 1, "fee_ppm": 0}
        ],
        "payments": [
            {"at_tick": 5, "sender": "ann", "recipient": "beth",
             "amount": 2000, "asset": "coin"}
        ],
        "faults": [],
    }


def slow_chain_doc(block_interval: int, beth_down: int, ann_at: int) -> dict:
    """forward_doc with beth paid in scoin over a chain that mines every
    `block_interval` ticks, beth crashed from when her hop offer arrives
    for `beth_down` ticks, and ann crashed from `ann_at` for 20. ann's
    HTLC turns urgent on the fast chain first, while she is down, so lp
    closes it once beth's settle tells it the preimage, and claims."""
    doc = forward_doc()
    doc["chains"].append({"chain_id": "slow", "asset": "scoin", "hash_fns": ["SHA256"],
                          "block_interval": block_interval,
                          "genesis": {"lp": 50000, "beth": 50000}})
    doc["chains"][0]["genesis"].pop("beth")
    doc["channels"][1]["chain_id"] = "slow"
    doc["quotes"][0]["asset_out"] = "scoin"
    doc["payments"][0]["asset"] = "scoin"
    doc["faults"] = [
        {"kind": "crash", "actor": "beth", "at_tick": 7, "duration": beth_down},
        {"kind": "crash", "actor": "ann", "at_tick": ann_at, "duration": 20},
    ]
    return doc


def test_drop_gossip_leaves_sender_without_routes():
    doc = forward_doc()
    doc["faults"] = [{"kind": "drop-gossip", "actor": "ann", "at_tick": 0}]
    report = run_doc(doc)
    pay = report["payments"][0]
    assert pay["status"] == "refunded"
    assert pay["reason"] == "no-route"
    # without the fault the same payment settles
    doc["faults"] = []
    assert run_doc(doc)["payments"][0]["status"] == "settled"


def test_unfinished_run_reports_pending_htlcs_as_their_offerers():
    # beth never settles and max_ticks cuts the run while both HTLCs are
    # still offered on open channels
    doc = forward_doc()
    doc["max_ticks"] = 10
    doc["faults"] = [{"kind": "stall-secret", "actor": "beth", "at_tick": 0}]
    report = run_doc(doc)
    assert report["violations"] == [
        "non-termination: run still active at max_ticks=10",
        "payment 0 never reached a terminal state",
    ]
    assert report["payments"][0]["status"] == "pending"
    # each offerer still owns its pending HTLC, so nobody is out of pocket
    for name in ("ann", "lp"):
        info = report["actors"][name]
        assert info["final"] == info["initial"]
        assert info["no_loss"]


@pytest.mark.parametrize("variant, reason", [
    ("first-dust", "first-hop: 2001 < dust limit 5000"),
    ("forward-dust", "forward: 2000 < dust limit 5000"),
    ("forward-balance", "forward: balance 1000 < htlc 2000"),
])
def test_refused_htlc_refunds_with_the_channels_reason(variant, reason):
    doc = forward_doc()
    if variant == "first-dust":
        doc["channels"][0]["dust_limit"] = 5000
    elif variant == "forward-dust":
        doc["channels"][1]["dust_limit"] = 5000
    else:
        # the first payment leaves lp 1000 of its 3000 towards beth
        doc["channels"][1]["fund_a"] = 3000
        doc["payments"].append({"at_tick": 9, "sender": "ann", "recipient": "beth",
                                "amount": 2000, "asset": "coin"})
    report = run_doc(doc)
    assert report["violations"] == []
    pay = report["payments"][-1]
    assert (pay["status"], pay["reason"]) == ("refunded", reason)


def test_crashed_forwarder_gets_the_requeued_hop_offer():
    doc = forward_doc()
    # A block every 3 ticks: none is mined while lp is down, so the delayed
    # forward keeps the expiry headroom it had on time.
    doc["chains"][0]["block_interval"] = 3
    clean = run_doc(doc)["payments"][0]
    assert clean["status"] == "settled"
    # The first HTLC is offered at tick 5 and its hop-offer reaches lp at
    # tick 6, when lp goes down; the offer, onion packet included, waits.
    doc["faults"] = [{"kind": "crash", "actor": "lp", "at_tick": 6, "duration": 2}]
    report = run_doc(doc)
    pay = report["payments"][0]
    assert pay["status"] == "settled" and pay["reason"] == "fulfilled"
    assert pay["cost"] == clean["cost"] == 2001
    assert pay["hops"] == 2
    assert pay["resolved_tick"] > clean["resolved_tick"]
    assert report["faults"][0]["applied"] >= 1
    assert report["violations"] == []
    # A block every tick, and lp goes down at tick 7, right after it
    # forwards. beth's settle waits for lp, so beth force-closes and claims
    # on chain (confirmed at tick 13) while lp is down. Back at tick 15, lp
    # settles with ann off-chain; back at tick 16, ann has just force-closed
    # on lp's urgent HTLC, and lp claims it on chain too.
    del doc["chains"][0]["block_interval"]
    for duration, reason, resolved, on_chain in ((8, "fulfilled", 16, 1),
                                                  (9, "claimed-on-chain", 18, 2)):
        doc["faults"] = [{"kind": "crash", "actor": "lp", "at_tick": 7, "duration": duration}]
        report = run_doc(doc)
        pay = report["payments"][0]
        assert (pay["status"], pay["reason"], pay["resolved_tick"]) == ("settled", reason, resolved)
        metrics = report["metrics"]
        assert metrics["crash_requeues"] == 1
        assert metrics["onchain_claims"] == metrics["urgent_closes"] == on_chain
        assert report["violations"] == []


def test_broadcast_revoked_without_gain_is_a_noop():
    doc = minimal_doc()
    doc["payments"] = []
    doc["faults"] = [{"kind": "broadcast-revoked", "actor": "lp", "at_tick": 5, "channel": 0}]
    report = run_doc(doc)
    assert report["metrics"].get("breach_noops", 0) == 1
    assert report["channels"][0]["phase"] == "open"
    assert report["violations"] == []


def _close_at_breach(doc: dict) -> None:
    doc["closes"] = [{"at_tick": 10, "channel": 0}]


def _second_breach(doc: dict) -> None:
    doc["faults"].append(dict(doc["faults"][0]))


def _breach_below_fee(doc: dict) -> None:
    doc["chains"][0]["tx_fee"] = 5
    doc["channels"][0].update(fund_a=3, fund_b=100)
    doc["payments"][0]["amount"] = 3


@pytest.mark.parametrize(
    "edit, noops, broadcasts, applied",
    [
        # the close meets the revoked commitment in the mempool: dropped
        (_close_at_breach, 0, 1, [1]),
        # the second breach finds its channel's close in flight
        (_second_breach, 1, 1, [1, 0]),
        # the ledger refuses a revoked commitment that cannot pay the fee
        (_breach_below_fee, 1, 0, [0]),
    ],
    ids=["close-at-breach", "second-breach", "breach-below-fee"],
)
def test_close_or_breach_that_cannot_broadcast_is_a_noop(edit, noops, broadcasts, applied):
    doc = json.loads(
        (resources.files("comit.simnet") / "scenarios" / "breach-punish.json").read_text()
    )
    edit(doc)
    report = run_doc(doc)
    assert report["violations"] == []
    assert report["metrics"].get("breach_noops", 0) == noops
    assert report["metrics"].get("breach_broadcasts", 0) == broadcasts
    assert [f["applied"] for f in report["faults"]] == applied


def race_doc(rng: random.Random) -> dict:
    """An acceptance-corpus world with 1-3 scheduled closes and 0-2 revoked
    broadcasts at ticks 2-30, on chains mining every 1-4 ticks, so closes
    and breaches meet each other in flight."""
    doc = random_scenario(rng)
    chans = doc["channels"]
    doc["closes"] = [
        {"at_tick": rng.randint(2, 30), "channel": rng.randrange(len(chans))}
        for _ in range(rng.randint(1, 3))
    ]
    for _ in range(rng.randint(0, 2)):
        c = rng.randrange(len(chans))
        doc["faults"].append({
            "kind": "broadcast-revoked",
            "actor": chans[c][rng.choice(("party_a", "party_b"))],
            "at_tick": rng.randint(2, 30),
            "channel": c,
        })
    for chain in doc["chains"]:
        chain["block_interval"] = rng.randint(1, 4)
    # a CSV of 6 on a chain mining every 4 ticks can outlast the corpus's 120
    doc["max_ticks"] = 400
    return doc


# Before broadcasts learned to meet a close in flight, this corpus raised on
# six documents: TxRejected on 11 and 184 (a second revoked broadcast met the
# first in the mempool) and StalePhase on 92, 168, 220 and 231 (a cooperative
# close met a revoked commitment). RACE_DIGEST pins the reports of all the
# others as they were then.
RACE_SEED, RACE_DOCS = 2, 300
RACE_RAISED = {11, 92, 168, 184, 220, 231}
RACE_DIGEST = "38b31cc95daf90abfb77bec720d67c425505b292e5f826b901a4481d297aa5c4"


def doc_sets(demos: bool = True, corpus: int = 0, race: bool = False,
             meshes: bool = False) -> list[dict]:
    """The documents the engine-against-oracle tests run, in this order:
    the bundled demos, the first `corpus` acceptance-corpus documents, the
    race corpus and the multi-fault meshes."""
    docs = []
    if demos:
        scenarios = resources.files("comit.simnet") / "scenarios"
        docs += [json.loads((scenarios / name).read_text()) for name in sorted(
            p.name for p in scenarios.iterdir() if p.name.endswith(".json"))]
    rng = random.Random(0xACCE97)
    docs += [random_scenario(rng) for _ in range(corpus)]
    if race:
        rng = random.Random(RACE_SEED)
        docs += [race_doc(rng) for _ in range(RACE_DOCS)]
    if meshes:
        rng = random.Random(CORPUS_SEED)
        docs += [mesh_doc(rng) for _ in range(MESHES)]
    return docs


def test_close_and_breach_races_end_cleanly():
    rng = random.Random(RACE_SEED)
    digest = hashlib.sha256()
    for i in range(RACE_DOCS):
        report = run_doc(race_doc(rng))
        assert report["violations"] == [], i
        assert all(p["status"] in ("settled", "refunded") for p in report["payments"]), i
        if i not in RACE_RAISED:
            digest.update(report_json(report).encode())
    assert digest.hexdigest() == RACE_DIGEST


def test_mining_interval_slows_chain():
    doc = minimal_doc()
    doc["chains"][0]["block_interval"] = 3
    slow = run_doc(doc)
    fast = run_doc(minimal_doc())
    assert slow["payments"][0]["status"] == "settled"
    assert slow["chains"]["main"]["height"] < fast["chains"]["main"]["height"]


def test_user_to_user_shortcut_is_a_role_violation():
    doc = minimal_doc()
    doc["actors"].append({"name": "uri", "kind": "user"})
    doc["chains"][0]["genesis"]["uri"] = 50000
    doc["channels"].append(
        {"chain_id": "main", "party_a": "ann", "party_b": "uri",
         "fund_a": 10000, "fund_b": 10000}
    )
    doc["channels"].append(
        {"chain_id": "main", "party_a": "uri", "party_b": "lp",
         "fund_a": 10000, "fund_b": 10000}
    )
    doc["payments"] = [
        {"at_tick": 4, "sender": "ann", "recipient": "uri", "amount": 500, "asset": "coin"}
    ]
    report = run_doc(doc)
    assert report["violations"] == [
        "role-constraint: payment 0 from user 'ann' first hop is 'uri', not a liquidity provider"
    ]


# ------------------------------------------------- every check seen to fire


def run_with(cls, doc: dict) -> dict:
    """`doc`'s report from engine class `cls`."""
    scenario, errors = validate_scenario(doc)
    assert errors == [], errors
    engine = cls(scenario)
    engine.run()
    return build_report(engine)


class BreakingEngine(engine_mod.Engine):
    """The engine, breaking one thing (`breaks`) after the housekeeping of
    tick `at`, so the checks that end that tick see it."""

    at = 6

    def _housekeeping(self):
        super()._housekeeping()
        if self.tick == self.at:
            self.breaks()


class MintingEngine(BreakingEngine):
    """Mints 7 coins on chain main outside any transaction."""

    def breaks(self):
        led = self.ledgers["main"]
        led._add_utxo(Outpoint(bytes(32), 0), Utxo(7, PayToKey(bytes(32)), led.height))


class SkimmingEngine(BreakingEngine):
    """Adds 5 to ann's balance in channel 0 without its capacity."""

    def breaks(self):
        ch = self.channels[0].channel
        ch.state = dataclasses.replace(ch.state, balance_a=ch.state.balance_a + 5)


@pytest.mark.parametrize("cls, violations", [
    (MintingEngine, [
        "conservation: chain 'main' at tick 6: utxos 100005 + burned 2 != genesis 100000",
        "conservation: chain 'main' at tick 6: on-chain 60005 + channels 40000 + burned 2 "
        "!= genesis 100000",
    ]),
    (SkimmingEngine, [
        "conservation: channel 0 at tick 6: balances 40005 != capacity 40000",
        "conservation: chain 'main' at tick 6: on-chain 59998 + channels 40005 + burned 2 "
        "!= genesis 100000",
    ]),
])
def test_each_conservation_check_fires(cls, violations):
    """minimal_doc, broken at tick 6, the last one a clean run executes,
    so only that tick's checks see it. Genesis is 100,000 coins; after the
    funding tx 99,998 are in utxos, 40,000 of them in the channel, and its
    fee of 2 is burned. Neither break fakes a loss: the minted coin is
    nobody's, and ann gains 5."""
    assert run_doc(minimal_doc())["ticks"] == 6
    report = run_with(cls, minimal_doc())
    assert report["ticks"] == 6
    assert report["violations"] == violations
    assert all(info["no_loss"] for info in report["actors"].values())


class OvercreditingEngine(engine_mod.Engine):
    """Credits honest lp 1 coin of `settled_in` it never received."""

    def run(self):
        super().run()
        lp = self.actors["lp"]
        lp.bump(lp.settled_in, "coin", 1)


def test_no_honest_loss_fires_on_an_unpaid_credit():
    report = run_with(OvercreditingEngine, minimal_doc())
    assert report["violations"] == [
        "no-honest-loss: actor 'lp' ended below its entitled balance"
    ]
    assert report["actors"]["lp"]["honest"]
    assert {name: info["no_loss"] for name, info in report["actors"].items()} == {
        "ann": True, "lp": False}


def spent_down_doc(tx_fee: int, amount: int) -> dict:
    """minimal_doc where ann pays lp all but `20,000 - amount` of ann's side
    of the channel, on a chain whose `tx_fee` is more than ann keeps."""
    doc = minimal_doc()
    doc["chains"][0]["tx_fee"] = tx_fee
    doc["payments"][0]["amount"] = amount
    return doc


@pytest.mark.parametrize("tx_fee, amount, fees", [
    (2, 19_999, {"ann": {"coin": 3}, "lp": {"coin": 1}}),
    (5, 19_998, {"ann": {"coin": 7}, "lp": {"coin": 3}}),
])
def test_cooperative_close_charges_each_party_its_share_of_the_fee(tx_fee, amount, fees):
    """A cooperative close takes its fee from party_a's balance up to what
    ann holds and the rest from party_b's, and the report charges each
    party the share it paid; ann also paid the funding fee. Charging the
    whole fee to party_a, the broadcaster, left lp short of its entitled
    balance."""
    doc = spent_down_doc(tx_fee, amount)
    doc["closes"] = [{"at_tick": 12, "channel": 0}]
    report = run_doc(doc)
    assert report["payments"][0]["status"] == "settled"
    assert report["violations"] == []
    assert {n: a["fees_authorized"] for n, a in report["actors"].items()} == fees


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 5: a revoked "
                   "commitment's fee exceeds the cheater's balance, and the victim pays the rest")
@pytest.mark.parametrize("tx_fee, amount", [(2, 19_999), (5, 19_998)])
def test_breach_below_the_fee_leaves_the_victim_whole(tx_fee, amount):
    """ann, down to less than one fee, broadcasts a revoked state. Justice
    takes the whole channel for lp, yet lp ends 1 coin (at a fee of 5, 3)
    below its entitled balance (69,996 against 69,997 at a fee of 2): the
    revoked commitment takes its fee from ann's balance in that state,
    which is more than ann now holds, so lp pays the difference."""
    doc = spent_down_doc(tx_fee, amount)
    doc["faults"] = [{"kind": "broadcast-revoked", "actor": "ann", "at_tick": 12}]
    report = run_doc(doc)
    assert report["payments"][0]["status"] == "settled"
    assert report["metrics"]["justice_txs"] == 1
    assert report["violations"] == []


class TamperingEngine(engine_mod.Engine):
    """Hands lp, the forwarder, `hostile(packet)` in place of the packet
    ann sent."""

    def _ev_hop_offer(self, pidx, i, packet):
        if self.payments[pidx].hops[i].receiver == "lp":
            packet = self.hostile(packet)
        super()._ev_hop_offer(pidx, i, packet)


class ZeroedTagEngine(TamperingEngine):
    def hostile(self, packet):
        return dataclasses.replace(packet, tag=bytes(32))


class StrangerEngine(TamperingEngine):
    def hostile(self, packet):
        """A two-hop packet lp can open, naming as next node a key no actor
        holds."""
        lp = self.actors["lp"].node_key
        payload, _ = onion_peel(packet, lp)
        stranger = NodeKey.generate(random.Random(1)).pubkey
        assert stranger not in self.actor_by_pub
        return onion_create([lp.pubkey, stranger], random.Random(2),
                            [dataclasses.replace(payload, next_node=stranger),
                             dataclasses.replace(payload, next_node=None)])


class TerminalEngine(TamperingEngine):
    def hostile(self, packet):
        """A one-hop packet whose payload, lp's own, still names beth: the
        MAC chain ends at lp, so lp reads it as a delivery to itself."""
        lp = self.actors["lp"].node_key
        payload, _ = onion_peel(packet, lp)
        assert payload.next_node == self.actors["beth"].node_key.pubkey
        return onion_create([lp.pubkey], random.Random(2), [payload])


@pytest.mark.parametrize("cls, reason", [
    (ZeroedTagEngine, "bad-onion"),
    (StrangerEngine, "unknown-next-node"),
    (TerminalEngine, "unknown-payment"),
])
def test_forwarder_fails_back_a_hostile_packet(cls, reason):
    """BOLT #4: a forwarder that cannot authenticate a packet, or does not
    know its next node, fails the HTLC back, and the payment refunds. A
    packet whose MAC chain ends at the forwarder is a delivery to it,
    whatever its payload names, and the forwarder holds no invoice for the
    payment."""
    report = run_with(cls, forward_doc())
    pay = report["payments"][0]
    assert (pay["status"], pay["reason"], pay["hops"]) == ("refunded", reason, 1)
    assert report["violations"] == []


# ----------------------------------------------------------------- the CLI


def test_cli_validate_and_run(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(minimal_doc()))

    assert main(["validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ok:") and "1 payments" in out

    report_file = tmp_path / "report.json"
    code = main(["run", str(path), "--report", str(report_file), "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0
    stdout_report = json.loads(captured.out)
    file_report = json.loads(report_file.read_text())
    assert stdout_report == file_report
    assert stdout_report["payments"][0]["status"] == "settled"


def test_cli_seed_override_and_text_format(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(minimal_doc()))
    assert main(["run", str(path), "--seed", "99", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["seed"] == 99
    # the override meets the document's seed rule, with its diagnostic
    for seed, bound in ((-1, ">= 0"), (2**64, f"<= {2**64 - 1}")):
        for argv in (["run", str(path)], ["demo", "single-hop"]):
            assert main([*argv, f"--seed={seed}"]) == 2
            out = capsys.readouterr()
            assert out.out == ""
            assert out.err == f"constraint-violation: document.seed: must be {bound}, got {seed}\n"
    assert main(["run", str(path), "--seed", str(2**64 - 1), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 2**64 - 1
    assert main(["run", str(path)]) == 0
    text = capsys.readouterr().out
    assert "violations: none" in text and "settled" in text


def test_cli_text_lists_faults_violations_and_no_payments(tmp_path, capsys):
    """forward_doc cut at tick 10 while beth stalls: a faults section and
    two violations. Without payments: a `(none)` payments line."""
    doc = forward_doc()
    doc["max_ticks"] = 10
    doc["faults"] = [{"kind": "stall-secret", "actor": "beth", "at_tick": 0}]
    path = tmp_path / "stalled.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--format", "text"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[lines.index("faults:"):] == [
        "faults:",
        "  stall-secret on beth at tick 0 (applied 1x)",
        "",
        "violations:",
        "  non-termination: run still active at max_ticks=10",
        "  payment 0 never reached a terminal state",
    ]
    doc = forward_doc()
    doc["payments"] = []
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--format", "text"]) == 0
    lines = capsys.readouterr().out.splitlines()
    i = lines.index("payments:")
    assert lines[i:i + 3] == ["payments:", "  (none)", ""]
    assert "faults:" not in lines and lines[-1] == "violations: none"


def test_cli_rejects_invalid_scenarios(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["validate", str(bad)]) == 1
    assert "parse-error" in capsys.readouterr().err
    assert main(["run", str(bad)]) == 2
    capsys.readouterr()

    doc = minimal_doc()
    doc["payments"][0]["amount"] = -5
    semantically_bad = tmp_path / "neg.json"
    semantically_bad.write_text(json.dumps(doc))
    assert main(["validate", str(semantically_bad)]) == 1
    assert "constraint-violation" in capsys.readouterr().err


def test_cli_diagnoses_malformed_documents(tmp_path, capsys):
    """`validate` exits 1 and `run` exits 2 on each `MALFORMED` document,
    each printing its diagnostic and no traceback; `load_scenario` returns
    the diagnostic."""
    for i, source in enumerate(MALFORMED):
        path = tmp_path / f"malformed{i}.json"
        path.write_bytes(source if isinstance(source, bytes) else source.encode())
        scenario, errors = load_scenario(str(path))
        assert scenario is None and errors, errors
        for command, code in (("validate", 1), ("run", 2)):
            assert main([command, str(path)]) == code
            err = capsys.readouterr().err
            assert err.splitlines() == errors, (command, err)


def test_cli_run_exits_nonzero_on_violations(tmp_path, capsys):
    doc = minimal_doc()
    doc["actors"].append({"name": "uri", "kind": "user"})
    doc["chains"][0]["genesis"]["uri"] = 50000
    doc["channels"].append(
        {"chain_id": "main", "party_a": "ann", "party_b": "uri",
         "fund_a": 10000, "fund_b": 10000}
    )
    doc["channels"].append(
        {"chain_id": "main", "party_a": "uri", "party_b": "lp",
         "fund_a": 10000, "fund_b": 10000}
    )
    doc["payments"] = [
        {"at_tick": 4, "sender": "ann", "recipient": "uri", "amount": 500, "asset": "coin"}
    ]
    path = tmp_path / "viol.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["violations"]


@pytest.mark.parametrize("where, error", [
    (lambda tmp: tmp, "Is a directory"),
    (lambda tmp: tmp / "missing" / "report.json", "No such file or directory"),
])
def test_cli_report_path_that_cannot_be_written(tmp_path, capsys, where, error):
    """An unwritable `--report` path exits 2, the code for what the run
    cannot act on, with one diagnostic line and nothing on stdout."""
    path = where(tmp_path)
    assert main(["demo", "single-hop", "--report", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"cannot write report {path}: {error}\n"


def test_cli_demo_lists_available_on_unknown(capsys):
    assert main(["demo", "no-such-demo"]) == 2
    err = capsys.readouterr().err
    for name in ("single-hop", "cross-chain-2lp", "refund-cascade", "breach-punish"):
        assert name in err


def test_cli_demo_runs_bundled_scenario(capsys):
    assert main(["demo", "single-hop", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["payments"][0]["status"] == "settled"
    assert report["violations"] == []


def test_cli_json_stdout_is_the_report_file(tmp_path, capsys):
    report_file = tmp_path / "report.json"
    args = ["demo", "cross-chain-2lp", "--format", "json", "--report", str(report_file)]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert out.encode() == report_file.read_bytes()
    assert out == report_json(demo_report("cross-chain-2lp"))


# ---------------------------------------------------------------- scaling


def star_doc(users: int) -> dict:
    """The benchmark's star world: `users` users and four businesses, each
    with one channel to a single LP; one payment per user to a business."""
    return workloads.star(workloads.DEFAULT_SEED, users)[0]


def routing_counts(monkeypatch, doc: dict) -> dict:
    """Run `doc` and count the routing work: graph builds, the distinct
    advert sets they were built from, backward_apply calls, partial paths
    grown and edges_into items visited inside find_route, routes found, and
    the ticks gossip_step ran in. Count the housekeeping work too:
    process_block calls on blocks that confirm nothing, side_of calls made
    by _on_chain, _active calls outside _gossip_round, and the ticks it ran
    in inside."""
    counts = {"builds": 0, "sets": set(), "applies": 0, "paths": 0, "edges": 0, "routes": 0,
              "gossip_ticks": set(), "searching": False, "step": None,
              "empty_blocks": 0, "housekeeping_sides": 0, "active": 0,
              "gossip_active_ticks": set()}
    build = ChannelGraph.from_adverts.__func__

    def from_adverts(cls, adverts, *args):
        counts["builds"] += 1
        counts["sets"].add(tuple(a.node_pubkey for a in adverts))
        return build(cls, adverts, *args)

    apply = graph_mod.backward_apply

    def backward_apply(*args):
        counts["applies"] += counts["searching"]
        return apply(*args)

    into = ChannelGraph.edges_into

    def edges_into(self, node):
        edges = into(self, node)
        counts["edges"] += len(edges) * counts["searching"]
        return edges

    make = graph_mod._Partial

    def partial(*args):
        counts["paths"] += 1
        return make(*args)

    search = engine_mod.find_route

    def find_route(*args, **kwargs):
        counts["searching"] = True
        try:
            route = search(*args, **kwargs)
        finally:
            counts["searching"] = False
        counts["routes"] += 1
        return route

    step = GossipState.gossip_step

    def gossip_step(self, *args):
        counts["gossip_ticks"].add(engine.tick)
        return step(self, *args)

    def watched(name):
        run_step = getattr(engine_mod.Engine, name)

        def step(self):
            counts["step"] = name
            try:
                return run_step(self)
            finally:
                counts["step"] = None

        return step

    process = Channel.process_block

    def process_block(self, summary):
        counts["empty_blocks"] += not summary.txids
        return process(self, summary)

    side_of = Channel.side_of

    def counted_side_of(self, party):
        counts["housekeeping_sides"] += counts["step"] == "_on_chain"
        return side_of(self, party)

    active = engine_mod.Engine._active

    def counted_active(self, *args):
        if counts["step"] == "_gossip_round":
            counts["gossip_active_ticks"].add(self.tick)
        else:
            counts["active"] += 1
        return active(self, *args)

    scenario, errors = validate_scenario(doc)
    assert errors == []
    engine = engine_mod.Engine(scenario)
    with monkeypatch.context() as m:
        m.setattr(ChannelGraph, "from_adverts", classmethod(from_adverts))
        m.setattr(graph_mod, "backward_apply", backward_apply)
        m.setattr(graph_mod, "_Partial", partial)
        m.setattr(ChannelGraph, "edges_into", edges_into)
        m.setattr(engine_mod, "find_route", find_route)
        m.setattr(GossipState, "gossip_step", gossip_step)
        for name in ("_on_chain", "_gossip_round"):
            m.setattr(engine_mod.Engine, name, watched(name))
        m.setattr(Channel, "process_block", process_block)
        m.setattr(Channel, "side_of", counted_side_of)
        m.setattr(engine_mod.Engine, "_active", counted_active)
        engine.run()
    assert engine.violations == []
    assert all(p.status == "settled" for p in engine.payments)
    counts["converged"] = engine.gossip_converged_tick
    return counts


def test_star_routing_work_does_not_grow_with_users(monkeypatch):
    """Exact counts, not timings: one graph per advert set, the same
    pricing work, partial paths and edges visited per route, and no gossip once
    every store is converged, at 20 users as at 80. Housekeeping touches
    only what changed: no channel looks at a block that confirmed nothing,
    _on_chain finds no channel to act on, and fault lookups happen per
    payment, not per actor and tick."""
    per_route = []
    for users in (20, 80):
        counts = routing_counts(monkeypatch, star_doc(users))
        assert counts["routes"] == users
        assert counts["builds"] == len(counts["sets"]) == 1
        per_route.append((counts["applies"] / users, counts["paths"] / users,
                          counts["edges"] / users, counts["active"] / users))
        assert counts["converged"] >= 0
        assert max(counts["gossip_ticks"]) <= counts["converged"] + 1
        assert max(counts["gossip_active_ticks"]) <= counts["converged"] + 1
        assert counts["empty_blocks"] == 0
        assert counts["housekeeping_sides"] == 0
    assert per_route[0] == per_route[1], per_route


def gossip_work(monkeypatch, doc: dict) -> tuple[Counter, int, int]:
    """Run `doc` and count its gossip work: the (tick, channel index) of
    each _gossip_channel visit, the gossip_step calls, and the tick gossip
    converged at."""
    visits, steps = Counter(), [0]
    visit, step = engine_mod.Engine._gossip_channel, GossipState.gossip_step

    def counted_visit(self, rt):
        visits[(self.tick, rt.idx)] += 1
        return visit(self, rt)

    def counted_step(self, *args):
        steps[0] += 1
        return step(self, *args)

    scenario, errors = validate_scenario(doc)
    assert errors == []
    engine = engine_mod.Engine(scenario)
    with monkeypatch.context() as m:
        m.setattr(engine_mod.Engine, "_gossip_channel", counted_visit)
        m.setattr(GossipState, "gossip_step", counted_step)
        engine.run()
    return visits, steps[0], engine.gossip_converged_tick


def test_gossip_rounds_stop_at_convergence(monkeypatch):
    """Exact counts, not timings: until gossip converges a round visits
    every channel, and after it none, drop-gossip ends or not. On a star
    the hub's advert reaches every user in one round, and on a line whose
    LP drops gossip from tick 3 on both channels it reaches both users in
    one round too, so each channel is visited once and none after the
    convergence tick. On the first 100 acceptance-corpus documents the
    rounds make 984 visits and 1,264 gossip_step calls, two per exchange
    that runs plus one per bootstrap install. Rounds that went on visiting
    the drop-gossip channels after convergence would make 1,072 visits,
    rounds that visited every channel 3,969, and exchanges that did not
    skip a pair whose versions are unchanged 2,036 calls."""
    for doc in (star_doc(80), drop_gossip_docs()[0]):
        visits, _, converged = gossip_work(monkeypatch, doc)
        assert converged >= 0
        assert sorted(idx for _, idx in visits) == list(range(len(doc["channels"])))
        assert set(visits.values()) == {1}
        assert max(tick for tick, _ in visits) <= converged
    total_visits = total_steps = 0
    for doc in doc_sets(demos=False, corpus=100):
        visits, steps, _ = gossip_work(monkeypatch, doc)
        total_visits += sum(visits.values())
        total_steps += steps
    assert (total_visits, total_steps) == (984, 1_264)


def gossip_peers_held(engine) -> set[str]:
    """The actors whose gossip state still holds its per-peer memo."""
    return {name for name, a in engine.actors.items() if a.gossip._exchanged}


def test_finished_run_releases_gossip_bookkeeping_and_route_graphs(monkeypatch):
    """After the run of a star world, no actor holds per-peer gossip
    bookkeeping, since gossip converged and no exchange runs after that,
    and the route-graph cache is empty, since no payment starts after the
    tick loop. Under a drop-gossip window of one user that spans the whole
    run, gossip never converges and every other actor keeps what it knows
    of its peers. Either way the report is the one of an engine whose
    gossip states never forget their peers."""
    dropping = star_doc(20)
    dropping["faults"] = [{"kind": "drop-gossip", "actor": "u0000", "at_tick": 0}]
    for doc, converges in ((star_doc(20), True), (dropping, False)):
        scenario, errors = validate_scenario(doc)
        assert errors == [], errors
        engine = engine_mod.Engine(scenario)
        engine.run()
        assert engine.graphs == {}
        assert (engine.gossip_converged_tick >= 0) == converges
        held = gossip_peers_held(engine)
        assert held == (set() if converges else set(engine.actors) - {"u0000"}), held
        with monkeypatch.context() as m:
            m.setattr(GossipState, "forget_peers", lambda self: None)
            keeping = engine_mod.Engine(scenario)
            keeping.run()
        assert len(gossip_peers_held(keeping)) == len(engine.actors) - (not converges)
        assert report_json(build_report(engine)) == report_json(build_report(keeping))


# ---------------------------------------------------------------- housekeeping oracle


class SteppingEngine(engine_mod.Engine):
    """The engine with a clock that steps one tick at a time: the oracle
    for the jumps of `_next_tick` and for `_count_drops`. Every tick the
    engine skips runs here in full, so its stall-secret hits are counted by
    that tick's own `_on_chain` visit, not by `_advance`. Its drop-gossip
    counts follow the per-tick rule: each `_gossip_channel` visit whose
    ends are online counts one `gossip_drops` per dropping end and one hit
    per drop window, and after convergence a round still visits every
    channel with a drop-gossip end, in index order."""

    def _next_tick(self):
        return self.tick + 1

    def _gossip_round(self):
        converged = self.gossip_converged_tick >= 0
        super()._gossip_round()
        if converged:
            for rt in self.channels:
                if any("drop-gossip" in self.actors[n].faults for n in rt.names):
                    self._gossip_channel(rt)

    def _gossip_channel(self, rt):
        if all(self._online(n) for n in rt.names):
            for n in rt.names:
                if self._hit(n, "drop-gossip"):
                    self._note("gossip_drops")
        super()._gossip_channel(rt)

    def _count_drops(self):
        pass


class ScanningEngine(SteppingEngine):
    """The engine with its per-tick steps scanning every actor, channel and
    fault on every tick, with actors learning on-chain preimages only while
    online, and with the hops a confirmed spend or a settled channel ends
    and a breach's revoked state found by scans: the oracle the indexed
    steps must match byte for byte.
    Only what is visited, what is scanned and when a preimage is learned
    differ; what a visit does is the engine's own code."""

    def _active(self, name, kind, tick=None):
        t = self.tick if tick is None else tick
        return [
            i for i, f in enumerate(self.sc.faults)
            if f.actor == name and f.kind == kind and f.at_tick <= t < f.until_tick
        ]

    def _mine(self):
        for cid in sorted(self.ledgers):
            led = self.ledgers[cid]
            if self.tick % led.params.block_interval != 0:
                continue
            summary = led.mine_blocks(1)[0]
            for rt in self.chans_on[cid]:
                rt.channel.process_block(summary)
            for tx_id, fee in zip(summary.txids, summary.fees):
                if tx_id in self.pending_txs:
                    self._confirmed(cid, fee, *self.pending_txs.pop(tx_id))
            for rt in self.chans_on[cid]:
                if rt.channel.phase is ChannelPhase.SETTLED:
                    self._end_hops(rt.idx, None, *engine_mod.UNPUNISHED)

    def _outstanding(self):
        if self.queue or self.pending_txs:
            return True
        # a pending payment without hops still has its payment-start queued
        if any(p.status == "pending" for p in self.live.values()):
            return True
        for rt in self.channels:
            phase = rt.channel.phase
            if phase in (ChannelPhase.COOPERATIVE_CLOSING, ChannelPhase.UNILATERAL_CLOSED,
                         ChannelPhase.BREACHED):
                return True
            if phase is ChannelPhase.OPEN and rt.channel.pending_htlcs:
                return True
        if self.gossip_converged_tick < 0 and self.tick < 3 * len(self.sc.actors) + 3:
            return True
        return False

    # The earlier learning rule: a claim's preimage goes into one log, and
    # each actor reads the log on past its own cursor at each tick's
    # housekeeping while it is online. The engine's rule, every actor knows
    # it in the block that confirms the claim, must give the same bytes.

    def __init__(self, scenario):
        self.revealed, self.read = [], {}
        super().__init__(scenario)

    def _reveal(self, payment_hash, preimage):
        self.revealed.append((payment_hash, preimage))

    def _housekeeping(self):
        for name in sorted(self.actors):
            if self._online(name):
                for payment_hash, preimage in self.revealed[self.read.get(name, 0):]:
                    self.actors[name].secrets.setdefault(payment_hash, preimage)
                self.read[name] = len(self.revealed)
        super()._housekeeping()

    def _gossip_round(self):
        for rt in self.channels:
            self._gossip_channel(rt)
        self._note_convergence()

    def _note_convergence(self):
        """The earlier rule: gossip has converged once every actor holds
        the advert of every LP that holds its own."""
        if self.gossip_converged_tick >= 0:
            return
        origins = {a.gossip.own_pubkey for a in self.actors.values()
                   if a.kind == "lp" and a.gossip.adverts}
        if all(origins <= set(a.gossip.adverts) for a in self.actors.values()):
            self.gossip_converged_tick = self.tick

    def _on_chain(self):
        for name in sorted(self.actors):
            if self._online(name):
                for rt in self.actors[name].channels:
                    self._respond(name, rt)

    # Lookups by scan: the hops a confirmed spend or a settled channel ends
    # among every live payment's hops, and a breach's best revoked state
    # among every signed state, rebuilt.

    def _end_hops(self, chan_idx, htlc, outcome, reason):
        for p in self.live.values():
            for i, hop in enumerate(p.hops):
                if (not hop.resolved and hop.chan.idx == chan_idx
                        and (htlc is None or hop.htlc is htlc)):
                    self._resolve_hop(p, i, outcome, reason or p.fail_reason or "expired")

    def _ev_breach(self, fidx):
        fault = self.sc.faults[fidx]
        cheater = fault.actor
        if not self._online(cheater):
            self._schedule(self._recovery(cheater), self._ev_breach, fidx)
            return
        mine = self.actors[cheater].channels
        candidates = mine if fault.channel is None else [self.channels[fault.channel]]
        best = None
        for rt in candidates:
            if rt.channel.closing:
                continue
            side = rt.channel.side_of(rt.party(cheater))
            current = rt.channel.balance_of(rt.party(cheater))
            revoked = rt.channel.recorded_states()[:rt.channel.commitment_number]
            for n, state in enumerate(revoked):
                bal = state.balance_a if side == "a" else state.balance_b
                if bal > current and (best is None or bal - current > best[0]):
                    best = (bal - current, rt, n)
        if best is not None:
            _, rt, n = best
            if self._broadcast(rt, cheater, Spend("breach", rt.channel.unilateral_close,
                                                  (rt.party(cheater), n))):
                self.fault_hits[fidx] += 1
                return
        self._note("breach_noops")


def scanned_and_indexed(doc: dict) -> list[tuple[str, dict]]:
    """`doc`'s report text and metrics from ScanningEngine and Engine. No
    run may end with an HTLC still held in an open channel, and the fees
    the actors are charged for each asset are what its chains burned."""
    out = []
    for cls in (ScanningEngine, engine_mod.Engine):
        scenario, errors = validate_scenario(doc)
        assert errors == [], errors
        engine = cls(scenario)
        engine.run()
        stranded = [rt.idx for rt in engine.channels
                    if rt.channel.phase is ChannelPhase.OPEN and rt.channel.pending_htlcs]
        assert stranded == [], (cls.__name__, stranded)
        fees, burned = Counter(), Counter()
        for actor in engine.actors.values():
            fees.update(actor.fees)
        for led in engine.ledgers.values():
            burned[led.params.asset_id] += led.burned
        assert {a: n for a, n in fees.items() if n} == {a: n for a, n in burned.items() if n}, (
            cls.__name__, fees, burned)
        out.append((report_json(build_report(engine)), engine.metrics))
    return out


def test_indexed_housekeeping_matches_full_scans():
    """Byte-identical reports from the indexed per-tick steps and from full
    scans, on the bundled scenarios, the first 100 acceptance-corpus
    scenarios, the multi-fault meshes, a fault-free mesh, a star, a
    preimage learned upstream of an urgent HTLC and a breach that leaves an
    HTLC open downstream of a finished payment."""
    docs = doc_sets(corpus=100, meshes=True)
    # The tenth mesh of seed 20: a business claims on-chain while the LP
    # upstream of it is crashed, and the LP learns the preimage once back.
    rng = random.Random(20)
    docs.append([mesh_doc(rng) for _ in range(10)][-1])
    # Both ends of one channel are down when its HTLC turns urgent; the
    # first one back closes it, to claim (recipient) or to refund (sender).
    for ann, lp in ((40, 20), (20, 40)):
        doc = minimal_doc()
        doc["faults"] = [{"kind": "crash", "actor": "ann", "at_tick": 5, "duration": ann},
                         {"kind": "crash", "actor": "lp", "at_tick": 5, "duration": lp}]
        docs.append(doc)
    docs.append({**mesh_doc(random.Random(5)), "faults": []})
    docs.append(star_doc(12))
    # lp learns the preimage from beth's settle while ann's HTLC is urgent
    # and ann is down: lp must close and claim at once.
    docs += [slow_chain_doc(ib, down, 12) for ib in (2, 3, 4) for down in (9, 12, 15)]
    # The 395th corpus document of seed 0: justice ends payment 1 at hop 0
    # while its downstream HTLC is still open, so the run must go on to an
    # urgent close and an on-chain refund of that HTLC (to tick 62) rather
    # than stop at tick 17 with it stranded.
    rng = random.Random(0)
    docs.append([random_scenario(rng) for _ in range(395)][-1])
    seen = {}
    for i, doc in enumerate(docs):
        (scanned, metrics), (indexed, _) = scanned_and_indexed(doc)
        assert indexed == scanned, i
        for k, v in metrics.items():
            seen[k] = seen.get(k, 0) + v
    # the runs reach every path the indexes decide
    for metric in ("urgent_closes", "justice_txs", "onchain_claims", "onchain_refunds",
                   "gossip_drops", "stall_blocks", "crash_requeues", "breach_broadcasts"):
        assert seen.get(metric, 0) > 0, (metric, seen)


# ------------------------------------------------------------------ clock oracle


class CountingEngine(engine_mod.Engine):
    """Engine, counting the ticks it executes."""

    def __init__(self, scenario):
        self.executed = 0
        super().__init__(scenario)

    def _advance(self, tick):
        self.executed += 1
        super()._advance(tick)


def far_doc(at: int, max_ticks: int, faults=(), block_interval: int = 1) -> dict:
    """minimal_doc with its payment at tick `at`, under `max_ticks`."""
    doc = minimal_doc()
    doc["max_ticks"] = max_ticks
    doc["chains"][0]["block_interval"] = block_interval
    doc["payments"][0]["at_tick"] = at
    doc["faults"] = list(faults)
    return doc


def far_docs(at: int, max_ticks: int) -> list[dict]:
    """Long idle stretches before a payment at `at`, then: settled; lp
    stalling from just before `at` to the end, so ann force-closes and lp
    withholds its claim on chain, over idle ticks between blocks, until
    ann's refund; the same stall ending while lp withholds, with ann
    crashed over its end, so lp claims; and the first stall with lp
    dropping gossip all run long and crashed once, so a hit counts on
    every tick."""
    stall = {"kind": "stall-secret", "actor": "lp", "at_tick": at - 3}
    return [
        far_doc(at, max_ticks),
        far_doc(at, max_ticks, [stall], block_interval=3),
        far_doc(at, max_ticks, [
            {**stall, "until_tick": at + 20},
            {"kind": "crash", "actor": "ann", "at_tick": at + 18, "duration": 5},
        ], block_interval=3),
        far_doc(at, max_ticks, [
            {"kind": "drop-gossip", "actor": "lp", "at_tick": 0},
            {"kind": "crash", "actor": "lp", "at_tick": at // 2, "duration": 7},
            stall,
        ], block_interval=3),
    ]


def crash_past_end_doc(duration: int) -> dict:
    """minimal_doc with its payment at tick 5 and ann crashed from tick 1
    for `duration` ticks, past max_ticks 60: the payment start and ann's
    recovery are queued beyond the end of the run."""
    doc = far_doc(5, 60, [{"kind": "crash", "actor": "ann", "at_tick": 1, "duration": duration}])
    return doc


def drop_gossip_docs() -> list[dict]:
    """line_doc (ann - lp - bob) with a second payment at tick 35 and
    drop-gossip windows whose counts `_count_drops` must sum as the
    per-tick rule counts them: two overlapping windows of lp; both ends of
    a channel dropping; lp dropping from tick 0 while bob is crashed in the
    middle of it, so that only ann's channel counts there; bob dropping
    from tick 0, so gossip never converges; and a run that max_ticks stops
    inside lp's window, with a crash recovery still queued past it."""
    def doc(faults, max_ticks=60):
        d = line_doc()
        d["max_ticks"] = max_ticks
        d["payments"].append({**d["payments"][0], "at_tick": 35})
        d["faults"] = faults
        return d

    def drop(actor, at, **until):
        return {"kind": "drop-gossip", "actor": actor, "at_tick": at, **until}

    def crash(actor, at, duration):
        return {"kind": "crash", "actor": actor, "at_tick": at, "duration": duration}

    return [
        doc([drop("lp", 3, until_tick=30), drop("lp", 10, until_tick=40)]),
        doc([drop("ann", 3, until_tick=20), drop("lp", 5, until_tick=25)]),
        doc([drop("lp", 0, until_tick=45), crash("bob", 12, 9)]),
        doc([drop("bob", 0)]),
        doc([drop("lp", 6), crash("ann", 37, 100)], max_ticks=40),
    ]


def stepped_and_jumped(doc: dict) -> tuple[int, int]:
    """Run `doc` on SteppingEngine and on the engine; their reports, metrics
    and fault hits must be equal. Returns the ticks the stepping run
    executed, and those the engine executed."""
    scenario, errors = validate_scenario(doc)
    assert errors == [], errors
    out = []
    for cls in (SteppingEngine, CountingEngine):
        engine = cls(scenario)
        engine.run()
        out.append((report_json(build_report(engine)), engine.metrics, engine.fault_hits,
                    engine.tick))
    assert out[1] == out[0]
    return out[0][3], engine.executed


def test_jumping_clock_matches_stepping():
    """Byte-identical reports, equal metrics and fault hits, whether the
    clock steps through every tick or jumps to the next due one: on the
    bundled scenarios, the acceptance corpus, the race corpus, a slow
    second chain, payments at tick 50,000 after long idle, stalled and
    gossip-dropping stretches, a crash that outlasts max_ticks, so the
    clock stops at max_ticks with events still queued past it, and the
    drop-gossip windows of `drop_gossip_docs`, whose counts the engine sums
    once after the run. The engine executes under 80% of the ticks of the
    first four sets and at most 9,275 of them, under 100 of each far
    payment's, and 4 of the crashed run's 60."""
    docs = doc_sets(corpus=500, race=True)
    docs += [slow_chain_doc(ib, down, 12) for ib in (2, 3, 4) for down in (9, 12, 15)]
    stepped = jumped = 0
    for i, doc in enumerate(docs):
        ticks, executed = stepped_and_jumped(doc)
        assert executed <= ticks, i
        stepped += ticks
        jumped += executed
    assert jumped < 0.8 * stepped, (jumped, stepped)
    # 9,275 of 16,501 stepped ticks execute: a wake rule that adds polls
    # fails here, not only in a benchmark
    assert jumped <= 9_275, (jumped, stepped)
    for doc in drop_gossip_docs():
        stepped_and_jumped(doc)
    for doc in far_docs(50_000, 50_200):
        assert stepped_and_jumped(doc)[1] < 100
    for duration in (1_000, 2**40):
        assert stepped_and_jumped(crash_past_end_doc(duration)) == (60, 4)


@pytest.mark.parametrize("variant", range(4))
def test_far_future_payment_runs_in_few_ticks(variant):
    """A payment at tick 2**31 - 200 under the largest max_ticks finishes
    in a few dozen executed ticks, on chain too, with no violation, at
    heights up to near 2**31 (see test_validate_max_ticks_keeps_every_height_within_a_u32)."""
    doc = far_docs(2**31 - 200, 2**31 - 1)[variant]
    scenario, errors = validate_scenario(doc)
    assert errors == [], errors
    engine = CountingEngine(scenario)
    engine.run()
    report = build_report(engine)
    assert report["violations"] == []
    assert engine.executed < 100
    assert engine.ledgers["main"].height > (2**31 - 200) // doc["chains"][0]["block_interval"]
    pay = report["payments"][0]
    assert (pay["status"], pay["reason"]) == [
        ("settled", "fulfilled"), ("refunded", "expired"),
        ("settled", "claimed-on-chain"), ("refunded", "expired")][variant]
    if variant:
        assert report["metrics"]["urgent_closes"] == 1
        stall = [f for f in report["faults"] if f["kind"] == "stall-secret"]
        assert stall[0]["applied"] > 2  # the settle it stalled and the claims it withheld


def stalled_close_doc() -> dict:
    """minimal_doc under the largest max_ticks on a chain that mines every
    1,000 ticks, lp stalling from tick 0 and a close of the channel
    scheduled at tick 6, while lp withholds the settle of its HTLC."""
    doc = far_doc(4, 2**31 - 1, [{"kind": "stall-secret", "actor": "lp", "at_tick": 0}],
                  block_interval=1000)
    doc["closes"] = [{"at_tick": 6, "channel": 0}]
    return doc


def stalled_settle_doc() -> dict:
    """line_doc under the largest max_ticks on a chain that mines every
    1,000 ticks, with ann, the offerer of hop 0, stalling from tick 0, so
    that lp's settle with ann waits for a stall that outlasts the run."""
    doc = line_doc()
    doc["max_ticks"] = 2**31 - 1
    doc["chains"][0]["block_interval"] = 1000
    doc["faults"] = [{"kind": "stall-secret", "actor": "ann", "at_tick": 0}]
    return doc


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="_ev_close queues itself for the "
                   "next tick while its channel holds an HTLC (6,002 ticks)")
def test_close_waiting_for_an_htlc_runs_in_few_ticks():
    engine = CountingEngine(validate_scenario(stalled_close_doc())[0])
    engine.run()
    assert engine.executed < 100, engine.executed


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="_cascade requeues a settle whose "
                   "stall outlasts the run on every tick until its channel closes on chain "
                   "(12,001 ticks)")
def test_settle_stalled_past_the_run_runs_in_few_ticks():
    engine = CountingEngine(validate_scenario(stalled_settle_doc())[0])
    engine.run()
    assert engine.executed < 100, engine.executed


def settle_on_a_breached_channel_doc(breach: bool = True) -> dict:
    """forward_doc on a chain that mines every 1,000 ticks, with beth
    stalling until tick 8 and ann broadcasting a revoked state of channel 0
    at tick 7: lp's settle of hop 0 meets a channel whose breach is in the
    mempool, then confirmed."""
    doc = forward_doc()
    doc["max_ticks"] = 40_100
    doc["chains"][0]["block_interval"] = 1000
    doc["faults"] = [{"kind": "stall-secret", "actor": "beth", "at_tick": 0, "until_tick": 8}]
    if breach:
        doc["faults"].append(
            {"kind": "broadcast-revoked", "actor": "ann", "at_tick": 7, "channel": 0})
    return doc


def test_settle_on_a_breached_channel_reports_the_punishment():
    """The run the poll below takes: ann's breach is punished and the
    payment refunds, with no violation. Without the breach it settles in
    6 executed ticks."""
    engine = CountingEngine(validate_scenario(settle_on_a_breached_channel_doc())[0])
    engine.run()
    report = build_report(engine)
    pay = report["payments"][0]
    assert (pay["status"], pay["reason"], report["violations"]) == (
        "refunded", "breach-punished", [])
    engine = CountingEngine(validate_scenario(settle_on_a_breached_channel_doc(False))[0])
    engine.run()
    assert engine.executed == 6
    assert build_report(engine)["payments"][0]["status"] == "settled"


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="_cascade queues a settle that "
                   "met a channel whose close is in the mempool for the next tick, until the "
                   "close confirms (998 ticks)")
def test_settle_on_a_channel_gone_on_chain_runs_in_few_ticks():
    engine = CountingEngine(validate_scenario(settle_on_a_breached_channel_doc())[0])
    engine.run()
    assert engine.executed < 100, engine.executed


# ------------------------------------------------------------ unpunished breach


def unpunished_breach_doc(base, crash_at: int, duration: int, breach_at: int) -> dict:
    """`base()` (minimal_doc or line_doc) under max_ticks 300 with a second
    payment at tick 10, lp crashing at `crash_at` for `duration` ticks and
    ann broadcasting a revoked state of channel 0 at `breach_at`. That state
    may lack the second payment's HTLC, and lp may be offline to punish it."""
    doc = base()
    doc["max_ticks"] = 300
    doc["payments"].append(dict(doc["payments"][0], at_tick=10))
    doc["faults"] = [
        {"kind": "crash", "actor": "lp", "at_tick": crash_at, "duration": duration},
        {"kind": "broadcast-revoked", "actor": "ann", "at_tick": breach_at, "channel": 0},
    ]
    return doc


@pytest.mark.parametrize("base, crash_at, duration, breach_at, ticks", [
    (minimal_doc, 11, 30, 12, (6, 20)),
    (line_doc, 12, 40, 16, (8, 24)),
])
def test_a_hop_missing_from_an_unpunished_revoked_close_refunds(
        base, crash_at, duration, breach_at, ticks):
    """ann broadcasts a revoked state that lacks the HTLC of its second
    payment while lp, who could punish it, is offline; ann sweeps its
    delayed output and the channel settles with no justice. That HTLC has
    no output in the confirmed commitment, so its hop refunds as the
    channel settles (BOLT #5): the payment ends, and on line_doc lp's
    settle of hop 0 no longer polls the settled channel until max_ticks."""
    report = run_doc(unpunished_breach_doc(base, crash_at, duration, breach_at))
    assert report["violations"] == []
    assert [(p["status"], p["reason"], p["resolved_tick"]) for p in report["payments"]] == [
        ("settled", "fulfilled", ticks[0]), ("refunded", "breach-unpunished", ticks[1])]


def test_unpunished_breaches_end_every_payment_on_every_engine():
    """90 placements of an lp crash and an ann breach of channel 0 on
    minimal_doc and line_doc, each with a second payment: every payment
    ends, no run has a violation, and Engine, SteppingEngine,
    KeepingEngine and ScanningEngine give byte-equal reports. In 16 of
    them a payment ends `breach-unpunished`; each of those 16 left its
    payment pending before that rule."""
    reasons = Counter()
    for base, crash_at, duration, breach_at in itertools.product(
            (minimal_doc, line_doc), (8, 10, 11, 12, 14), (5, 10, 30), (12, 16, 20)):
        doc = unpunished_breach_doc(base, crash_at, duration, breach_at)
        scenario, errors = validate_scenario(doc)
        assert errors == [], errors
        texts = set()
        for cls in (engine_mod.Engine, SteppingEngine, KeepingEngine, ScanningEngine):
            engine = cls(scenario)
            engine.run()
            texts.add(report_json(build_report(engine)))
        assert len(texts) == 1, doc["faults"]
        report = json.loads(texts.pop())
        assert report["violations"] == [], doc["faults"]
        assert all(p["status"] in ("settled", "refunded") for p in report["payments"])
        reasons.update(p["reason"] for p in report["payments"])
    assert reasons["breach-unpunished"] == 16, reasons


# ------------------------------------------------------------ retirement oracle


class KeepingEngine(engine_mod.Engine):
    """The engine before payments retired: a finished payment stays in
    `live` with its hops and its invoice, so a settle or fail still queued
    for one of its hops runs and finds the hop resolved. With `live` never
    emptied, the run ends by the termination rule of that engine: a scan
    for an unresolved hop on an OPEN channel."""

    def _retire(self, p):
        pass

    def _outstanding(self):
        if self.queue or self.pending_txs or self.closed:
            return True
        if any(not hop.resolved and hop.chan.channel.phase is ChannelPhase.OPEN
               for p in self.live.values() for hop in p.hops):
            return True
        return self.gossip_converged_tick < 0 and self.tick < self.gossip_end


class RetiringEngine(engine_mod.Engine):
    """Engine, counting the settle and fail events that reach a payment
    after it retired."""

    def __init__(self, scenario):
        self.late = Counter()
        super().__init__(scenario)

    def _ev_settle_or_fail(self, pidx, i, settle):
        self.late["settle" if settle else "fail"] += not self.payments[pidx].hops
        super()._ev_settle_or_fail(pidx, i, settle)


def late_fail_doc() -> dict:
    """lp refuses ann's forward at tick 6 and crashes at 7, before its fail
    reaches ann. ann closes and refunds on chain (payment refunded at tick
    19), and lp's fail, requeued for its recovery at 27, meets a retired
    payment."""
    doc = forward_doc()
    doc["faults"] = [
        {"kind": "refuse-forward", "actor": "lp", "at_tick": 0, "until_tick": 10},
        {"kind": "crash", "actor": "lp", "at_tick": 7, "duration": 20},
    ]
    return doc


def test_retiring_a_payment_changes_no_report_byte():
    """Byte-identical reports with and without retirement on the bundled
    scenarios, the first 50 acceptance-corpus documents, the race corpus,
    the multi-fault meshes and a fail queued past its payment's end, so the
    run ends as `_outstanding` says when the hop scan says. Some runs have
    settles, and one a fail, still queued when it retires."""
    docs = doc_sets(corpus=50, race=True, meshes=True)
    docs.append(late_fail_doc())
    late = Counter()
    for i, doc in enumerate(docs):
        scenario, errors = validate_scenario(doc)
        assert errors == [], errors
        keeping, retiring = KeepingEngine(scenario), RetiringEngine(scenario)
        keeping.run()
        retiring.run()
        assert report_json(build_report(retiring)) == report_json(build_report(keeping)), i
        late.update(retiring.late)
    assert retiring.late == Counter(fail=1)  # the last document
    assert late["settle"] > 0, late


def test_hops_name_the_route_they_hold():
    """Every hop reads its parties from its channel's own HTLC record, kept
    in that channel's history: on the bundled scenarios, the first 100
    acceptance-corpus documents and the multi-fault meshes, the hops of
    each payment chain from its sender over the two parties of each
    channel, and a settled payment's last hop reaches its recipient. Only
    the meshes offer HTLCs from party_b too."""
    docs = doc_sets(corpus=100, meshes=True)
    settled, sides = 0, Counter()
    for doc in docs:
        engine = KeepingEngine(validate_scenario(doc)[0])
        engine.run()
        for p in engine.payments:
            offerers = [p.spec.sender] + [hop.receiver for hop in p.hops[:-1]]
            assert [hop.offerer for hop in p.hops] == offerers[:len(p.hops)]
            for hop in p.hops:
                assert {hop.offerer, hop.receiver} == set(hop.chan.names)
                states = hop.chan.channel.recorded_states()
                assert any(hop.htlc is h for st in states for h in st.htlcs)
                sides[hop.htlc.offerer_side] += 1
            if p.status == "settled":
                assert p.hops[-1].receiver == p.spec.recipient
                settled += 1
    assert settled > 50 and sides.keys() == {"a", "b"}, (settled, sides)


def mirrored(doc: dict) -> dict:
    """`doc` with each channel's two sides swapped, parties and funds."""
    doc = copy.deepcopy(doc)
    for ch in doc["channels"]:
        ch["party_a"], ch["party_b"] = ch["party_b"], ch["party_a"]
        ch["fund_a"], ch["fund_b"] = ch["fund_b"], ch["fund_a"]
    return doc


def test_htlcs_offered_by_party_b_run_clean():
    """The first 100 acceptance-corpus documents with every channel's sides
    swapped, so that party_b offers every HTLC: the indexed steps match full
    scans byte for byte, no invariant is violated and every payment ends."""
    sides = Counter()
    for i, doc in enumerate(doc_sets(demos=False, corpus=100)):
        doc = mirrored(doc)
        (scanned, _), (indexed, _) = scanned_and_indexed(doc)
        assert indexed == scanned, i
        report = json.loads(indexed)
        assert report["violations"] == [], (i, report["violations"])
        assert all(p["status"] in ("settled", "refunded") for p in report["payments"]), i
        engine = KeepingEngine(validate_scenario(doc)[0])
        engine.run()
        sides.update(hop.htlc.offerer_side for p in engine.payments for hop in p.hops)
    assert sides.keys() == {"b"}, sides


class HeldHtlcsEngine(engine_mod.Engine):
    """Engine, checking after each executed tick the facts `_outstanding`
    reads from its indexes:
    - the HTLCs the OPEN channels hold are exactly the `htlc` records of the
      unresolved hops of live payments on OPEN channels;
    - every payment in `live` has an unresolved hop;
    - every unresolved hop not on an OPEN channel is on a channel in `closed`;
    - `pending_txs` holds exactly the txids in the ledgers' mempools;
    - `closed` is exactly the channels in a `CLOSED_ON_CHAIN` phase.
    `seen` counts the ticks at which a hop sat off an OPEN channel, a
    transaction was pending and a channel was closed."""

    def __init__(self, scenario):
        self.seen = Counter()
        super().__init__(scenario)

    def _check_conservation(self, where):
        super()._check_conservation(where)
        held = sorted(id(h) for rt in self.channels if rt.channel.phase is ChannelPhase.OPEN
                      for h in rt.channel.pending_htlcs)
        hops = sorted(id(hop.htlc) for p in self.live.values() for hop in p.hops
                      if not hop.resolved and hop.chan.channel.phase is ChannelPhase.OPEN)
        assert held == hops, where
        assert all(any(not hop.resolved for hop in p.hops) for p in self.live.values()), where
        off_open = {hop.chan.idx for p in self.live.values() for hop in p.hops
                    if not hop.resolved and hop.chan.channel.phase is not ChannelPhase.OPEN}
        assert off_open <= self.closed, where
        mempools = set().union(*(led._mempool for led in self.ledgers.values()))
        assert set(self.pending_txs) == mempools, where
        assert self.closed == {rt.idx for rt in self.channels
                               if rt.channel.phase in CLOSED_ON_CHAIN}, where
        self.seen.update(off_open=bool(off_open), pending=bool(self.pending_txs),
                         closed=bool(self.closed))


def test_open_channels_hold_the_htlcs_of_the_live_hops():
    """`HeldHtlcsEngine` on the bundled scenarios, the first 100
    acceptance-corpus documents, the race corpus and the multi-fault
    meshes."""
    docs = doc_sets(corpus=100, race=True, meshes=True)
    held, seen = 0, Counter()
    for doc in docs:
        engine = HeldHtlcsEngine(validate_scenario(doc)[0])
        engine.run()
        held += sum(p.hop_count for p in engine.payments)
        seen.update(engine.seen)
    assert held > 1000, held
    assert min(seen[k] for k in ("off_open", "pending", "closed")) > 100, seen


# ------------------------------------------------------------- preimage store


class LearningEngine(engine_mod.Engine):
    """Engine, noting how preimages travel: the hashes claimed on chain,
    and by actor the hashes of the off-chain fulfils it received."""

    def __init__(self, scenario):
        self.claimed, self.fulfilled = set(), {}
        super().__init__(scenario)

    def _spent_on_chain(self, chan_idx, spend):
        if spend.kind == "claim":
            self.claimed.add(spend.htlc.payment_hash)
        super()._spent_on_chain(chan_idx, spend)

    def _resolve_hop(self, p, i, outcome, reason):
        if outcome == "fulfilled":
            hop = p.hops[i]
            self.fulfilled.setdefault(hop.offerer, set()).add(hop.htlc.payment_hash)
        super()._resolve_hop(p, i, outcome, reason)


def test_each_preimage_is_stored_once(monkeypatch):
    """On the multi-fault meshes (18 actors each, and on-chain claims in
    three of them), an actor's `secrets` hold only what it learned itself:
    the secrets of the invoices it made and the preimages of the off-chain
    fulfils it received. `public` holds exactly the hashes claimed on
    chain, one entry each."""
    make_invoice, invoices = engine_mod.make_invoice, []

    def recording(*args):
        invoice, secret = make_invoice(*args)
        invoices.append(invoice)
        return invoice, secret

    monkeypatch.setattr(engine_mod, "make_invoice", recording)
    engines = []
    for i, doc in enumerate(doc_sets(demos=False, meshes=True)):
        invoices.clear()
        engine = LearningEngine(validate_scenario(doc)[0])
        engine.run()
        own = {name: set() for name in engine.actors}
        for invoice in invoices:
            own[engine.actor_by_pub[invoice.recipient]].add(invoice.payment_hash)
        for name, actor in engine.actors.items():
            assert set(actor.secrets) == own[name] | engine.fulfilled.get(name, set()), (i, name)
        engines.append(engine)
    assert [set(engine.public) == engine.claimed for engine in engines] == [True] * MESHES
    assert sum(len(engine.claimed) for engine in engines) > 20


# ------------------------------------------------------------- poll detector


class SchedulingCountEngine(engine_mod.Engine):
    """Engine, counting how often each event is scheduled, keyed by its
    handler and its int arguments (a hop offer's packet is left out)."""

    def __init__(self, scenario):
        self.scheduled = Counter()
        super().__init__(scenario)

    def _schedule(self, tick, handler, *args):
        self.scheduled[handler.__name__, tuple(a for a in args if isinstance(a, int))] += 1
        super()._schedule(tick, handler, *args)


# The known requeue sites, by document set: how many documents schedule one
# of their events more than 3 times. A close of a channel holding HTLCs,
# and a settle that is stalled past the run or meets a channel whose close
# is in the mempool, queue themselves for the next tick (the engine
# docstring's three exceptions). A count may only fall.
POLLING_DOCS = {
    "corpus": {"_ev_settle_or_fail": 22},
    "race": {"_ev_close": 34, "_ev_settle_or_fail": 8},
    "meshes": {"_ev_settle_or_fail": 2},
}


def test_no_event_is_scheduled_more_than_three_times():
    """No event is scheduled more than 3 times in any run of the demos, the
    acceptance corpus, the race corpus, the multi-fault meshes or the
    benchmark's star, mesh and churn worlds, except at the requeue sites of
    POLLING_DOCS and in at most as many documents as it pins there."""
    corpora = {
        "demos": doc_sets(),
        "corpus": workloads.corpus(workloads.DEFAULT_SEED, 500),
        "race": doc_sets(demos=False, race=True),
        "meshes": doc_sets(demos=False, meshes=True),
        "fault-free": [doc for w in ("star", "mesh", "churn")
                       for doc in workloads.generate(w, workloads.DEFAULT_SEED)],
    }
    for name, docs in corpora.items():
        polling = Counter()
        for doc in docs:
            engine = SchedulingCountEngine(validate_scenario(doc)[0])
            engine.run()
            polling.update({site for (site, _), n in engine.scheduled.items() if n > 3})
        pins = POLLING_DOCS.get(name, {})
        assert {site: n for site, n in polling.items() if n > pins.get(site, 0)} == {}, (
            name, polling)
