"""End-to-end tests for the scenario engine, report, and command line."""

import copy
import json
import random
from importlib import resources

import pytest

import comit.crp.graph as graph_mod
import comit.simnet.engine as engine_mod
from comit.channels import Channel, ChannelPhase
from comit.crp import ChannelGraph, GossipState
from comit.simnet import run_scenario, validate_scenario
from comit.simnet.cli import main
from comit.simnet.report import build_report, report_json
from test_acceptance import random_scenario
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


def demo_report(name: str) -> dict:
    path = resources.files("comit.simnet") / "scenarios" / f"{name}.json"
    scenario, errors = validate_scenario(path.read_bytes())
    assert errors == []
    return run_scenario(scenario)


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
    doc["mining"] = {"main": 1, 9: 1}
    scenario, errors = validate_scenario(doc)
    assert scenario is None
    assert "parse-error: document: key 7 is not a string" in errors
    assert "parse-error: chains[0].genesis: key 8 is not a string" in errors
    assert "parse-error: mining: key 9 is not a string" in errors


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


def test_validate_constraint_violations():
    doc = minimal_doc()
    doc["chains"].append(copy.deepcopy(doc["chains"][0]))  # duplicate chain_id
    doc["channels"][0]["party_b"] = "ann"  # channel with itself
    doc["payments"][0]["recipient"] = "ann"  # pay yourself
    _, errors = validate_scenario(doc)
    assert len(errors) >= 3
    assert all(e.startswith("constraint-violation:") for e in errors)


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


def test_broadcast_revoked_without_gain_is_a_noop():
    doc = minimal_doc()
    doc["payments"] = []
    doc["faults"] = [{"kind": "broadcast-revoked", "actor": "lp", "at_tick": 5, "channel": 0}]
    report = run_doc(doc)
    assert report["metrics"].get("breach_noops", 0) == 1
    assert report["channels"][0]["phase"] == "open"
    assert report["violations"] == []


def test_mining_interval_slows_chain():
    doc = minimal_doc()
    doc["chains"][0]["block_interval"] = 3
    slow = run_doc(doc)
    fast = run_doc(minimal_doc())
    assert slow["payments"][0]["status"] == "settled"
    assert slow["chains"]["main"]["height"] < fast["chains"]["main"]["height"]
    # the top-level mining section overrides the chain's own interval
    doc2 = minimal_doc()
    doc2["mining"] = {"main": 3}
    assert run_doc(doc2)["chains"]["main"]["height"] == slow["chains"]["main"]["height"]


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
    assert any(v.startswith("role-constraint") for v in report["violations"])


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
    assert main(["run", str(path)]) == 0
    text = capsys.readouterr().out
    assert "violations: none" in text and "settled" in text


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


# ---------------------------------------------------------------- scaling


def star_doc(users: int) -> dict:
    """`users` users and four businesses, each with one channel to a single
    LP; one payment per user to a business, four a tick once gossip is
    done."""
    us = [f"u{i:04d}" for i in range(users)]
    bz = [f"b{i}" for i in range(4)]
    links = [(n, "hub") for n in us + bz]
    genesis = {n: 100_000 for n in us + bz}
    genesis["hub"] = 100_000 * len(links)
    return {
        "seed": 11,
        "max_ticks": 6 + users // 4 + 100,
        "chains": [{"chain_id": "main", "asset": "coin", "hash_fns": ["SHA256"],
                    "genesis": genesis}],
        "actors": ([{"name": u, "kind": "user"} for u in us]
                   + [{"name": "hub", "kind": "lp"}]
                   + [{"name": b, "kind": "business"} for b in bz]),
        "channels": [{"chain_id": "main", "party_a": a, "party_b": b,
                      "fund_a": 100_000, "fund_b": 100_000} for a, b in links],
        "quotes": [{"node": "hub", "asset_in": "coin", "asset_out": "coin",
                    "rate_num": 1, "rate_den": 1, "base_fee": 1, "fee_ppm": 1000}],
        "payments": [{"at_tick": 6 + i // 4, "sender": u, "recipient": bz[i % 4],
                      "amount": 100 + 7 * i, "asset": "coin"}
                     for i, u in enumerate(us)],
    }


def routing_counts(monkeypatch, doc: dict) -> dict:
    """Run `doc` and count the routing work: graph builds, the distinct
    advert sets they were built from, backward_apply calls, partial paths
    grown and edges_into items visited inside find_route, routes found, and
    the ticks gossip_step ran in. Count the housekeeping work too:
    process_block calls on blocks that confirm nothing, side_of calls made
    by _protect and _sweep_closed, _active calls outside _gossip_round, and
    the ticks it ran in inside."""
    counts = {"builds": 0, "sets": set(), "applies": 0, "paths": 0, "edges": 0, "routes": 0,
              "gossip_ticks": set(), "searching": False, "step": None,
              "empty_blocks": 0, "housekeeping_sides": 0, "active": 0,
              "gossip_active_ticks": set()}
    build = ChannelGraph.from_adverts.__func__

    def from_adverts(cls, adverts, *args):
        counts["builds"] += 1
        counts["sets"].add(tuple((a.node_pubkey, a.timestamp) for a in adverts))
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
        counts["housekeeping_sides"] += counts["step"] in ("_protect", "_sweep_closed")
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
        for name in ("_protect", "_sweep_closed", "_gossip_round"):
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
    _protect and _sweep_closed find no channel to act on, and fault
    lookups happen per payment, not per actor and tick."""
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


# ---------------------------------------------------------------- housekeeping oracle


class ScanningEngine(engine_mod.Engine):
    """The engine with its per-tick steps scanning every actor, channel and
    fault: the oracle the indexed steps must match byte for byte. Only what
    is visited differs; what a visit does is the engine's own code."""

    def _active(self, name, kind, tick=None):
        t = self.tick if tick is None else tick
        return [
            i for i, f in enumerate(self.sc.faults)
            if f.actor == name and f.kind == kind and f.at_tick <= t < f.until_tick
        ]

    def _mine(self):
        for cid in sorted(self.ledgers):
            if self.tick % self.intervals[cid] != 0:
                continue
            summary = self.ledgers[cid].mine_blocks(1)[0]
            for rt in self.chans_on[cid]:
                rt.channel.process_block(summary)
            for tx_id in summary.txids:
                meta = self.pending_txs.pop(tx_id, None)
                if meta is not None:
                    self._confirmed(meta)

    def _learn_from_chains(self):
        for name in sorted(self.actors):
            actor = self.actors[name]
            if not self._online(name):
                continue
            for cid in sorted(self.ledgers):
                revealed = self.revealed[cid]
                for payment_hash, preimage in revealed[actor.scan[cid]:]:
                    actor.secrets.setdefault(payment_hash, preimage)
                actor.scan[cid] = len(revealed)

    def _gossip_round(self):
        for rt in self.channels:
            self._gossip_channel(rt)
        self._note_convergence()

    def _protect(self):
        for name in sorted(self.actors):
            if not self._online(name):
                continue
            for rt in self.actors[name].channels:
                if rt.channel.phase is ChannelPhase.OPEN:
                    self._protect_channel(name, rt)

    def _sweep_closed(self):
        for name in sorted(self.actors):
            if not self._online(name):
                continue
            stalling = bool(self._active(name, "stall-secret"))
            for rt in self.actors[name].channels:
                if rt.channel.phase in engine_mod.CLOSED_ON_CHAIN:
                    self._sweep_channel(name, rt, stalling)


def scanned_and_indexed(doc: dict) -> list[tuple[str, dict]]:
    """`doc`'s report text and metrics from ScanningEngine and Engine."""
    out = []
    for cls in (ScanningEngine, engine_mod.Engine):
        scenario, errors = validate_scenario(doc)
        assert errors == [], errors
        engine = cls(scenario)
        engine.run()
        out.append((report_json(build_report(engine)), engine.metrics))
    return out


def test_indexed_housekeeping_matches_full_scans():
    """Byte-identical reports from the indexed per-tick steps and from full
    scans, on the bundled scenarios, the first 100 acceptance-corpus
    scenarios, the multi-fault meshes, a fault-free mesh and a star."""
    docs = [
        json.loads((resources.files("comit.simnet") / "scenarios" / name).read_text())
        for name in sorted(
            p.name for p in (resources.files("comit.simnet") / "scenarios").iterdir()
            if p.name.endswith(".json")
        )
    ]
    rng = random.Random(0xACCE97)
    docs += [random_scenario(rng) for _ in range(100)]
    rng = random.Random(CORPUS_SEED)
    docs += [mesh_doc(rng) for _ in range(MESHES)]
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
    seen = {}
    for i, doc in enumerate(docs):
        (scanned, metrics), (indexed, _) = scanned_and_indexed(doc)
        assert indexed == scanned, i
        for k, v in metrics.items():
            seen[k] = seen.get(k, 0) + v
    # the runs reach every path the indexes decide
    for metric in ("urgent_closes", "justice_txs", "onchain_claims", "onchain_refunds",
                   "gossip_drops", "stall_blocks", "crash_requeues"):
        assert seen.get(metric, 0) > 0, (metric, seen)
