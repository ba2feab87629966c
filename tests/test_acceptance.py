"""Whole-stack acceptance checks.

Eight criteria, each asserted by one test that records a single printed
pass/fail line (repeated in the terminal summary by conftest). The
randomized scenario corpus drives the full engine: real chains, real
channels, onion routing, faults, and the conservation checks that run at
every event boundary inside the engine itself.
"""

import json
import os
import random
import subprocess
import sys
from importlib import resources

import pytest

from comit.chainlab import ChainParams, HashFnId, Ledger, hash_digest
from comit.channels import ChannelParty, ChannelPhase, open_channel
from comit.crp import (
    ChannelGraph,
    Edge,
    HopSpec,
    NodeKey,
    NoRouteFound,
    OnionError,
    OnionPacket,
    PACKET_SIZE,
    RateQuote,
    Route,
    compute_hop_amounts,
    find_route,
    onion_create,
    onion_peel,
)
from comit.crp.quotes import backward_apply
from comit.simnet import run_scenario, validate_scenario
from comit.simnet.report import report_json

from test_onion import flat_payloads
from test_routing import nid, oracle_enumerate

S256 = HashFnId.SHA256

FAULT_MENU = ("refuse-forward", "stall-secret", "crash", "drop-gossip", "broadcast-revoked")
FN_POOL = (["SHA256"], ["SHA256", "SHA3_256"], ["SHA256", "BLAKE2B_256"])


def random_scenario(rng: random.Random) -> dict:
    """A line-topology world: user -> LPs -> business, one fault.

    Up to 3 chains, up to 6 actors, routes of 1..5 hops. Channel funding
    is sized so the worst-case fee stacking always fits.
    """
    hops = rng.randint(1, 5)
    if hops == 1:
        actors = [("u0", "user"), ("lp1", "lp")]
    else:
        actors = (
            [("u0", "user")]
            + [(f"lp{i}", "lp") for i in range(1, hops)]
            + [("bz", "business")]
        )
    names = [n for n, _ in actors]

    n_chains = rng.randint(1, min(3, hops))
    chains = []
    for c in range(n_chains):
        chains.append(
            {
                "chain_id": f"net{c}",
                "asset": f"tok{c}",
                "hash_fns": list(rng.choice(FN_POOL)),
                "tx_fee": rng.choice([0, 1, 2]),
                "block_interval": rng.choice([1, 1, 1, 2]),
                "genesis": {},
            }
        )
    edge_chain = [rng.randrange(n_chains) for _ in range(hops)]
    edge_chain[-1] = rng.randrange(n_chains)

    channels = []
    for i in range(hops):
        spec = {
            "chain_id": f"net{edge_chain[i]}",
            "party_a": names[i],
            "party_b": names[i + 1],
            "fund_a": 60_000,
            "fund_b": 60_000,
            "csv_delay": rng.choice([4, 6]),
        }
        channels.append(spec)
        gen = chains[edge_chain[i]]["genesis"]
        for p in (names[i], names[i + 1]):
            gen[p] = gen.get(p, 0) + 70_000

    quotes = []
    for i in range(hops - 1):
        # the node receiving hop i prices the conversion to hop i+1
        quotes.append(
            {
                "node": names[i + 1],
                "asset_in": f"tok{edge_chain[i]}",
                "asset_out": f"tok{edge_chain[i + 1]}",
                "rate_num": rng.randint(1, 2),
                "rate_den": rng.randint(1, 2),
                "base_fee": rng.randint(0, 15),
                "fee_ppm": rng.choice([0, 500, 10_000]),
            }
        )
    if hops == 1 and rng.random() < 0.5:
        # recipient LP sometimes advertises its own delivery terms
        quotes.append(
            {
                "node": "lp1",
                "asset_in": "tok0",
                "asset_out": "tok0",
                "rate_num": 1,
                "rate_den": 1,
                "base_fee": rng.randint(0, 5),
                "fee_ppm": 0,
            }
        )

    p_tick = rng.randint(6, 10)
    payments = [
        {
            "at_tick": p_tick,
            "sender": "u0",
            "recipient": names[-1],
            "amount": rng.randint(200, 2000),
            "asset": f"tok{edge_chain[-1]}",
        }
    ]
    if rng.random() < 0.25:
        payments.append(dict(payments[0], at_tick=p_tick + rng.randint(1, 4),
                             amount=rng.randint(200, 2000)))
    if rng.random() < 0.5:
        payments[0]["hash_fn"] = "SHA256"

    kind = rng.choice(FAULT_MENU)
    lps = [n for n, k in actors if k == "lp"]
    if kind == "refuse-forward":
        fault = {
            "kind": kind,
            "actor": rng.choice(lps),
            "at_tick": rng.randint(0, 12),
            "until_tick": rng.randint(13, 40),
        }
    elif kind == "stall-secret":
        fault = {
            "kind": kind,
            "actor": rng.choice(lps + [names[-1]]),
            "at_tick": rng.randint(0, p_tick + 2),
        }
        if rng.random() < 0.6:
            fault["until_tick"] = fault["at_tick"] + rng.randint(3, 25)
    elif kind == "crash":
        fault = {
            "kind": kind,
            "actor": rng.choice(names),
            "at_tick": rng.randint(2, p_tick + 3),
            "duration": rng.randint(1, 6),
        }
    elif kind == "drop-gossip":
        fault = {"kind": kind, "actor": rng.choice([names[0]] + lps), "at_tick": 0}
        if rng.random() < 0.5:
            fault["until_tick"] = rng.randint(1, 6)
    else:  # broadcast-revoked
        cheater_idx = rng.randrange(len(names))
        fault = {
            "kind": kind,
            "actor": names[cheater_idx],
            "at_tick": p_tick + rng.randint(4, 10),
        }
        if rng.random() < 0.5:
            owned = [i for i, ch in enumerate(channels)
                     if names[cheater_idx] in (ch["party_a"], ch["party_b"])]
            fault["channel"] = rng.choice(owned)

    return {
        "seed": rng.getrandbits(48),
        "max_ticks": 120,
        "chains": chains,
        "actors": [{"name": n, "kind": k} for n, k in actors],
        "channels": channels,
        "quotes": quotes,
        "payments": payments,
        "faults": [fault],
    }


@pytest.fixture(scope="module")
def corpus():
    """500 randomized end-to-end runs, shared by criteria 1 and 2."""
    rng = random.Random(0xACCE97)
    runs = []
    for i in range(500):
        doc = random_scenario(rng)
        scenario, errors = validate_scenario(doc)
        assert errors == [], f"scenario {i}: {errors}"
        runs.append(run_scenario(scenario))
    return runs


def test_criterion_1_payments_terminate_cleanly(corpus, criterion):
    total = settled = 0
    bad = []
    for i, report in enumerate(corpus):
        if report["violations"]:
            bad.append((i, report["violations"]))
        for pay in report["payments"]:
            total += 1
            if pay["status"] == "settled":
                settled += 1
            elif pay["status"] != "refunded":
                bad.append((i, pay))
    ok = not bad and total >= 500 and settled >= total * 0.4
    criterion(
        1,
        ok,
        f"500 randomized scenarios: {total} payments all terminal "
        f"({settled} settled), zero invariant violations",
    )


def test_criterion_2_no_honest_actor_loses(corpus, criterion):
    honest = losses = 0
    for report in corpus:
        for name, info in report["actors"].items():
            if info["honest"]:
                honest += 1
                if not info["no_loss"]:
                    losses += 1
    ok = losses == 0 and honest > 1000
    criterion(
        2,
        ok,
        f"no-honest-loss held for {honest} honest actor-runs "
        f"under every fault ({losses} losses)",
    )


def test_criterion_3_justice_always_wins(criterion):
    rng = random.Random(0x1CE)
    params = ChainParams("main", "COIN", frozenset({S256}), tx_fee=0)
    punished = 0
    for trial in range(100):
        alice = ChannelParty.generate(rng)
        bob = ChannelParty.generate(rng)
        ledger = Ledger(params, [(alice.pubkey, 50_000), (bob.pubkey, 50_000)])
        csv = rng.randint(3, 8)
        ch = open_channel(ledger, alice, bob, 12_000, 8_000, csv_delay=csv)
        balances = {"a": 12_000, "b": 8_000}

        updates = rng.randint(1, 9)
        for _ in range(updates):
            side = rng.choice(["a", "b"])
            if balances[side] < 2:
                side = "a" if side == "b" else "b"
            offerer = alice if side == "a" else bob
            amount = rng.randint(1, min(balances[side], 3_000))
            secret = rng.randbytes(32)
            hid = ch.add_htlc(offerer, amount, S256, hash_digest(S256, secret), 400)
            other = "b" if side == "a" else "a"
            if rng.random() < 0.6:
                ch.fulfill_htlc(hid, secret)
                balances[side] -= amount
                balances[other] += amount
            else:
                ch.fail_htlc(hid)

        cheater, victim = (alice, bob) if rng.random() < 0.5 else (bob, alice)
        stale = rng.randrange(ch.commitment_number)
        before = sum(a for _, a in ledger.spendable_by(victim.pubkey))
        ch.unilateral_close(cheater, commitment_number=stale)
        for s in ledger.mine_blocks(1):
            ch.process_block(s)
        assert ch.phase is ChannelPhase.BREACHED
        breach_height = ch.closed_height
        ch.punish_breach(victim)
        settle_height = None
        for _ in range(csv + 1):
            for s in ledger.mine_blocks(1):
                ch.process_block(s)
            if ch.phase is ChannelPhase.SETTLED and settle_height is None:
                settle_height = ledger.height
        after = sum(a for _, a in ledger.spendable_by(victim.pubkey))
        if (
            settle_height is not None
            and settle_height - breach_height <= csv
            and after - before == ch.capacity
            and ledger.total_utxo_value() + ledger.burned == ledger.genesis_total
        ):
            punished += 1
    criterion(
        3,
        punished == 100,
        f"revoked-state broadcasts punished within the contest delay, "
        f"victim claims the full capacity: {punished}/100",
    )


def test_criterion_4_route_search_is_optimal(criterion):
    rng = random.Random(0x404)
    agree = routes = 0
    for trial in range(200):
        n_chains = rng.randint(1, 3)
        chain_fns = {}
        chain_asset = {}
        for c in range(n_chains):
            chain_fns[f"c{c}"] = frozenset(
                rng.choice([[S256], [S256, HashFnId.SHA3_256]])
            )
            chain_asset[f"c{c}"] = f"as{c}"
        labels = ["S", "A", "B", "C", "D", "E", "F", "R"][: rng.randint(4, 8)]
        labels[-1] = "R"
        nodes = [nid(x) for x in labels]
        edges = []
        seen = set()
        for _ in range(12):
            u, v = rng.sample(nodes, 2)
            cid = f"c{rng.randrange(n_chains)}"
            if (u, v, cid) in seen:
                continue
            seen.add((u, v, cid))
            edges.append(Edge(u, v, cid, chain_asset[cid], rng.choice([150, 2_000, 50_000])))
        quotes = {}
        assets = sorted(set(chain_asset.values()))
        for node in nodes[1:]:
            table = {}
            for a_in in assets:
                for a_out in assets:
                    if rng.random() < 0.6:
                        table[(a_in, a_out)] = (
                            rng.randint(1, 3),
                            rng.randint(1, 3),
                            rng.randint(0, 10),
                            rng.choice([0, 2_500]),
                        )
            quotes[node] = table

        g = ChannelGraph(chain_fns, edges, [
            (node, RateQuote(a_in, a_out, *terms))
            for node, table in quotes.items() for (a_in, a_out), terms in table.items()
        ])
        amount_out = rng.randint(30, 800)
        asset_out = rng.choice(assets)
        required = rng.choice([None, None, S256])
        expected = oracle_enumerate(
            edges, quotes, chain_fns, nid("S"), nid("R"),
            amount_out, asset_out, required, 20,
        )
        try:
            route = find_route(
                g, nid("S"), nid("R"), amount_out, asset_out, required_hash_fn=required
            )
        except NoRouteFound:
            if expected == {}:
                agree += 1
            continue
        routes += 1
        key = (route.cost, len(route.hops), route.nodes())
        prices = (
            tuple(h.amount for h in route.hops),
            tuple(h.fee for h in route.hops),
        )
        if key == min(expected) and prices in expected[key]:
            agree += 1
    ok = agree == 200 and routes >= 40
    criterion(
        4,
        ok,
        f"route search matched the exhaustive enumeration on 200 random "
        f"graphs ({routes} with viable routes)",
    )


def _max_forwardable(quote: RateQuote, budget: int) -> int:
    """Largest amount_out a node will release for `budget` coming in."""
    lo, hi = 0, budget * quote.rate_num // quote.rate_den + 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid >= 1 and backward_apply(quote, mid)[0] <= budget:
            lo = mid
        else:
            hi = mid - 1
    return lo


def test_criterion_5_priced_amounts_always_deliver(criterion):
    rng = random.Random(0x5CA1E)
    ok = True
    exact = 0
    for trial in range(10_000):
        k = rng.randint(1, 5)
        quotes = [
            RateQuote(
                f"a{i}",
                f"a{i + 1}",
                rng.randint(1, 5),
                rng.randint(1, 5),
                rng.randint(0, 20),
                rng.choice([0, 777, 10_000, 250_000]),
            )
            for i in range(k)
        ]
        amount_out = rng.randint(1, 10**9)
        route = Route(
            sender=nid("S"),
            hops=tuple(
                HopSpec(nid(f"N{i}"), f"c{i}", f"a{i + 1}", 1, 0, q)
                for i, q in enumerate(quotes)
            ),
        )
        plan = compute_hop_amounts(route, amount_out)
        carry = plan[0][0]
        for q in quotes:
            carry = _max_forwardable(q, carry)
        if carry < amount_out:
            ok = False
            break
        if carry == amount_out:
            exact += 1
    criterion(
        5,
        ok,
        f"backward-priced send amount funded delivery through every greedy "
        f"forwarder on 10000 random quote chains ({exact} delivered exactly)",
    )


def test_criterion_6_onion_round_trips_and_tamper_detection(criterion):
    ok = True
    for hops in range(1, 21):
        rng = random.Random(1000 + hops)
        keys = [NodeKey.generate(rng) for _ in range(hops)]
        payloads = flat_payloads(keys)
        packet = onion_create([k.pubkey for k in keys], rng, payloads)
        seen = []
        for key in keys:
            if len(packet.serialize()) != PACKET_SIZE:
                ok = False
            payload, packet = onion_peel(packet, key)
            seen.append(payload)
        if packet is not None or seen != payloads:
            ok = False

    rng = random.Random(0x7A3)
    keys = [NodeKey.generate(rng) for _ in range(5)]
    packet = onion_create([k.pubkey for k in keys], rng, flat_payloads(keys))
    wire = packet.serialize()
    detected = 0
    for _ in range(1000):
        pos = rng.randrange(len(wire))
        flip = rng.randint(1, 255)
        mutated = bytes(wire[:pos]) + bytes([wire[pos] ^ flip]) + bytes(wire[pos + 1 :])
        try:
            bad = OnionPacket.parse(mutated)
            onion_peel(bad, keys[0])
        except OnionError:
            detected += 1
    ok = ok and detected == 1000
    criterion(
        6,
        ok,
        f"onion packets round-trip bit-exact for 1..20 hops at a constant "
        f"{PACKET_SIZE} bytes; {detected}/1000 tampered packets rejected",
    )


def test_criterion_7_thousand_updates_two_transactions(criterion):
    doc = {
        "seed": 77,
        "max_ticks": 560,
        "chains": [
            {
                "chain_id": "main",
                "asset": "coin",
                "hash_fns": ["SHA256"],
                "tx_fee": 0,
                "genesis": {"ann": 50_000, "lp": 50_000},
            }
        ],
        "actors": [{"name": "ann", "kind": "user"}, {"name": "lp", "kind": "lp"}],
        "channels": [
            {
                "chain_id": "main",
                "party_a": "ann",
                "party_b": "lp",
                "fund_a": 20_000,
                "fund_b": 20_000,
            }
        ],
        "payments": [
            {"at_tick": 4 + i, "sender": "ann", "recipient": "lp",
             "amount": 10, "asset": "coin"}
            for i in range(500)
        ],
        "closes": [{"at_tick": 520, "channel": 0}],
    }
    scenario, errors = validate_scenario(doc)
    assert errors == []
    report = run_scenario(scenario)
    settled = sum(1 for p in report["payments"] if p["status"] == "settled")
    chan = report["channels"][0]
    ok = (
        settled == 500
        and chan["updates"] == 1000
        and chan["phase"] == "settled"
        and report["chains"]["main"]["confirmed_txs"] == 2
        and report["violations"] == []
        and report["actors"]["ann"]["final"] == {"coin": 45_000}
        and report["actors"]["lp"]["final"] == {"coin": 55_000}
    )
    criterion(
        7,
        ok,
        f"one channel absorbed {chan['updates']} state updates "
        f"({settled} payments) with only "
        f"{report['chains']['main']['confirmed_txs']} on-chain transactions",
    )


def test_criterion_8_reports_are_reproducible(criterion):
    demo_names = ("single-hop", "cross-chain-2lp", "refund-cascade", "breach-punish")
    ok = True
    for name in demo_names:
        raw = (resources.files("comit.simnet") / "scenarios" / f"{name}.json").read_bytes()
        outs = []
        for _ in range(2):
            scenario, errors = validate_scenario(raw)
            assert errors == []
            outs.append(report_json(run_scenario(scenario)))
        if outs[0] != outs[1]:
            ok = False

    # separate interpreter processes with adversarial hash seeds
    runs = []
    for hash_seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-m", "comit.simnet.cli", "demo",
             "cross-chain-2lp", "--format", "json"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        runs.append(proc.stdout)
    ok = ok and runs[0] == runs[1] and json.loads(runs[0])["payments"][0]["status"] == "settled"
    criterion(
        8,
        ok,
        "every bundled demo produced byte-identical reports across repeat "
        "runs, including separate processes with different hash seeds",
    )
