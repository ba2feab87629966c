"""Multi-fault mesh corpus: seeded meshes with overlapping fault windows.

Each world is an LP ring with +1/+2 chords across two chains, users and
businesses hanging off random LPs, and several faults at once, one LP with
two overlapping windows of the same kind. The run must end with every
payment terminal and no violation, and the reports must not change: their
concatenated canonical JSON is pinned by sha256.
"""

import hashlib
import random

from comit.simnet import run_scenario, validate_scenario
from comit.simnet.report import report_json

USERS, LPS, BUSINESSES, PAYMENTS = 10, 4, 4, 20
MESHES = 12
CORPUS_SEED = 1
CAPACITY = 20_000
START_TICK = 3 * LPS
WINDOW_FAULTS = ("crash", "stall-secret", "refuse-forward", "drop-gossip")
FAULT_MENU = WINDOW_FAULTS + ("broadcast-revoked",)
# sha256 of the MESHES reports' canonical JSON, concatenated in order
DIGEST = "13b0b918033462aa74837612f5e222db591252b5b0045f148d4facd96cc3b611"


def _window(rng: random.Random, kind: str, actor: str, at_tick: int) -> dict:
    fault = {"kind": kind, "actor": actor, "at_tick": at_tick}
    if kind == "crash":
        fault["duration"] = rng.randint(2, 6)
    elif rng.random() < 0.8:
        fault["until_tick"] = at_tick + rng.randint(2, 20)
    return fault


def mesh_doc(rng: random.Random) -> dict:
    lps = [f"lp{i}" for i in range(LPS)]
    users = [f"u{i}" for i in range(USERS)]
    businesses = [f"b{i}" for i in range(BUSINESSES)]
    chains = [
        {"chain_id": f"c{c}", "asset": f"tok{c}", "hash_fns": ["SHA256"],
         "tx_fee": rng.randint(0, 3), "block_interval": rng.randint(1, 3), "genesis": {}}
        for c in range(2)
    ]
    ring = sorted({tuple(sorted((lps[i], lps[(i + step) % LPS])))
                   for step in (1, 2) for i in range(LPS)})
    links = ring + [(n, rng.choice(lps)) for n in users + businesses]
    channels = []
    receives = {}  # business -> the asset of its one channel
    for a, b in links:
        c = rng.randrange(2)
        if a in businesses:
            receives[a] = f"tok{c}"
        channels.append({"chain_id": f"c{c}", "party_a": a, "party_b": b,
                         "fund_a": CAPACITY, "fund_b": CAPACITY,
                         "csv_delay": rng.choice([4, 6])})
        genesis = chains[c]["genesis"]
        for p in (a, b):
            # funding plus room for every fee the actor may authorize
            genesis[p] = genesis.get(p, 0) + CAPACITY + 200
    quotes = [
        {"node": n, "asset_in": f"tok{i}", "asset_out": f"tok{o}",
         "rate_num": 1, "rate_den": 1, "base_fee": rng.randint(0, 5), "fee_ppm": 1000}
        for n in lps for i in range(2) for o in range(2)
    ]
    payments = []
    for k in range(PAYMENTS):
        recipient = rng.choice(businesses)
        payments.append({
            "at_tick": START_TICK + k // 4, "sender": rng.choice(users),
            "recipient": recipient, "amount": rng.randint(100, 2000),
            "asset": receives[recipient],
        })

    # one LP gets two overlapping windows of one kind, then 1-4 mixed faults
    lp = rng.choice(lps)
    kind = rng.choice(WINDOW_FAULTS)
    first = rng.randint(START_TICK - 2, START_TICK + 4)
    # every window lasts at least 2 ticks, so the second starts inside the first
    faults = [_window(rng, kind, lp, first), _window(rng, kind, lp, first + 1)]
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(FAULT_MENU)
        actor = rng.choice(users + lps + businesses)
        if kind == "broadcast-revoked":
            faults.append({"kind": kind, "actor": actor,
                           "at_tick": START_TICK + rng.randint(4, 12)})
        else:
            faults.append(_window(rng, kind, actor, rng.randint(0, START_TICK + 8)))

    return {
        "seed": rng.getrandbits(48),
        "max_ticks": 200,
        "chains": chains,
        "actors": ([{"name": n, "kind": "user"} for n in users]
                   + [{"name": n, "kind": "lp"} for n in lps]
                   + [{"name": n, "kind": "business"} for n in businesses]),
        "channels": channels,
        "quotes": quotes,
        "payments": payments,
        "faults": faults,
    }


def test_multi_fault_meshes_terminate_without_violations():
    rng = random.Random(CORPUS_SEED)
    texts = []
    for m in range(MESHES):
        scenario, errors = validate_scenario(mesh_doc(rng))
        assert errors == [], (m, errors)
        report = run_scenario(scenario)
        assert report["violations"] == [], (m, report["violations"])
        assert all(p["status"] in ("settled", "refunded") for p in report["payments"]), m
        texts.append(report_json(report))
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == DIGEST
