"""Scenario generators for the benchmark's four workloads.

Every generator is a pure function of its seed and size, and returns a list
of scenario documents (plain dicts, as `validate_scenario` accepts them).
The sizes in SIZES are the benchmark's; `selftest.py` and `sweep.py` pass
others.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 0xACCE97

# Per-workload generator keyword arguments used by `run.py`.
SIZES = {
    "corpus": {"count": 500},
    "star": {"users": 200},
    "mesh": {"users": 40, "lps": 8, "businesses": 8, "payments": 80},
    "churn": {"payments": 1000},
}

FAULT_MENU = ("refuse-forward", "stall-secret", "crash", "drop-gossip", "broadcast-revoked")
FN_POOL = (["SHA256"], ["SHA256", "SHA3_256"], ["SHA256", "BLAKE2B_256"])

# The fault-free worlds: one chain, one asset, every LP quoting it 1:1.
CAPACITY = 100_000
LP_QUOTE = {"asset_in": "coin", "asset_out": "coin", "rate_num": 1, "rate_den": 1,
            "base_fee": 1, "fee_ppm": 1000}
PAYMENTS_PER_TICK = 4


def random_scenario(rng: random.Random) -> dict:
    """A line-topology world: user -> LPs -> business, one fault.

    This is the acceptance corpus generator of criteria 1 and 2, kept as
    the benchmark's own copy so the benchmark does not import the tests.
    With seed DEFAULT_SEED, `corpus()` yields the acceptance corpus.
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


def corpus(seed: int, count: int) -> list[dict]:
    rng = random.Random(seed)
    return [random_scenario(rng) for _ in range(count)]


def _fault_free_world(seed: int, actors: list[tuple[str, str]], links: list[tuple[str, str]],
                      payments: list[tuple[str, str, int]], start_tick: int) -> dict:
    """One chain, 100k/100k channels, payments PAYMENTS_PER_TICK per tick
    from `start_tick`, once gossip has had time to reach every actor."""
    genesis: dict[str, int] = {}
    for a, b in links:
        for p in (a, b):
            genesis[p] = genesis.get(p, 0) + CAPACITY
    last_tick = start_tick + len(payments) // PAYMENTS_PER_TICK
    return {
        "seed": seed,
        "max_ticks": last_tick + 100,
        "chains": [{"chain_id": "main", "asset": "coin", "hash_fns": ["SHA256"],
                    "genesis": genesis}],
        "actors": [{"name": n, "kind": k} for n, k in actors],
        "channels": [{"chain_id": "main", "party_a": a, "party_b": b,
                      "fund_a": CAPACITY, "fund_b": CAPACITY} for a, b in links],
        "quotes": [dict(LP_QUOTE, node=n) for n, k in actors if k == "lp"],
        "payments": [
            {"at_tick": start_tick + i // PAYMENTS_PER_TICK, "sender": s,
             "recipient": r, "amount": amount, "asset": "coin"}
            for i, (s, r, amount) in enumerate(payments)
        ],
    }


def star(seed: int, users: int) -> list[dict]:
    """`users` users and four businesses, each with one channel to a
    single LP; one payment per user to a business."""
    rng = random.Random(seed)
    us = [f"u{i:04d}" for i in range(users)]
    bz = [f"b{i}" for i in range(4)]
    actors = [(u, "user") for u in us] + [("hub", "lp")] + [(b, "business") for b in bz]
    links = [(n, "hub") for n in us + bz]
    # amounts stay small enough for 400 users to fit the business channels
    payments = [(u, bz[i % 4], rng.randint(100, 1000)) for i, u in enumerate(us)]
    return [_fault_free_world(rng.getrandbits(48), actors, links, payments, start_tick=6)]


def mesh(seed: int, users: int, lps: int, businesses: int, payments: int) -> list[dict]:
    """LPs in a ring with +1 and +2 chords; every user and business hangs
    off one random LP; payments go from random users to random businesses."""
    rng = random.Random(seed)
    ls = [f"lp{i:02d}" for i in range(lps)]
    us = [f"u{i:03d}" for i in range(users)]
    bz = [f"b{i:03d}" for i in range(businesses)]
    actors = [(u, "user") for u in us] + [(n, "lp") for n in ls] + [(b, "business") for b in bz]
    ring = {tuple(sorted((ls[i], ls[(i + step) % lps]))) for step in (1, 2) for i in range(lps)}
    links = sorted(ring) + [(n, rng.choice(ls)) for n in us + bz]
    pays = [(rng.choice(us), rng.choice(bz), rng.randint(100, 2000)) for _ in range(payments)]
    return [_fault_free_world(rng.getrandbits(48), actors, links, pays,
                              start_tick=3 * lps)]


def churn(seed: int, payments: int) -> list[dict]:
    """Acceptance criterion 7 scaled up: one channel, `payments` sequential
    10-coin payments one per tick, then a cooperative close."""
    rng = random.Random(seed)
    close_tick = 4 + payments + 16
    return [{
        "seed": rng.getrandbits(48),
        "max_ticks": close_tick + 40,
        "chains": [{"chain_id": "main", "asset": "coin", "hash_fns": ["SHA256"],
                    "genesis": {"ann": 50_000, "lp": 50_000}}],
        "actors": [{"name": "ann", "kind": "user"}, {"name": "lp", "kind": "lp"}],
        "channels": [{"chain_id": "main", "party_a": "ann", "party_b": "lp",
                      "fund_a": 20_000, "fund_b": 20_000}],
        "payments": [{"at_tick": 4 + i, "sender": "ann", "recipient": "lp",
                      "amount": 10, "asset": "coin"} for i in range(payments)],
        "closes": [{"at_tick": close_tick, "channel": 0}],
    }]


GENERATORS = {"corpus": corpus, "star": star, "mesh": mesh, "churn": churn}


def generate(workload: str, seed: int, **size) -> list[dict]:
    return GENERATORS[workload](seed, **(size or SIZES[workload]))
