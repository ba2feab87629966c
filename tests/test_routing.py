"""Route finding over the channel graph.

Two oracles check find_route. An independent brute-force enumerator (exact
Fraction arithmetic, no code shared with the implementation) re-derives
the best route's key, amounts and fees. reference_find_route, the
exhaustive depth-first search find_route replaced, must return the very
same Route on random meshes with and without a price vector.
"""

import dataclasses
import math
import random
from fractions import Fraction
from typing import Optional

import pytest

from comit.chainlab import HashFnId
from comit.crp import (
    AmountOverflow,
    ChannelEndpoint,
    ChannelGraph,
    Edge,
    HopSpec,
    NodeKey,
    NoRouteFound,
    RateQuote,
    Route,
    backward_apply,
    compute_hop_amounts,
    find_route,
    make_advert,
)
import comit.crp.graph as graph_mod
from comit.crp.onion import (
    BLOB_SIZE,
    VERSION,
    InvalidPacket,
    OnionPacket,
    decode_payload,
    onion_create,
    onion_peel,
)
from comit.crp.graph import MAX_ROUTE_HOPS, price_vector
from comit.swap import ladder_delta, make_invoice, prepare_attempt

MAX = 2**64 - 1
S256 = HashFnId.SHA256
S3 = HashFnId.SHA3_256
B2 = HashFnId.BLAKE2B_256


def nid(name):
    return name.encode().ljust(32, b"\x00")


def simple_graph():
    """S -> L1 -> L2 -> R, one chain, one asset, flat fees."""
    fns = {"main": frozenset({S256})}
    edges = [
        Edge(nid("S"), nid("L1"), "main", "coin", 10**6),
        Edge(nid("L1"), nid("L2"), "main", "coin", 10**6),
        Edge(nid("L2"), nid("R"), "main", "coin", 10**6),
    ]
    return ChannelGraph(fns, edges, [
        (nid("L1"), RateQuote("coin", "coin", 1, 1, base_fee=5)),
        (nid("L2"), RateQuote("coin", "coin", 1, 1, base_fee=5)),
    ])


def test_flat_fee_chain_totals():
    route = find_route(simple_graph(), nid("S"), nid("R"), 1000, "coin")
    assert route.nodes() == (nid("L1"), nid("L2"), nid("R"))
    assert [h.amount for h in route.hops] == [1010, 1005, 1000]
    assert [h.fee for h in route.hops] == [5, 5, 0]
    assert route.cost == 1010


def test_expiry_ladder_decreases_toward_recipient(rng):
    route = find_route(simple_graph(), nid("S"), nid("R"), 1000, "coin")
    count = len(route.hops)
    assert [ladder_delta(count - 1 - i) for i in range(count)] == [18, 12, 6]
    invoice, _ = make_invoice(rng, nid("R"), 1000, "coin", S256)
    attempt = prepare_attempt(invoice, route, {"main": 0}, rng)
    assert attempt.expiry == 18 + 1
    # each forwarder learns the step of the HTLC it offers; the payee its own
    assert [p.expiry_delta for p in attempt.payloads] == [12, 6, 6]


def test_compute_hop_amounts_agrees_with_route():
    route = find_route(simple_graph(), nid("S"), nid("R"), 1000, "coin")
    pairs = compute_hop_amounts(route, 1000)
    assert pairs == [(h.amount, h.fee) for h in route.hops]


def test_cross_chain_conversion_example():
    fns = {"x": frozenset({S256, S3}), "y": frozenset({S256})}
    g = ChannelGraph(
        fns,
        [
            Edge(nid("S"), nid("LP"), "x", "xcoin", 10**6),
            Edge(nid("LP"), nid("R"), "y", "ycoin", 10**6),
        ],
        [(nid("LP"), RateQuote("xcoin", "ycoin", 10, 1, fee_ppm=10_000))],
    )
    route = find_route(g, nid("S"), nid("R"), 10_000, "ycoin")
    assert [h.amount for h in route.hops] == [1010, 10_000]
    assert [h.fee for h in route.hops] == [10, 0]
    assert [h.asset for h in route.hops] == ["xcoin", "ycoin"]


def test_recipient_self_quote_prices_final_hop():
    fns = {"main": frozenset({S256})}
    edges = [Edge(nid("S"), nid("R"), "main", "coin", 10**6)]
    g = ChannelGraph(fns, edges)
    assert find_route(g, nid("S"), nid("R"), 1000, "coin").cost == 1000
    g = ChannelGraph(fns, edges, [(nid("R"), RateQuote("coin", "coin", 1, 1, base_fee=7))])
    assert find_route(g, nid("S"), nid("R"), 1000, "coin").cost == 1007


def two_corridor_graph(cheap_fns, dear_fns, cheap_cap=10**6):
    fns = {"c1": frozenset(cheap_fns), "c2": frozenset(dear_fns)}
    return ChannelGraph(
        fns,
        [
            Edge(nid("S"), nid("LA"), "c1", "a1", cheap_cap),
            Edge(nid("LA"), nid("R"), "c1", "a1", cheap_cap),
            Edge(nid("S"), nid("LB"), "c2", "a2", 10**6),
            Edge(nid("LB"), nid("R"), "c2", "a2", 10**6),
        ],
        [
            (nid("LA"), RateQuote("a1", "a1", 1, 1, base_fee=1)),
            (nid("LB"), RateQuote("a2", "a2", 1, 1, base_fee=50)),
        ],
    )


def test_required_hash_fn_forces_detour():
    g = two_corridor_graph({S3}, {S256})
    cheap = find_route(g, nid("S"), nid("R"), 1000, "a1")
    assert cheap.nodes()[0] == nid("LA")
    dear = find_route(g, nid("S"), nid("R"), 1000, "a2", required_hash_fn=S256)
    assert dear.nodes()[0] == nid("LB")
    with pytest.raises(NoRouteFound):
        find_route(g, nid("S"), nid("R"), 1000, "a1", required_hash_fn=B2)


def test_empty_hash_function_intersection_blocks_path():
    fns = {"c1": frozenset({S256}), "c2": frozenset({S3})}
    g = ChannelGraph(
        fns,
        [
            Edge(nid("S"), nid("L"), "c1", "a1", 10**6),
            Edge(nid("L"), nid("R"), "c2", "a2", 10**6),
        ],
        [(nid("L"), RateQuote("a1", "a2", 1, 1))],
    )
    with pytest.raises(NoRouteFound):
        find_route(g, nid("S"), nid("R"), 1000, "a2")


def test_capacity_pruning_picks_costlier_corridor():
    g = two_corridor_graph({S256}, {S256}, cheap_cap=500)
    route = find_route(g, nid("S"), nid("R"), 1000, "a2")
    assert route.nodes()[0] == nid("LB")
    assert route.cost == 1050


def test_overflowing_conversion_is_pruned():
    fns = {"c1": frozenset({S256}), "c2": frozenset({S256})}
    g = ChannelGraph(
        fns,
        [
            Edge(nid("S"), nid("L"), "c1", "tiny", MAX),
            Edge(nid("L"), nid("R"), "c2", "big", MAX),
        ],
        # one unit of `tiny` buys 1e-7 units of `big`: amount_in leaves u64 range
        [(nid("L"), RateQuote("tiny", "big", 1, 10**7, base_fee=0))],
    )
    with pytest.raises(NoRouteFound):
        find_route(g, nid("S"), nid("R"), 10**13, "big")


def test_tie_breaks_fewest_hops_then_node_ids():
    fns = {"main": frozenset({S256})}
    g = ChannelGraph(
        fns,
        [
            Edge(nid("S"), nid("R"), "main", "coin", 10**6),
            Edge(nid("S"), nid("L0"), "main", "coin", 10**6),
            Edge(nid("L0"), nid("R"), "main", "coin", 10**6),
        ],
        [(nid("L0"), RateQuote("coin", "coin", 1, 1))],  # free hop
    )
    # same cost either way; the direct single hop wins
    assert find_route(g, nid("S"), nid("R"), 1000, "coin").nodes() == (nid("R"),)

    g2 = ChannelGraph(
        fns,
        [
            Edge(nid("S"), nid("LA"), "main", "coin", 10**6),
            Edge(nid("LA"), nid("R"), "main", "coin", 10**6),
            Edge(nid("S"), nid("LB"), "main", "coin", 10**6),
            Edge(nid("LB"), nid("R"), "main", "coin", 10**6),
        ],
        [(nid(lp), RateQuote("coin", "coin", 1, 1, base_fee=2)) for lp in ("LA", "LB")],
    )
    route = find_route(g2, nid("S"), nid("R"), 1000, "coin")
    assert route.nodes() == (nid("LA"), nid("R"))


def test_longer_path_can_win_on_conversion():
    fns = {"ach": frozenset({S256}), "bch": frozenset({S256}), "zch": frozenset({S256})}
    g = ChannelGraph(
        fns,
        [
            Edge(nid("S"), nid("L1"), "ach", "acoin", 10**9),
            Edge(nid("L1"), nid("R"), "zch", "zcoin", 10**9),
            Edge(nid("S"), nid("L2"), "ach", "acoin", 10**9),
            Edge(nid("L2"), nid("L3"), "bch", "bcoin", 10**9),
            Edge(nid("L3"), nid("R"), "zch", "zcoin", 10**9),
        ],
        [
            (nid("L1"), RateQuote("acoin", "zcoin", 1, 1, base_fee=100)),
            (nid("L2"), RateQuote("acoin", "bcoin", 1, 1, base_fee=1)),
            (nid("L3"), RateQuote("bcoin", "zcoin", 10, 1)),
        ],
    )
    route = find_route(g, nid("S"), nid("R"), 1000, "zcoin")
    assert route.nodes() == (nid("L2"), nid("L3"), nid("R"))
    assert route.cost == 101  # direct corridor would cost 1100 acoin


def test_hop_budget_limits_search():
    fns = {"main": frozenset({S256})}
    chain = ["S", "M1", "M2", "M3", "R"]
    edges = [
        Edge(nid(a), nid(b), "main", "coin", 10**6)
        for a, b in zip(chain, chain[1:])
    ]
    g = ChannelGraph(fns, edges,
                     [(nid(mid), RateQuote("coin", "coin", 1, 1)) for mid in chain[1:-1]])
    assert len(find_route(g, nid("S"), nid("R"), 100, "coin").hops) == 4
    with pytest.raises(NoRouteFound):
        find_route(g, nid("S"), nid("R"), 100, "coin", max_hops=3)
    with pytest.raises(ValueError):
        find_route(g, nid("S"), nid("R"), 100, "coin", max_hops=21)


def test_argument_validation():
    g = simple_graph()
    with pytest.raises(ValueError):
        find_route(g, nid("S"), nid("S"), 100, "coin")
    with pytest.raises(ValueError):
        find_route(g, nid("S"), nid("R"), 0, "coin")
    with pytest.raises(NoRouteFound):
        find_route(g, nid("S"), nid("GHOST"), 100, "coin")


PEER = NodeKey(bytes(32)).pubkey
ONE_HOP = Route(nid("S"), (HopSpec(nid("R"), "main", "coin", 1, 0,
                                   RateQuote("coin", "coin", 1, 1)),))


@pytest.mark.parametrize("refused, error, match", [
    (lambda: ChannelEndpoint("main", bytes(31), 1), ValueError, "peer pubkey"),
    (lambda: ChannelEndpoint("main", PEER, -1), ValueError, "capacity"),
    (lambda: make_advert(NodeKey(bytes(32)), [ChannelEndpoint("c" * 256, PEER, 1)], []),
     ValueError, "identifier too long"),
    (lambda: Route(nid("S"), ()), ValueError, "at least one hop"),
    (lambda: compute_hop_amounts(ONE_HOP, 0), ValueError, "amount_out"),
    (lambda: NodeKey(bytes(31)), ValueError, "seed"),
    (lambda: decode_payload(bytes(1)), InvalidPacket, "payload size"),
    (lambda: onion_create([], random.Random(0), []), ValueError, "at least one hop"),
    (lambda: onion_create([PEER], random.Random(0), []), ValueError, "one payload per hop"),
    (lambda: onion_peel(OnionPacket(VERSION, bytes(31), bytes(BLOB_SIZE), bytes(32)),
                        NodeKey(bytes(32))), InvalidPacket, "malformed packet"),
], ids=["endpoint-peer-length", "endpoint-negative-capacity", "advert-id-too-long",
        "route-no-hops", "hop-amounts-of-0", "node-seed-length", "payload-size",
        "onion-no-hops", "onion-payload-count", "peel-malformed-packet"])
def test_crp_refuses_malformed_values(refused, error, match):
    """Each value check of the routing layer refuses with its own exception."""
    with pytest.raises(error, match=match) as e:
        refused()
    assert e.type is error


# --- randomized comparison against a brute-force enumerator -----------------


def oracle_enumerate(edges, quotes, chain_fns, sender, recipient,
                     amount_out, asset_out, required, max_hops):
    """Every admissible simple path, priced with exact Fraction math.

    Returns {(cost, hop_count, dst_tuple): [(amounts, fees), ...]}.
    """
    adj = {}
    for e in edges:
        adj.setdefault(e.src, []).append(e)

    def price(path):
        inter = None
        for e in path:
            fns = chain_fns.get(e.chain_id, frozenset())
            inter = fns if inter is None else inter & fns
        if not inter or (required is not None and required not in inter):
            return None
        self_q = quotes.get(recipient, {}).get((asset_out, asset_out), (1, 1, 0, 0))
        amounts, fees, need = [], [], amount_out
        for i in range(len(path) - 1, -1, -1):
            if i == len(path) - 1:
                q = self_q
            else:
                q = quotes.get(path[i].dst, {}).get((path[i].asset, path[i + 1].asset))
                if q is None:
                    return None
            num, den, base, ppm = q
            pre = math.ceil(Fraction(need * den, num))
            fee = base + math.ceil(Fraction(pre * ppm, 1_000_000))
            amt = pre + fee
            if amt > MAX or amt > path[i].capacity:
                return None
            amounts.append(amt)
            fees.append(fee)
            need = amt
        amounts.reverse()
        fees.reverse()
        return tuple(amounts), tuple(fees)

    found = {}

    def walk(node, path, visited):
        for e in adj.get(node, []):
            if e.dst == recipient:
                if e.asset == asset_out:
                    priced = price(path + [e])
                    if priced is not None:
                        full = path + [e]
                        key = (priced[0][0], len(full), tuple(x.dst for x in full))
                        found.setdefault(key, []).append(priced)
                continue
            if e.dst in visited:
                continue
            if len(path) + 1 < max_hops:
                walk(e.dst, path + [e], visited | {e.dst})

    walk(sender, [], {sender})
    return found


def random_world(rng):
    chain_count = rng.randint(2, 3)
    chain_fns = {}
    chain_asset = {}
    for i in range(chain_count):
        cid = f"ch{i}"
        chain_fns[cid] = frozenset(rng.choice([[S256], [S3], [S256, S3], [S256, B2]]))
        chain_asset[cid] = f"as{i}"
    nodes = [nid(x) for x in ["S", "A", "B", "C", "R"]]
    edges = []
    for u in nodes:
        for v in nodes:
            if u == v:
                continue
            picks = [c for c in chain_fns if rng.random() < 0.30]
            for cid in picks:
                cap = rng.choice([120, 900, 5_000, 40_000])
                edges.append(Edge(u, v, cid, chain_asset[cid], cap))
    quotes = {}
    assets = sorted(set(chain_asset.values()))
    for node in nodes[1:]:
        table = {}
        for a_in in assets:
            for a_out in assets:
                if rng.random() < 0.55:
                    table[(a_in, a_out)] = (
                        rng.randint(1, 4),
                        rng.randint(1, 4),
                        rng.randint(0, 12),
                        rng.choice([0, 1_000, 25_000]),
                    )
        quotes[node] = table
    return chain_fns, chain_asset, edges, quotes, assets


def test_route_search_matches_enumeration_oracle():
    rng = random.Random(0x60A7)
    routes_found = 0
    for trial in range(40):
        chain_fns, chain_asset, edges, quotes, assets = random_world(rng)
        g = ChannelGraph(chain_fns, edges, [
            (node, RateQuote(a_in, a_out, *terms))
            for node, table in quotes.items() for (a_in, a_out), terms in table.items()
        ])
        amount_out = rng.randint(40, 900)
        asset_out = rng.choice(assets)
        required = rng.choice([None, None, S256])

        expected = oracle_enumerate(
            edges, quotes, chain_fns, nid("S"), nid("R"),
            amount_out, asset_out, required, 20,
        )
        try:
            route = find_route(
                g, nid("S"), nid("R"), amount_out, asset_out,
                required_hash_fn=required,
            )
        except NoRouteFound:
            assert expected == {}, f"trial {trial}: oracle found {min(expected)}"
            continue
        routes_found += 1
        key = (route.cost, len(route.hops), route.nodes())
        assert key == min(expected), f"trial {trial}"
        got = (
            tuple(h.amount for h in route.hops),
            tuple(h.fee for h in route.hops),
        )
        assert got in expected[key], f"trial {trial}"
    assert routes_found >= 10


# --- graph construction from gossip ------------------------------------------


def test_graph_from_adverts(rng):
    lp1, lp2, user = (NodeKey.generate(rng) for _ in range(3))
    chain_fns = {"main": frozenset({S256})}
    chain_assets = {"main": "coin"}
    adverts = [
        make_advert(
            lp1,
            [
                ChannelEndpoint("main", lp2.pubkey, 800),
                ChannelEndpoint("main", user.pubkey, 300),
                ChannelEndpoint("ghostchain", user.pubkey, 999),
            ],
            [RateQuote("coin", "coin", 1, 1, base_fee=2)],
        ),
        make_advert(lp2, [ChannelEndpoint("main", lp1.pubkey, 600)], []),
    ]
    g = ChannelGraph.from_adverts(adverts, chain_fns, chain_assets)

    def edge(src, dst):
        return g._edges.get((src, dst, "main"))

    # both advertisers: each direction carries its own tail's capacity hint
    assert edge(lp1.pubkey, lp2.pubkey).capacity == 800
    assert edge(lp2.pubkey, lp1.pubkey).capacity == 600
    # silent peer: advertiser's hint is reused for the reverse direction
    assert edge(lp1.pubkey, user.pubkey).capacity == 300
    assert edge(user.pubkey, lp1.pubkey).capacity == 300
    # endpoints on chains without a known asset are ignored
    assert (lp1.pubkey, user.pubkey, "ghostchain") not in g._edges
    assert g.node_quote(lp1.pubkey, "coin", "coin").base_fee == 2

    route = find_route(g, user.pubkey, lp2.pubkey, 100, "coin")
    assert route.nodes() == (lp1.pubkey, lp2.pubkey)
    assert route.cost == 102


# --- the exhaustive depth-first search, kept as the reference ----------------


def reference_find_route(
    graph: ChannelGraph,
    sender: bytes,
    recipient: bytes,
    amount_out: int,
    asset_out: str,
    *,
    required_hash_fn: Optional[HashFnId] = None,
    max_hops: int = MAX_ROUTE_HOPS,
) -> Route:
    if amount_out < 1:
        raise ValueError("amount_out must be >= 1")
    if sender == recipient:
        raise ValueError("sender and recipient must differ")
    if not 1 <= max_hops <= MAX_ROUTE_HOPS:
        raise ValueError(f"max_hops must be in 1..{MAX_ROUTE_HOPS}")

    self_quote = graph.node_quote(recipient, asset_out, asset_out) or RateQuote.identity(
        asset_out
    )
    best: Optional[tuple] = None

    def consider(path, amounts, fees, quotes_used):
        nonlocal best
        key = (amounts[0], len(path), tuple(e.dst for e in path))
        if best is None or key < best[0]:
            best = (key, tuple(path), tuple(amounts), tuple(fees), tuple(quotes_used))

    def extend(head, path, amounts, fees, quotes_used, fn_set, visited):
        if head == sender:
            consider(path, amounts, fees, quotes_used)
            return
        if len(path) >= max_hops:
            return
        first_asset = path[0].asset
        for edge in graph.edges_into(head):
            if edge.src in visited:
                continue
            quote = graph.node_quote(head, edge.asset, first_asset)
            if quote is None:
                continue
            fns = fn_set & graph.chain_fns.get(edge.chain_id, frozenset())
            if not fns or (required_hash_fn is not None and required_hash_fn not in fns):
                continue
            try:
                amount, fee = backward_apply(quote, amounts[0])
            except AmountOverflow:
                continue
            if amount > edge.capacity:
                continue
            extend(
                edge.src,
                [edge] + path,
                [amount] + amounts,
                [fee] + fees,
                [quote] + quotes_used,
                fns,
                visited | {edge.src},
            )

    for edge in graph.edges_into(recipient):
        if edge.asset != asset_out:
            continue
        fns = graph.chain_fns.get(edge.chain_id, frozenset())
        if not fns or (required_hash_fn is not None and required_hash_fn not in fns):
            continue
        try:
            amount, fee = backward_apply(self_quote, amount_out)
        except AmountOverflow:
            continue
        if amount > edge.capacity:
            continue
        extend(
            edge.src,
            [edge],
            [amount],
            [fee],
            [self_quote],
            fns,
            {recipient, edge.src},
        )

    if best is None:
        raise NoRouteFound(
            f"no admissible path delivering {amount_out} {asset_out}"
        )
    _, path, amounts, fees, quotes_used = best
    hops = tuple(
        HopSpec(
            node=edge.dst,
            chain_id=edge.chain_id,
            asset=edge.asset,
            amount=amounts[i],
            fee=fees[i],
            quote=quotes_used[i],
        )
        for i, edge in enumerate(path)
    )
    return Route(sender=sender, hops=hops)


def random_mesh(rng, priced):
    """Sender S and recipient R on a ring of 3..12 LPs with chords.

    Links run channels on one or more of two or three chains, and two chains
    may share an asset. With `priced`, every quote rate is at most
    p_in/p_out for a per-asset price p, often exactly, so price_vector finds
    prices; without it rates are free and conversion cycles usually gain.

    Half the meshes are flat, like the benchmark's: every LP quotes one
    table with a fee of 3 for converting and none for forwarding, S pays in a0
    on c0 and R is paid in a1 on c1, so that routes converting at different
    LPs tie on cost, and the search meets the tied routes in another order
    than the chain tie-break sorts them.
    """
    flat = rng.random() < 0.5
    chains = [f"c{i}" for i in range(rng.randint(2, 3))]
    chain_fns = {
        c: frozenset(rng.choice([[S256], [S256, S3], [S256, B2], [S3]])) for c in chains
    }
    chain_assets = {c: rng.choice(["a0", "a1", "a2"]) for c in chains}
    if flat:
        chain_assets.update(c0="a0", c1="a1")
    assets = sorted(set(chain_assets.values()))
    price = {a: 1 if flat else rng.randint(1, 4) for a in assets}
    lps = [nid(f"L{i:02d}") for i in range(rng.randint(3, 12))]
    links = {(lps[i], lps[(i + 1) % len(lps)]) for i in range(len(lps))}
    links |= {tuple(rng.sample(lps, 2)) for _ in range(rng.randint(0, len(lps)))}
    links |= {(nid("S"), lp) for lp in rng.sample(lps, rng.randint(1, 3))}
    links |= {(lp, nid("R")) for lp in rng.sample(lps, rng.randint(1, 3))}
    if rng.random() < 0.2:
        links.add((nid("S"), nid("R")))
    edges = []
    for u, v in sorted(links):
        if flat and nid("S") in (u, v):
            on = ["c0"]
        elif flat and nid("R") in (u, v):
            on = ["c1"]
        else:
            on = rng.sample(chains, rng.randint(1, 2))
        for c in on:
            for a, b in ((u, v), (v, u)):
                cap = rng.choice([2_000, 50_000, 10**6, 10**6])
                edges.append(Edge(a, b, c, chain_assets[c], cap))

    def quote(a_in, a_out):
        if priced:
            k = rng.randint(1, 3)
            num, den = price[a_in] * k, price[a_out] * (k + rng.choice([0, 0, 1 - flat]))
        else:
            num, den = rng.randint(1, 4), rng.randint(1, 4)
        if flat:
            return RateQuote(a_in, a_out, num, den, 0 if a_in == a_out else 3)
        return RateQuote(a_in, a_out, num, den, rng.choice([0, 1, 2, 5]),
                         rng.choice([0, 1_000, 20_000]))

    def table():
        return [quote(a_in, a_out) for a_in in assets for a_out in assets
                if rng.random() < 0.9]

    shared = table()
    quotes = [(lp, q) for lp in lps for q in (shared if flat else table())]
    if rng.random() < 0.3:
        a = rng.choice(assets)
        quotes.append((nid("R"), quote(a, a)))
    g = ChannelGraph(chain_fns, edges, quotes)
    return g, sorted({e.asset for e in g.edges_into(nid("R"))})


def test_route_search_matches_reference_search():
    rng = random.Random(0xB0B0)
    found = {True: 0, False: 0}
    bounded = {True: 0, False: 0}
    for trial in range(300):
        priced = trial % 2 == 0
        g, assets = random_mesh(rng, priced)
        bounded[priced] += price_vector(
            q for table in g.quotes.values() for q in table.values()
        ) is not None
        args = (g, nid("S"), nid("R"), rng.randint(50, 2_000), rng.choice(assets))
        kwargs = dict(
            required_hash_fn=rng.choice([None, None, S256, S3]),
            max_hops=rng.choice([2, 3, 4, 6, MAX_ROUTE_HOPS]),
        )
        try:
            expected = reference_find_route(*args, **kwargs)
        except NoRouteFound:
            with pytest.raises(NoRouteFound):
                find_route(*args, **kwargs)
            continue
        assert find_route(*args, **kwargs) == expected, f"trial {trial}"
        # what `prepare_attempt` checks of a route, so the engine's never fails it
        assert expected.recipient == nid("R")
        assert expected.hops[-1].asset == args[4]
        found[priced] += 1
    # every priced mesh has a price vector, most free ones a gaining cycle
    assert bounded[True] == 150 and bounded[False] < 50
    assert min(found.values()) >= 60


def quoted_prices(g):
    """price_vector of every quote `g` holds."""
    return price_vector(q for t in g.quotes.values() for q in t.values())


def rebuilt(g, edges=(), quotes=()):
    """`g` built again from its edges and quotes, then `edges` and `quotes`:
    each replaces one of g's for the same (src, dst, chain) or (node,
    asset_in, asset_out)."""
    return ChannelGraph(
        g.chain_fns,
        [*(e for n in g._into for e in g.edges_into(n)), *edges],
        [*((n, q) for n, t in g.quotes.items() for q in t.values()), *quotes],
    )


def potentials(g, sender, recipient, own_edges=()):
    """_potentials from the sender's first hops, as find_route takes them."""
    firsts = graph_mod._first_hops(g, sender, recipient, own_edges)
    return graph_mod._potentials(g.forwarders(), sender, firsts)


def test_prices_follow_the_quotes_a_graph_is_built_with():
    """A graph prices its quotes in its forwarders table: each graph built
    with one more quote prices that quote too. The first quote added is
    lp1's free x -> x, which keeps the prices and lowers lp1's delta, the
    least fee * price it adds, to 0 where it was more. The last two quotes
    added, at two LPs, close a gaining cycle, so the graph has no price
    vector any more and the search takes every path the sender reaches;
    every search still returns the reference route."""
    rng = random.Random(0x9A1CE)
    found = lowered = 0
    for trial in range(60):
        g, assets = random_mesh(rng, priced=True)
        quoted = sorted({a for t in g.quotes.values() for pair in t for a in pair})
        x, y = rng.choice(quoted), rng.choice(quoted)
        lp1, lp2 = rng.sample([nid("L00"), nid("L01"), nid("L02")], 2)  # every ring has them
        added = [
            (lp1, RateQuote(x, x, 1, 1)),
            (lp1, RateQuote(x, y, rng.randint(1, 4), rng.randint(1, 4), rng.choice([0, 1, 5]))),
            (lp1, RateQuote(x, y, 2, 1, base_fee=1)),
            (lp2, RateQuote(y, x, 1_000_001, 2_000_000, base_fee=1)),
        ]
        base = g
        for i, (lp, _) in enumerate([(None, None), *added]):
            delta = g.forwarders().fee.get(lp)
            g = rebuilt(base, quotes=added[:i])
            prices, fw = quoted_prices(g), g.forwarders()
            assert {a: Fraction(p, fw.scale) for a, p in fw.price.items()} == (prices or {})
            if i == 1:
                assert prices is not None and fw.fee[lp] == 0
                lowered += delta > 0
            args = (g, nid("S"), nid("R"), rng.randint(50, 2_000), rng.choice(assets))
            try:
                expected = reference_find_route(*args)
            except NoRouteFound:
                with pytest.raises(NoRouteFound):
                    find_route(*args)
                continue
            assert find_route(*args) == expected, f"trial {trial}"
            found += 1
        assert quoted_prices(g) is None and g.forwarders().price == {}
    assert found >= 180 and lowered >= 12, (found, lowered)


def test_own_edge_overlay_matches_reference_on_a_copy():
    """The sender's own edges, passed to find_route over a shared graph,
    route exactly as a copy of it built with them last: they replace some
    advertised edges from S, leave others in place and add channels on
    chains the graph has no S edge on. The shared graph is left as it
    was."""
    rng = random.Random(0x0E1A)
    nodes = [nid(f"L{i:02d}") for i in range(12)] + [nid("R"), nid("S")]
    firsts = {"own": 0, "advertised": 0}
    for trial in range(300):
        g, assets = random_mesh(rng, priced=trial % 2 == 0)
        before = {n: list(g.edges_into(n)) for n in nodes}
        advertised = [e for n in nodes for e in before[n] if e.src == nid("S")]
        chain_asset = {e.chain_id: e.asset for n in nodes for e in before[n]}
        own = []
        for e in advertised:
            if rng.random() < 0.5:  # replace it; otherwise leave it out
                own.append(Edge(e.src, e.dst, e.chain_id, e.asset,
                                rng.choice([500, 2_000, 50_000, 10**6])))
        for dst in rng.sample(nodes[:-1], rng.randint(1, 3)):
            taken = {e.chain_id for e in before[dst] if e.src == nid("S")}
            free = sorted(set(g.chain_fns) - taken)
            if free:  # a parallel chain, or a channel the adverts do not show
                c = rng.choice(free)
                own.append(Edge(nid("S"), dst, c, chain_asset.get(c, "a0"), 10**6))
        rng.shuffle(own)
        copy = rebuilt(g, own)
        args = (nid("S"), nid("R"), rng.randint(50, 2_000), rng.choice(assets))
        kwargs = dict(
            required_hash_fn=rng.choice([None, None, S256, S3]),
            max_hops=rng.choice([2, 3, 4, 6, MAX_ROUTE_HOPS]),
        )
        try:
            expected = reference_find_route(copy, *args, **kwargs)
        except NoRouteFound:
            with pytest.raises(NoRouteFound):
                find_route(g, *args, own, **kwargs)
        else:
            route = find_route(g, *args, own, **kwargs)
            assert route == expected, f"trial {trial}"
            first = route.hops[0]
            mine = any((e.dst, e.chain_id) == (first.node, first.chain_id) for e in own)
            firsts["own" if mine else "advertised"] += 1
        assert {n: g.edges_into(n) for n in nodes} == before, f"trial {trial}"
    assert min(firsts.values()) >= 40, firsts


def test_own_edges_must_start_at_the_sender():
    g = simple_graph()
    with pytest.raises(ValueError):
        find_route(g, nid("S"), nid("R"), 10, "coin",
                   [Edge(nid("L1"), nid("L2"), "main", "coin", 10**6)])


def test_parallel_channel_tie_goes_to_least_chain_ids_from_recipient():
    """S -> L1 -> L2 -> R where L1 -> L2 runs on chains c1 (asset a) and c2
    (asset b). The b channel carries less, so its partial path is searched
    first, but both routes cost the same over the same nodes: the tie goes
    to c1, the least chain id read from the recipient back."""
    fns = {c: frozenset({S256}) for c in ("c0", "c1", "c2", "c3")}
    g = ChannelGraph(
        fns,
        [
            Edge(nid("S"), nid("L1"), "c0", "z", 10**6),
            Edge(nid("L1"), nid("L2"), "c1", "a", 10**6),
            Edge(nid("L1"), nid("L2"), "c2", "b", 10**6),
            Edge(nid("L2"), nid("R"), "c3", "out", 10**6),
        ],
        [
            (nid("L2"), RateQuote("a", "out", 1, 1, base_fee=5)),
            (nid("L2"), RateQuote("b", "out", 1, 1)),
            (nid("L1"), RateQuote("z", "a", 1, 1)),
            (nid("L1"), RateQuote("z", "b", 1, 1, base_fee=5)),
        ],
    )
    route = find_route(g, nid("S"), nid("R"), 1000, "out")
    assert [h.chain_id for h in route.hops] == ["c0", "c1", "c3"]
    assert route.cost == 1005
    assert route == reference_find_route(g, nid("S"), nid("R"), 1000, "out")


def test_edges_into_follows_replacement_and_extra_edges():
    fns = {"x": frozenset({S256}), "y": frozenset({S256})}
    edges = [
        Edge(nid("B"), nid("R"), "y", "coin", 10),
        Edge(nid("A"), nid("R"), "x", "coin", 10),
        Edge(nid("B"), nid("R"), "x", "coin", 10),
    ]
    g = ChannelGraph(fns, edges)
    assert [(e.src, e.chain_id) for e in g.edges_into(nid("R"))] == [
        (nid("A"), "x"), (nid("B"), "x"), (nid("B"), "y"),
    ]
    # a later edge for the same (src, dst, chain) replaces an earlier one
    edges.append(Edge(nid("B"), nid("R"), "x", "coin", 99))
    g = ChannelGraph(fns, edges)
    assert [(e.src, e.chain_id, e.capacity) for e in g.edges_into(nid("R"))] == [
        (nid("A"), "x", 10), (nid("B"), "x", 99), (nid("B"), "y", 10),
    ]
    with pytest.raises(NoRouteFound):
        find_route(g, nid("S"), nid("R"), 5, "coin")
    # a graph built with one more edge routes over it
    edges.append(Edge(nid("S"), nid("R"), "y", "coin", 10))
    g = ChannelGraph(fns, edges)
    assert [e.src for e in g.edges_into(nid("R"))][-1] == nid("S")
    assert find_route(g, nid("S"), nid("R"), 5, "coin").nodes() == (nid("R"),)
    assert g.edges_into(nid("GHOST")) == []
    # the asset index follows too, a replacement that moves an edge's asset
    edges.append(Edge(nid("A"), nid("R"), "x", "gold", 10))
    g = ChannelGraph(fns, edges)
    assert {a: sorted(es, key=lambda e: (e.src, e.chain_id))
            for a, es in g.assets_into(nid("R")).items()} == {
        "coin": [e for e in g.edges_into(nid("R")) if e.asset == "coin"],
        "gold": [Edge(nid("A"), nid("R"), "x", "gold", 10)],
    }
    assert g.assets_into(nid("GHOST")) == {}
    # so do the forwarders' links: with an edge from A, B is reachable
    # through A, and the route through both is found
    quotes = [(nid("A"), RateQuote("coin", "coin", 1, 1)),
              (nid("B"), RateQuote("coin", "coin", 1, 1, base_fee=1))]
    edges.append(Edge(nid("S"), nid("A"), "y", "coin", 100))
    g = ChannelGraph(fns, edges, quotes)
    hops_to, _ = potentials(g, nid("S"), nid("R"))
    assert hops_to == {nid("S"): 0, nid("A"): 1}
    with pytest.raises(NoRouteFound):
        reference_find_route(g, nid("S"), nid("R"), 20, "coin")
    with pytest.raises(NoRouteFound):
        find_route(g, nid("S"), nid("R"), 20, "coin")
    g = ChannelGraph(fns, [*edges, Edge(nid("A"), nid("B"), "x", "coin", 100)], quotes)
    hops_to, _ = potentials(g, nid("S"), nid("R"))
    assert hops_to == {nid("S"): 0, nid("A"): 1, nid("B"): 2}
    route = find_route(g, nid("S"), nid("R"), 20, "coin")
    assert route.nodes() == (nid("A"), nid("B"), nid("R")) and route.cost == 21
    assert route == reference_find_route(g, nid("S"), nid("R"), 20, "coin")


def test_search_prices_no_asset_only_the_paths_own_nodes_carry(monkeypatch):
    """S -x- L1 -y- L2 -z- R, both ways. Into L2 only R's edge carries z,
    and into L1 only L2's carries y: both come from the path being grown,
    so although L2 quotes z -> z and L1 y -> y, the search prices three
    hops, one per hop of the route, and scans no edge into L1."""
    fns = {c: frozenset({S256}) for c in ("cx", "cy", "cz")}
    edges = []
    for u, v, c in (("S", "L1", "cx"), ("L1", "L2", "cy"), ("L2", "R", "cz")):
        edges += [Edge(nid(u), nid(v), c, c[1], 10**6), Edge(nid(v), nid(u), c, c[1], 10**6)]
    g = ChannelGraph(fns, edges, [
        (nid("L1"), RateQuote("x", "y", 1, 1, base_fee=1)),
        (nid("L1"), RateQuote("y", "y", 1, 1)),
        (nid("L2"), RateQuote("y", "z", 1, 1, base_fee=1)),
        (nid("L2"), RateQuote("z", "z", 1, 1)),
    ])
    applies, scanned = [], []
    apply, into = graph_mod.backward_apply, ChannelGraph.edges_into

    def counted_apply(*args):
        applies.append(args)
        return apply(*args)

    def counted_into(self, node):
        scanned.append(node)
        return into(self, node)

    monkeypatch.setattr(graph_mod, "backward_apply", counted_apply)
    monkeypatch.setattr(ChannelGraph, "edges_into", counted_into)
    route = find_route(g, nid("S"), nid("R"), 100, "z")
    assert route.nodes() == (nid("L1"), nid("L2"), nid("R"))
    assert route.cost == 102
    assert len(applies) == 3
    assert scanned == [nid("R"), nid("L2")]


def test_price_vector_is_exact():
    # a cycle whose rates multiply to exactly 1 has prices
    prices = price_vector([RateQuote("x", "y", 2, 1), RateQuote("y", "x", 1, 2)])
    assert prices == {"x": Fraction(1), "y": Fraction(1, 2)}
    assert price_vector([RateQuote("x", "x", 1, 1), RateQuote("x", "x", 3, 4)]) == {
        "x": Fraction(1)
    }
    assert price_vector([]) == {}
    # a hair above 1 has none, and neither has a gaining self-quote
    hair = RateQuote("y", "x", 1_000_001, 2_000_000)
    assert price_vector([RateQuote("x", "y", 2, 1), hair]) is None
    assert price_vector([RateQuote("x", "x", 1_000_001, 1_000_000)]) is None


def test_gaining_cycle_searches_every_path():
    """L1 and L2 quote x -> y at 2/1 and y -> x a hair above 1/2: no price
    vector, so the cost bound is 0, and every path from a head the sender
    reaches within the hop budget is taken."""
    fns = {"cx": frozenset({S256}), "cy": frozenset({S256})}
    edges = [Edge(nid("S"), nid("L1"), "cx", "x", 10**6)]
    for u, v in (("L1", "L2"), ("L2", "L1")):
        edges += [Edge(nid(u), nid(v), c, c[1], 10**6) for c in ("cx", "cy")]
    edges += [Edge(nid(lp), nid("R"), "cx", "x", 10**6) for lp in ("L1", "L2")]
    g = ChannelGraph(fns, edges, [
        (nid(lp), q) for lp in ("L1", "L2") for q in (
            RateQuote("x", "y", 2, 1, base_fee=1),
            RateQuote("y", "x", 1_000_001, 2_000_000, base_fee=1),
            RateQuote("x", "x", 1, 1, base_fee=3),
        )
    ])
    assert price_vector(q for t in g.quotes.values() for q in t.values()) is None
    for amount in (1, 7, 1000, 250_000):
        route = find_route(g, nid("S"), nid("R"), amount, "x")
        assert route == reference_find_route(g, nid("S"), nid("R"), amount, "x")


# --- the sender-side potentials ------------------------------------------------


def brute_potentials(g, sender, own_edges):
    """For each node n that could head a partial path: the least
    price-weighted fee and the fewest hops over every simple path from
    `sender` to n whose nodes after the sender each quote the asset they are
    paid in into the asset they pay on, n into any asset. Exact, with price
    0 without a price vector. A quote's least fee is its fee at the least
    amount it converts, 1."""
    prices = quoted_prices(g)
    # integers over the prices' common denominator, for speed
    scale = math.lcm(*(p.denominator for p in (prices or {}).values()))
    # (node, asset in, asset out) -> the least fee * price * scale; None is
    # any asset out
    least = {}
    for node, table in g.quotes.items():
        for (a_in, a_out), q in table.items():
            fee = backward_apply(dataclasses.replace(q, rate_num=1, rate_den=1), 1)[1]
            fee *= int(prices[a_in] * scale) if prices is not None else 0
            for key in ((node, a_in, a_out), (node, a_in, None)):
                least[key] = min(least.get(key, fee), fee)
    # node -> the (dst, asset) of its edges: parallel channels in one asset
    # make the same walk
    out = {}
    for node in g._into:
        for e in g.edges_into(node):
            out.setdefault(e.src, set()).add((e.dst, e.asset))
    firsts = out.get(sender, set()) | {(e.dst, e.asset) for e in own_edges}
    best_fee, best_hops = {}, {}

    def walk(node, a_in, fee, hops, visited):
        head = least.get((node, a_in, None))
        if head is None:
            return
        best_fee[node] = min(best_fee.get(node, head + fee), head + fee)
        best_hops[node] = min(best_hops.get(node, hops), hops)
        for dst, asset in out.get(node, ()):
            step = least.get((node, a_in, asset))
            if step is not None and dst not in visited:
                walk(dst, asset, fee + step, hops + 1, visited | {dst})

    for dst, asset in firsts:
        walk(dst, asset, 0, 1, {sender, dst})
    return {n: Fraction(fee, scale) for n, fee in best_fee.items()}, best_hops


def test_potentials_are_admissible_and_reach_every_head():
    """On random meshes, priced, free with gaining cycles, and with the
    sender's own channels to LPs the adverts do not link it to: every node
    a brute-force walk finds heading a partial path is reachable, and H and
    D are at most its fewest hops and least price-weighted fee over every
    path from the sender. Every search still returns the reference route."""
    rng = random.Random(0xD157)
    lower = {"hops": 0, "fee": 0}
    reached_by_own = gaining = 0
    for trial in range(90):
        kind = trial % 3
        g, assets = random_mesh(rng, priced=kind != 1)
        own = []
        if kind == 2:
            # X quotes and the adverts link it to R alone; S has channels to
            # X and to LPs the adverts do not link it to
            chain_asset = {e.chain_id: e.asset for n in g._into for e in g.edges_into(n)}
            c = rng.choice(sorted(chain_asset))
            g = rebuilt(g, [Edge(nid("X"), nid("R"), c, chain_asset[c], 10**6)],
                        [(nid("X"), RateQuote(chain_asset[c], chain_asset[c], 1, 1, base_fee=1))])
            linked = {e.dst for n in g._into for e in g.edges_into(n) if e.src == nid("S")}
            unlinked = sorted(set(g.quotes) - linked - {nid("R")})
            for dst in [nid("X"), *rng.sample(unlinked, min(2, len(unlinked)))]:
                c = rng.choice(sorted(chain_asset))
                own.append(Edge(nid("S"), dst, c, chain_asset[c], 10**6))
        fw = g.forwarders()
        hops_to, fee_to = potentials(g, nid("S"), nid("R"), own)
        best_fee, best_hops = brute_potentials(g, nid("S"), own)
        assert best_hops and set(best_hops) <= set(hops_to), f"trial {trial}"
        if kind == 2:
            assert hops_to[nid("X")] == 1, f"trial {trial}"
            reached_by_own += nid("X") in best_hops
        for n in best_hops:
            assert hops_to[n] <= best_hops[n], f"trial {trial}"
            assert Fraction(fee_to[n], fw.scale) <= best_fee[n], f"trial {trial}"
            lower["hops"] += hops_to[n] < best_hops[n]
            lower["fee"] += Fraction(fee_to[n], fw.scale) < best_fee[n]
        if quoted_prices(g) is None:  # D is 0; reachability and H still prune
            assert not any(fee_to.values())
            gaining += 1
        args = (g, nid("S"), nid("R"), rng.randint(50, 2_000), rng.choice(assets))
        try:
            expected = reference_find_route(rebuilt(g, own), *args[1:])
        except NoRouteFound:
            with pytest.raises(NoRouteFound):
                find_route(*args, own)
            continue
        assert find_route(*args, own) == expected, f"trial {trial}"
    # the potentials count quotes a path may not take, so some are lower
    assert lower["hops"] >= 5 and lower["fee"] >= 50, lower
    assert reached_by_own >= 15 and gaining >= 20, (reached_by_own, gaining)


def ring_mesh(rng, lps=24, leaves=48):
    """The benchmark mesh's shape: LPs in a ring with +1 and +2 chords, each
    quoting coin 1:1 for a fee of 1 plus 1,000 ppm, and leaves (users and
    businesses) each on one random LP."""
    ls = [nid(f"L{i:02d}") for i in range(lps)]
    links = {tuple(sorted((ls[i], ls[(i + step) % lps]))) for step in (1, 2) for i in range(lps)}
    leaves = [nid(f"u{i:03d}") for i in range(leaves)]
    links |= {(leaf, rng.choice(ls)) for leaf in leaves}
    g = ChannelGraph({"main": frozenset({S256})},
                     [Edge(a, b, "main", "coin", 100_000)
                      for u, v in sorted(links) for a, b in ((u, v), (v, u))],
                     [(lp, RateQuote("coin", "coin", 1, 1, base_fee=1, fee_ppm=1000))
                      for lp in ls])
    return g, leaves


def test_mesh_search_grows_few_partial_paths(monkeypatch):
    """Exact counts, not timings: 40 searches between random leaves of a
    24-LP ring make 1,365 partial paths, under 35 a search. Bounding each
    path by its head's amount alone made 19,214, some searches over 2,000."""
    rng = random.Random(0x3E5)
    g, leaves = ring_mesh(rng)
    made = []
    make = graph_mod._Partial

    def partial(*args):
        made.append(args[0])
        return make(*args)

    monkeypatch.setattr(graph_mod, "_Partial", partial)
    for _ in range(40):
        s, r = rng.sample(leaves, 2)
        route = find_route(g, s, r, rng.randint(100, 2000), "coin")
        assert route.sender == s and route.recipient == r
    assert len(made) <= 1_500, len(made)
