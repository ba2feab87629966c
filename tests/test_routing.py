"""Route finding over the channel graph.

The randomized check re-derives the best route with an independent
brute-force enumerator (exact Fraction arithmetic, no code shared with
the implementation's backward search) and compares keys, amounts and
fees.
"""

import math
import random
from fractions import Fraction

import pytest

from comit.chainlab import HashFnId
from comit.crp import (
    ChannelEndpoint,
    ChannelGraph,
    Edge,
    NodeKey,
    NoRouteFound,
    RateQuote,
    compute_hop_amounts,
    find_route,
    make_advert,
)

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
    g = ChannelGraph(fns, edges)
    g.add_quote(nid("L1"), RateQuote("coin", "coin", 1, 1, base_fee=5))
    g.add_quote(nid("L2"), RateQuote("coin", "coin", 1, 1, base_fee=5))
    return g


def test_flat_fee_chain_totals():
    route = find_route(simple_graph(), nid("S"), nid("R"), 1000, "coin")
    assert route.nodes() == (nid("L1"), nid("L2"), nid("R"))
    assert [h.amount for h in route.hops] == [1010, 1005, 1000]
    assert [h.fee for h in route.hops] == [5, 5, 0]
    assert route.cost == 1010


def test_expiry_ladder_decreases_toward_recipient():
    route = find_route(simple_graph(), nid("S"), nid("R"), 1000, "coin")
    assert [h.expiry_delta for h in route.hops] == [18, 12, 6]


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
    )
    g.add_quote(nid("LP"), RateQuote("xcoin", "ycoin", 10, 1, fee_ppm=10_000))
    route = find_route(g, nid("S"), nid("R"), 10_000, "ycoin")
    assert [h.amount for h in route.hops] == [1010, 10_000]
    assert [h.fee for h in route.hops] == [10, 0]
    assert [h.asset for h in route.hops] == ["xcoin", "ycoin"]
    assert [h.expiry_delta for h in route.hops] == [12, 6]


def test_recipient_self_quote_prices_final_hop():
    fns = {"main": frozenset({S256})}
    g = ChannelGraph(fns, [Edge(nid("S"), nid("R"), "main", "coin", 10**6)])
    assert find_route(g, nid("S"), nid("R"), 1000, "coin").cost == 1000
    g.add_quote(nid("R"), RateQuote("coin", "coin", 1, 1, base_fee=7))
    assert find_route(g, nid("S"), nid("R"), 1000, "coin").cost == 1007


def two_corridor_graph(cheap_fns, dear_fns, cheap_cap=10**6):
    fns = {"c1": frozenset(cheap_fns), "c2": frozenset(dear_fns)}
    g = ChannelGraph(
        fns,
        [
            Edge(nid("S"), nid("LA"), "c1", "a1", cheap_cap),
            Edge(nid("LA"), nid("R"), "c1", "a1", cheap_cap),
            Edge(nid("S"), nid("LB"), "c2", "a2", 10**6),
            Edge(nid("LB"), nid("R"), "c2", "a2", 10**6),
        ],
    )
    g.add_quote(nid("LA"), RateQuote("a1", "a1", 1, 1, base_fee=1))
    g.add_quote(nid("LB"), RateQuote("a2", "a2", 1, 1, base_fee=50))
    return g


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
    )
    g.add_quote(nid("L"), RateQuote("a1", "a2", 1, 1))
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
    )
    # one unit of `tiny` buys 1e-7 units of `big`: amount_in leaves u64 range
    g.add_quote(nid("L"), RateQuote("tiny", "big", 1, 10**7, base_fee=0))
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
    )
    g.add_quote(nid("L0"), RateQuote("coin", "coin", 1, 1))  # free hop
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
    )
    g2.add_quote(nid("LA"), RateQuote("coin", "coin", 1, 1, base_fee=2))
    g2.add_quote(nid("LB"), RateQuote("coin", "coin", 1, 1, base_fee=2))
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
    )
    g.add_quote(nid("L1"), RateQuote("acoin", "zcoin", 1, 1, base_fee=100))
    g.add_quote(nid("L2"), RateQuote("acoin", "bcoin", 1, 1, base_fee=1))
    g.add_quote(nid("L3"), RateQuote("bcoin", "zcoin", 10, 1))
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
    g = ChannelGraph(fns, edges)
    for mid in chain[1:-1]:
        g.add_quote(nid(mid), RateQuote("coin", "coin", 1, 1))
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
        g = ChannelGraph(chain_fns, edges)
        for node, table in quotes.items():
            for (a_in, a_out), (num, den, base, ppm) in table.items():
                g.add_quote(node, RateQuote(a_in, a_out, num, den, base, ppm))
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
            timestamp=4,
        ),
        make_advert(lp2, [ChannelEndpoint("main", lp1.pubkey, 600)], [], timestamp=4),
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
