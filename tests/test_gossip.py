"""Advert flooding: signatures, freshest-wins merging, pairwise exchange,
ring convergence."""

import random
from dataclasses import replace

import comit.crp.gossip as gossip_mod
from comit.crp import (
    ChannelEndpoint,
    GossipState,
    NodeKey,
    RateQuote,
    make_advert,
    verify_advert,
)


def sample_advert(key, peer_key, timestamp=1, capacity=50_000):
    return make_advert(
        key,
        [ChannelEndpoint("alpha", peer_key.pubkey, capacity)],
        [RateQuote("acoin", "bcoin", 2, 1, base_fee=3)],
        timestamp,
    )


def wrong_mac(advert):
    """`advert` with its signature's MAC zeroed."""
    return replace(advert, signature=replace(advert.signature, mac=bytes(32)))


def test_advert_signature_round_trip(rng):
    a, b = NodeKey.generate(rng), NodeKey.generate(rng)
    advert = sample_advert(a, b)
    assert verify_advert(advert)


def test_tampered_advert_rejected(rng):
    a, b = NodeKey.generate(rng), NodeKey.generate(rng)
    advert = sample_advert(a, b, timestamp=9)
    assert not verify_advert(replace(advert, timestamp=10))
    assert not verify_advert(wrong_mac(advert))
    forged = replace(advert, quotes=(RateQuote("acoin", "bcoin", 200, 1),))
    assert not verify_advert(forged)
    # b's advert relabelled as a's, and a's advert carrying b as its signer.
    assert not verify_advert(replace(sample_advert(b, a, timestamp=9), node_pubkey=a.pubkey))
    assert not verify_advert(replace(advert, signature=replace(advert.signature, _signer=b)))


def test_keys_sharing_a_pubkey_each_verify_their_own_adverts(rng):
    """X25519 clamps away the low three bits of a seed, so two seeds that
    differ only in bit 0 name one node. Making the second key leaves the
    first key's adverts valid."""
    seed = bytes(range(32))
    first = NodeKey(seed)
    second = NodeKey(bytes([seed[0] ^ 1]) + seed[1:])
    assert first.pubkey == second.pubkey and first.seed != second.seed
    peer = NodeKey.generate(rng)
    assert verify_advert(sample_advert(first, peer))
    assert verify_advert(sample_advert(second, peer))


def test_signing_bytes_built_once_per_advert(rng, monkeypatch):
    """Verifying one advert at many nodes builds its signing bytes once,
    when the advert is made; a copy with a tampered field builds its own
    and is still rejected."""
    a, b = NodeKey.generate(rng), NodeKey.generate(rng)
    advert = sample_advert(a, b, timestamp=9)
    build = gossip_mod.advert_signing_bytes
    calls = []

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(gossip_mod, "advert_signing_bytes", counting)
    nodes = [GossipState(NodeKey.generate(rng).pubkey) for _ in range(20)]
    for node in nodes:
        node.gossip_step([advert])
        assert node.adverts == {a.pubkey: advert}
    assert calls == []
    for field, value in (("timestamp", 10), ("endpoints", ()),
                         ("quotes", (RateQuote("acoin", "bcoin", 200, 1),))):
        tampered = replace(advert, **{field: value})
        assert tampered.signing_bytes != advert.signing_bytes
        assert not verify_advert(tampered)
        assert nodes[0].gossip_step([tampered]) == []
    assert len(calls) == 3
    assert nodes[0].invalid_dropped == 3 and nodes[0].adverts == {a.pubkey: advert}
    assert advert.signing_bytes == build(advert.node_pubkey, advert.endpoints,
                                         advert.quotes, advert.timestamp)


def test_invalid_adverts_dropped_and_counted(rng):
    a, b, c = (NodeKey.generate(rng) for _ in range(3))
    state = GossipState(c.pubkey)
    good = sample_advert(a, b, timestamp=5)
    bad = wrong_mac(sample_advert(b, a, timestamp=5))
    state.gossip_step([good, bad])
    assert [adv.node_pubkey for adv in state.advert_set()] == sorted([a.pubkey])
    assert state.invalid_dropped == 1


def test_freshest_timestamp_wins_regardless_of_arrival_order(rng):
    a, b, c = (NodeKey.generate(rng) for _ in range(3))
    newer = sample_advert(a, b, timestamp=20, capacity=111)
    older = sample_advert(a, b, timestamp=10, capacity=999)

    state = GossipState(c.pubkey)
    state.gossip_step([newer, older])
    assert state.adverts[a.pubkey].timestamp == 20
    assert state.version == 1  # the stale one installed nothing

    state2 = GossipState(c.pubkey)
    state2.gossip_step([older])
    assert state2.version == 1
    state2.gossip_step([newer])
    assert state2.adverts[a.pubkey].timestamp == 20
    assert state2.adverts[a.pubkey].endpoints[0].capacity == 111
    assert state2.version == 2
    # version moves only when an advert is installed
    forged = wrong_mac(sample_advert(a, b, timestamp=30))
    for incoming in ([older], [newer], [forged]):
        state2.gossip_step(incoming)
        assert state2.version == 2
    state2.insert_local(forged)
    assert state2.version == 2 and state2.invalid_dropped == 2
    state2.insert_local(sample_advert(a, b, timestamp=21))
    assert state2.version == 3


def _run_rounds(states, neighbors, rounds):
    """Synchronous gossip: each round, every node pushes the store it held
    at the round's start to each neighbour. Returns what the last round
    installed, one list per push."""
    installed = []
    for _ in range(rounds):
        stores = [list(state.adverts.values()) for state in states]
        installed = [states[j].gossip_step(stores[i])
                     for i in range(len(states)) for j in neighbors[i]]
    return installed


def _exchange_rounds(states, channels, rounds):
    """The simulator's rounds: the ends of each channel exchange, one
    channel after another in channel order."""
    for _ in range(rounds):
        for i, j in channels:
            states[i].exchange(states[j])


def _assert_quiet_exchanges(states, channels):
    """Converged nodes teach each other nothing: a further round of
    exchanges moves no version, and neither end of a channel installs
    anything from the other's store."""
    versions = [s.version for s in states]
    _exchange_rounds(states, channels, rounds=1)
    assert [s.version for s in states] == versions
    for i, j in channels:
        assert states[i].gossip_step(states[j].adverts.values()) == []
        assert states[j].gossip_step(states[i].adverts.values()) == []


def test_ring_converges_within_diameter_rounds(rng):
    """Both ways of driving gossip converge on a ring within its diameter
    and then go quiet: synchronous rounds of store pushes, and rounds of
    exchange in channel order."""
    n = 6
    keys = [NodeKey.generate(rng) for _ in range(n)]
    neighbors = {i: ((i - 1) % n, (i + 1) % n) for i in range(n)}
    channels = [(i, (i + 1) % n) for i in range(n)]
    everyone = sorted(k.pubkey for k in keys)
    for synchronous in (True, False):
        states = [GossipState(k.pubkey) for k in keys]
        for i, k in enumerate(keys):
            states[i].insert_local(sample_advert(k, keys[(i + 1) % n], timestamp=1))

        if synchronous:
            # adverts move one hop per round
            _run_rounds(states, neighbors, rounds=n // 2)
        else:
            _exchange_rounds(states, channels, rounds=n // 2)
        for state in states:
            assert sorted(state.adverts) == everyone
        assert all(state.invalid_dropped == 0 for state in states)

        if not synchronous:
            _assert_quiet_exchanges(states, channels)
            continue
        # once converged the network goes quiet: a further round installs nothing
        versions = [s.version for s in states]
        assert all(d == [] for d in _run_rounds(states, neighbors, rounds=1))
        assert [s.version for s in states] == versions


def test_exchange_leaves_both_with_the_freshest_union(rng):
    """After a.exchange(b) both stores hold the union of what either held,
    each origin at its freshest timestamp, and a bad signature reaches
    neither. A second exchange, either way round, moves neither version:
    two peers that have just exchanged have nothing to send each other."""
    a, b, x, y, z = (NodeKey.generate(rng) for _ in range(5))
    ga, gb = GossipState(a.pubkey), GossipState(b.pubkey)
    for state, adverts in (
        (ga, [sample_advert(x, y, timestamp=3, capacity=1), sample_advert(y, x, timestamp=5)]),
        (gb, [sample_advert(x, y, timestamp=4, capacity=2), sample_advert(z, x, timestamp=2)]),
    ):
        for advert in adverts:
            state.insert_local(advert)
    forged = wrong_mac(sample_advert(a, b, timestamp=9))
    gb.gossip_step([forged])
    assert (ga.version, gb.version) == (2, 2)

    ga.exchange(gb)
    for state in (ga, gb):
        assert {k: v.timestamp for k, v in state.adverts.items()} == {
            x.pubkey: 4, y.pubkey: 5, z.pubkey: 2}
        assert state.adverts[x.pubkey].endpoints[0].capacity == 2
    assert (ga.version, gb.version) == (4, 3)
    assert (ga.invalid_dropped, gb.invalid_dropped) == (0, 1)
    for first, second in ((ga, gb), (gb, ga)):
        first.exchange(second)
        assert (ga.version, gb.version) == (4, 3)
        assert ga.advert_set() == gb.advert_set()


def test_repeat_exchange_makes_no_gossip_step_call(rng, monkeypatch):
    """While neither version moves, a repeat exchange, either way round,
    returns before any gossip_step call. Once a third node teaches one of
    the two a fresher advert, the next exchange runs and passes it on."""
    a, b, c, x = (NodeKey.generate(rng) for _ in range(4))
    ga, gb, gc = (GossipState(k.pubkey) for k in (a, b, c))
    ga.insert_local(sample_advert(a, b, timestamp=1))
    gc.insert_local(sample_advert(x, c, timestamp=1))
    step = GossipState.gossip_step
    calls = []

    def counted(self, *args):
        calls.append(self.own_pubkey)
        return step(self, *args)

    monkeypatch.setattr(GossipState, "gossip_step", counted)
    ga.exchange(gb)
    assert len(calls) == 2 and (ga.version, gb.version) == (1, 1)
    for first, second in ((ga, gb), (gb, ga), (ga, gb)):
        calls.clear()
        first.exchange(second)
        assert calls == []
    fresher = sample_advert(a, b, timestamp=2, capacity=7)
    gc.insert_local(fresher)
    gc.exchange(gb)
    assert gb.adverts[a.pubkey] is fresher and gb.version == 3
    calls.clear()
    ga.exchange(gb)
    assert calls == [b.pubkey, a.pubkey]
    assert ga.adverts[a.pubkey] is fresher and ga.advert_set() == gb.advert_set()
    calls.clear()
    gb.exchange(ga)
    assert calls == []


def test_exchange_after_forget_peers(rng):
    """Two converged states that forget their peers keep only their stores.
    A further exchange, either way round, resends what each holds but moves
    no version and no invalid_dropped count, and leaves the stores equal.
    A fresher advert inserted after forgetting still reaches the peer."""
    a, b, x = (NodeKey.generate(rng) for _ in range(3))
    ga, gb = GossipState(a.pubkey), GossipState(b.pubkey)
    ga.insert_local(sample_advert(a, b, timestamp=1))
    gb.insert_local(sample_advert(b, a, timestamp=1))
    gb.insert_local(sample_advert(x, a, timestamp=1))
    ga.gossip_step([wrong_mac(sample_advert(x, b, timestamp=5))])
    ga.exchange(gb)
    counts = (ga.version, gb.version, ga.invalid_dropped, gb.invalid_dropped)
    assert counts == (3, 3, 1, 0)

    def forget():
        for state in (ga, gb):
            state.forget_peers()
            assert state._exchanged == {}

    for first, second in ((ga, gb), (gb, ga)):
        forget()
        first.exchange(second)
        assert (ga.version, gb.version, ga.invalid_dropped, gb.invalid_dropped) == counts
        assert len(ga.adverts) == 3 and ga.advert_set() == gb.advert_set()
    forget()
    fresher = sample_advert(b, a, timestamp=2, capacity=7)
    gb.insert_local(fresher)
    gb.exchange(ga)
    assert ga.adverts[b.pubkey] is fresher and (ga.version, gb.version) == (4, 4)
    assert ga.advert_set() == gb.advert_set()


def test_refreshed_advert_floods_and_replaces(rng):
    n = 6
    keys = [NodeKey.generate(rng) for _ in range(n)]
    states = [GossipState(k.pubkey) for k in keys]
    neighbors = {i: ((i - 1) % n, (i + 1) % n) for i in range(n)}
    for i, k in enumerate(keys):
        states[i].insert_local(sample_advert(k, keys[(i + 1) % n], timestamp=1))
    _run_rounds(states, neighbors, rounds=n // 2 + 1)

    states[0].insert_local(sample_advert(keys[0], keys[1], timestamp=7, capacity=42))
    _run_rounds(states, neighbors, rounds=n // 2 + 1)
    for state in states:
        held = state.adverts[keys[0].pubkey]
        assert held.timestamp == 7
        assert held.endpoints[0].capacity == 42


def test_random_topologies_converge(rng):
    for trial in range(5):
        n = rng.randint(3, 8)
        keys = [NodeKey.generate(rng) for _ in range(n)]
        states = [GossipState(k.pubkey) for k in keys]
        # random connected graph: a spanning chain plus extra edges
        adj = {i: set() for i in range(n)}
        order = list(range(n))
        rng.shuffle(order)
        for a, b in zip(order, order[1:]):
            adj[a].add(b)
            adj[b].add(a)
        for _ in range(n):
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                adj[a].add(b)
                adj[b].add(a)
        neighbors = {i: tuple(sorted(adj[i])) for i in range(n)}
        for i, k in enumerate(keys):
            states[i].insert_local(sample_advert(k, keys[(i + 1) % n], timestamp=1))
        _run_rounds(states, neighbors, rounds=n + 1)
        everyone = sorted(k.pubkey for k in keys)
        assert all(sorted(s.adverts) == everyone for s in states), trial

        # rounds of exchange in channel order: within diameter rounds
        # (under n), then quiet
        states = [GossipState(k.pubkey) for k in keys]
        for i, k in enumerate(keys):
            states[i].insert_local(sample_advert(k, keys[(i + 1) % n], timestamp=1))
        channels = sorted((i, j) for i in adj for j in adj[i] if i < j)
        _exchange_rounds(states, channels, rounds=n - 1)
        assert all(sorted(s.adverts) == everyone for s in states), trial
        _assert_quiet_exchanges(states, channels)
