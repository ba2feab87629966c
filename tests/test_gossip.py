"""Advert flooding: signatures, grow-only merging (the first valid advert
per origin), pairwise exchange, ring convergence."""

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


def sample_advert(key, peer_key, capacity=50_000):
    return make_advert(
        key,
        [ChannelEndpoint("alpha", peer_key.pubkey, capacity)],
        [RateQuote("acoin", "bcoin", 2, 1, base_fee=3)],
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
    advert = sample_advert(a, b)
    assert not verify_advert(replace(advert, endpoints=()))
    assert not verify_advert(wrong_mac(advert))
    forged = replace(advert, quotes=(RateQuote("acoin", "bcoin", 200, 1),))
    assert not verify_advert(forged)
    # b's advert relabelled as a's, and a's advert carrying b as its signer.
    assert not verify_advert(replace(sample_advert(b, a), node_pubkey=a.pubkey))
    assert not verify_advert(replace(advert, signature=replace(advert.signature, _signer=b)))


def test_keys_sharing_a_pubkey_each_verify_their_own_adverts(rng):
    """X25519 clamps away the low three bits of a seed, so two seeds that
    differ only in bit 0 name one node. Making the second key leaves the
    first key's adverts valid."""
    seed = bytes(range(32))
    first = NodeKey(seed)
    second = NodeKey(bytes([seed[0] ^ 1]) + seed[1:])
    assert first.pubkey == second.pubkey and first.secret != second.secret
    peer = NodeKey.generate(rng)
    assert verify_advert(sample_advert(first, peer))
    assert verify_advert(sample_advert(second, peer))


def test_signing_bytes_built_once_per_advert(rng, monkeypatch):
    """Verifying one advert at many nodes builds its signing bytes once,
    when the advert is made; a copy with a tampered field builds its own
    and is still rejected."""
    a, b = NodeKey.generate(rng), NodeKey.generate(rng)
    advert = sample_advert(a, b)
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
    for field, value in (("endpoints", (ChannelEndpoint("alpha", b.pubkey, 1),)),
                         ("endpoints", ()),
                         ("quotes", (RateQuote("acoin", "bcoin", 200, 1),))):
        tampered = replace(advert, **{field: value})
        assert tampered.signing_bytes != advert.signing_bytes
        assert not verify_advert(tampered)
        assert nodes[0].gossip_step([tampered]) == []
    assert len(calls) == 3
    assert nodes[0].invalid_dropped == 3 and nodes[0].adverts == {a.pubkey: advert}
    assert advert.signing_bytes == build(advert.node_pubkey, advert.endpoints, advert.quotes)


def test_invalid_adverts_dropped_and_counted(rng):
    a, b, c = (NodeKey.generate(rng) for _ in range(3))
    state = GossipState(c.pubkey)
    good = sample_advert(a, b)
    bad = wrong_mac(sample_advert(b, a))
    state.gossip_step([good, bad])
    assert [adv.node_pubkey for adv in state.advert_set()] == sorted([a.pubkey])
    assert state.invalid_dropped == 1


def test_second_advert_from_a_held_origin_installs_nothing(rng, monkeypatch):
    """A store keeps the first valid advert it sees from an origin. A second
    validly signed advert from that origin is verified but installs
    nothing, whichever of the two arrives first: the store, its size and
    the exchange memo stay as they were. A forged copy is dropped and
    counted."""
    a, b, c, d = (NodeKey.generate(rng) for _ in range(4))
    first = sample_advert(a, b, capacity=111)
    second = sample_advert(a, b, capacity=999)
    verify = gossip_mod.verify_advert
    verified = []

    def counting(advert):
        verified.append(advert)
        return verify(advert)

    monkeypatch.setattr(gossip_mod, "verify_advert", counting)
    for held, other in ((first, second), (second, first)):
        state, peer = GossipState(c.pubkey), GossipState(d.pubkey)
        verified.clear()
        assert state.gossip_step([held, other]) == [held]
        assert verified == [held, other]
        state.exchange(peer)
        assert peer.adverts == {a.pubkey: held}
        memo = {d.pubkey: (1, 1)}
        assert state._exchanged == memo
        for incoming in ([other], [wrong_mac(other)], [wrong_mac(held)]):
            verified.clear()
            assert state.gossip_step(incoming) == []
            assert verified == incoming
            assert state.adverts == {a.pubkey: held} and len(state.adverts) == 1
            assert state._exchanged == memo
        assert state.invalid_dropped == 2


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
    exchanges grows no store, and neither end of a channel installs
    anything from the other's store."""
    sizes = [len(s.adverts) for s in states]
    _exchange_rounds(states, channels, rounds=1)
    assert [len(s.adverts) for s in states] == sizes
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
            states[i].insert_local(sample_advert(k, keys[(i + 1) % n]))

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
        sizes = [len(s.adverts) for s in states]
        assert all(d == [] for d in _run_rounds(states, neighbors, rounds=1))
        assert [len(s.adverts) for s in states] == sizes


def test_exchange_leaves_both_with_the_union(rng):
    """After a.exchange(b) both stores hold the union of what either held,
    each origin's advert as the very object its holder installed, and a
    bad signature reaches neither. A second exchange, either way round,
    grows neither store: two peers that have just exchanged have nothing
    to send each other."""
    a, b, x, y, z = (NodeKey.generate(rng) for _ in range(5))
    ga, gb = GossipState(a.pubkey), GossipState(b.pubkey)
    held = {x.pubkey: sample_advert(x, y, capacity=1), y.pubkey: sample_advert(y, x),
            z.pubkey: sample_advert(z, x)}
    for state, origins in ((ga, (x, y)), (gb, (x, z))):
        for origin in origins:
            state.insert_local(held[origin.pubkey])
    forged = wrong_mac(sample_advert(a, b))
    gb.gossip_step([forged])
    assert (len(ga.adverts), len(gb.adverts)) == (2, 2)

    ga.exchange(gb)
    for state in (ga, gb):
        assert state.adverts == held
        assert all(state.adverts[k] is v for k, v in held.items())
    assert (ga.invalid_dropped, gb.invalid_dropped) == (0, 1)
    for first, second in ((ga, gb), (gb, ga)):
        first.exchange(second)
        assert (len(ga.adverts), len(gb.adverts)) == (3, 3)
        assert ga.advert_set() == gb.advert_set()


def test_repeat_exchange_makes_no_gossip_step_call(rng, monkeypatch):
    """While neither store grows, a repeat exchange, either way round,
    returns before any gossip_step call. Once a third node teaches one of
    the two a new origin's advert, the next exchange runs and passes it
    on."""
    a, b, c, x = (NodeKey.generate(rng) for _ in range(4))
    ga, gb, gc = (GossipState(k.pubkey) for k in (a, b, c))
    news = sample_advert(x, c)
    ga.insert_local(sample_advert(a, b))
    gc.insert_local(news)
    step = GossipState.gossip_step
    calls = []

    def counted(self, *args):
        calls.append(self.own_pubkey)
        return step(self, *args)

    monkeypatch.setattr(GossipState, "gossip_step", counted)
    ga.exchange(gb)
    assert len(calls) == 2 and (len(ga.adverts), len(gb.adverts)) == (1, 1)
    for first, second in ((ga, gb), (gb, ga), (ga, gb)):
        calls.clear()
        first.exchange(second)
        assert calls == []
    gc.exchange(gb)
    assert gb.adverts[x.pubkey] is news and len(gb.adverts) == 2
    calls.clear()
    ga.exchange(gb)
    assert calls == [b.pubkey, a.pubkey]
    assert ga.adverts[x.pubkey] is news and ga.advert_set() == gb.advert_set()
    calls.clear()
    gb.exchange(ga)
    assert calls == []


def test_exchange_after_forget_peers(rng):
    """Two converged states that forget their peers keep only their stores.
    A further exchange, either way round, resends what each holds but moves
    no store size and no invalid_dropped count, and leaves the stores
    equal. A new origin's advert inserted after forgetting still reaches
    the peer."""
    a, b, x, y = (NodeKey.generate(rng) for _ in range(4))
    ga, gb = GossipState(a.pubkey), GossipState(b.pubkey)
    ga.insert_local(sample_advert(a, b))
    gb.insert_local(sample_advert(b, a))
    gb.insert_local(sample_advert(x, a))
    ga.gossip_step([wrong_mac(sample_advert(x, b))])
    ga.exchange(gb)

    def counts():
        return len(ga.adverts), len(gb.adverts), ga.invalid_dropped, gb.invalid_dropped

    before = counts()
    assert before == (3, 3, 1, 0)

    def forget():
        for state in (ga, gb):
            state.forget_peers()
            assert state._exchanged == {}

    for first, second in ((ga, gb), (gb, ga)):
        forget()
        first.exchange(second)
        assert counts() == before and ga.advert_set() == gb.advert_set()
    forget()
    news = sample_advert(y, a)
    gb.insert_local(news)
    gb.exchange(ga)
    assert ga.adverts[y.pubkey] is news and (len(ga.adverts), len(gb.adverts)) == (4, 4)
    assert ga.advert_set() == gb.advert_set()


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
            states[i].insert_local(sample_advert(k, keys[(i + 1) % n]))
        _run_rounds(states, neighbors, rounds=n + 1)
        everyone = sorted(k.pubkey for k in keys)
        assert all(sorted(s.adverts) == everyone for s in states), trial

        # rounds of exchange in channel order: within diameter rounds
        # (under n), then quiet
        states = [GossipState(k.pubkey) for k in keys]
        for i, k in enumerate(keys):
            states[i].insert_local(sample_advert(k, keys[(i + 1) % n]))
        channels = sorted((i, j) for i in adj for j in adj[i] if i < j)
        _exchange_rounds(states, channels, rounds=n - 1)
        assert all(sorted(s.adverts) == everyone for s in states), trial
        _assert_quiet_exchanges(states, channels)
