"""Layered routing packets: round trips, size invariance, tamper detection,
and the sender's key schedule against the re-blinding one it replaced."""

import hashlib
import random

import pytest
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

from comit.chainlab import HashFnId
from comit.crp import (
    ChannelGraph,
    Edge,
    HmacFailure,
    HopPayload,
    InvalidPacket,
    NodeKey,
    OnionError,
    OnionPacket,
    PACKET_SIZE,
    PayloadOverflow,
    QuoteEcho,
    RateQuote,
    RouteTooLong,
    find_route,
    onion_create,
    onion_peel,
    payloads_for_route,
)
import comit.crp.onion as onion_mod
from comit.crp.onion import (
    _L,
    _as_key,
    _clamp,
    _exchange,
    _hop_secrets,
    _mul,
    _xor,
    decode_payload,
    encode_payload,
)

from conftest import GOLDEN


def flat_payloads(keys, base_amount=1000):
    out = []
    for i in range(len(keys)):
        nxt = keys[i + 1].pubkey if i + 1 < len(keys) else None
        out.append(
            HopPayload(
                next_node=nxt,
                chain_id=f"chain{i}",
                asset=f"asset{i}",
                amount_to_forward=base_amount + i,
                expiry_delta=6 * (len(keys) - i),
                echo=QuoteEcho(1, 1, 5, 0),
            )
        )
    return out


def peel_all(packet, keys):
    seen = []
    for key in keys:
        payload, packet = onion_peel(packet, key)
        seen.append(payload)
    assert packet is None
    return seen


@pytest.mark.parametrize("hops", [1, 2, 3, 7, 20])
def test_round_trip(hops, seeded):
    rng = seeded(hops)
    keys = [NodeKey.generate(rng) for _ in range(hops)]
    payloads = flat_payloads(keys)
    packet = onion_create([k.pubkey for k in keys], rng, payloads)
    assert len(packet.serialize()) == PACKET_SIZE
    assert peel_all(packet, keys) == payloads


def test_packet_size_constant_at_every_hop(seeded):
    rng = seeded(99)
    keys = [NodeKey.generate(rng) for _ in range(8)]
    packet = onion_create([k.pubkey for k in keys], rng, flat_payloads(keys))
    wires = []
    for key in keys:
        wires.append(packet.serialize())
        assert len(wires[-1]) == PACKET_SIZE
        _, packet = onion_peel(packet, key)
    # successive packets share no recognizable identity
    assert len(set(wires)) == len(wires)
    ephemerals = {OnionPacket.parse(w).ephemeral for w in wires}
    assert len(ephemerals) == len(wires)


def test_payload_codec_round_trip(seeded):
    rng = seeded(3)
    for _ in range(50):
        p = HopPayload(
            next_node=None if rng.random() < 0.3 else rng.randbytes(32),
            chain_id="c" * rng.randint(1, 31),
            asset="a" * rng.randint(1, 31),
            amount_to_forward=rng.randint(0, 2**64 - 1),
            expiry_delta=rng.randint(0, 2**32 - 1),
            echo=QuoteEcho(
                rng.randint(1, 2**64 - 1),
                rng.randint(1, 2**64 - 1),
                rng.randint(0, 2**64 - 1),
                rng.randint(0, 999_999),
            ),
        )
        assert decode_payload(encode_payload(p)) == p


def test_payload_field_limits():
    echo = QuoteEcho(1, 1, 0, 0)
    with pytest.raises(PayloadOverflow):
        encode_payload(HopPayload(None, "c" * 32, "a", 1, 1, echo))
    with pytest.raises(PayloadOverflow):
        encode_payload(HopPayload(None, "c", "a" * 32, 1, 1, echo))
    with pytest.raises(PayloadOverflow):
        encode_payload(HopPayload(None, "c", "a", 2**64, 1, echo))
    with pytest.raises(PayloadOverflow):
        encode_payload(HopPayload(None, "c", "a", 1, 2**32, echo))
    with pytest.raises(PayloadOverflow):
        encode_payload(HopPayload(b"xx", "c", "a", 1, 1, echo))


def test_route_length_cap(seeded):
    rng = seeded(21)
    keys = [NodeKey.generate(rng) for _ in range(21)]
    with pytest.raises(RouteTooLong):
        onion_create([k.pubkey for k in keys], rng, flat_payloads(keys))


def test_single_bit_tampering_always_detected(seeded):
    rng = seeded(1234)
    keys = [NodeKey.generate(rng) for _ in range(5)]
    wire = onion_create([k.pubkey for k in keys], rng, flat_payloads(keys)).serialize()
    for _ in range(1000):
        pos = rng.randrange(PACKET_SIZE)
        bit = 1 << rng.randrange(8)
        mangled = bytearray(wire)
        mangled[pos] ^= bit
        with pytest.raises(OnionError):
            onion_peel(bytes(mangled), keys[0])


def test_wrong_node_cannot_peel(seeded):
    rng = seeded(55)
    keys = [NodeKey.generate(rng) for _ in range(3)]
    packet = onion_create([k.pubkey for k in keys], rng, flat_payloads(keys))
    with pytest.raises(HmacFailure):
        onion_peel(packet, keys[1])
    with pytest.raises(HmacFailure):
        onion_peel(packet, NodeKey.generate(rng))


def test_malformed_wire_rejected(seeded):
    rng = seeded(66)
    keys = [NodeKey.generate(rng)]
    packet = onion_create([k.pubkey for k in keys], rng, flat_payloads(keys))
    wire = packet.serialize()
    with pytest.raises(InvalidPacket):
        onion_peel(wire[:-1], keys[0])
    with pytest.raises(InvalidPacket):
        onion_peel(wire + b"\x00", keys[0])
    with pytest.raises(InvalidPacket):
        onion_peel(b"\x01" + wire[1:], keys[0])  # unknown version


def test_payloads_follow_route_amounts():
    s256 = HashFnId.SHA256
    lp = NodeKey(b"\x11" * 32)
    r = NodeKey(b"\x22" * 32)
    sender = NodeKey(b"\x33" * 32)
    g = ChannelGraph(
        {"x": frozenset({s256}), "y": frozenset({s256})},
        [
            Edge(sender.pubkey, lp.pubkey, "x", "xcoin", 10**6),
            Edge(lp.pubkey, r.pubkey, "y", "ycoin", 10**6),
        ],
    )
    quote = RateQuote("xcoin", "ycoin", 10, 1, fee_ppm=10_000)
    g.add_quote(lp.pubkey, quote)
    route = find_route(g, sender.pubkey, r.pubkey, 10_000, "ycoin")
    payloads = payloads_for_route(route, 10_000)

    assert payloads[0].next_node == r.pubkey
    assert (payloads[0].chain_id, payloads[0].asset) == ("y", "ycoin")
    assert payloads[0].amount_to_forward == 10_000
    assert payloads[0].expiry_delta == 6
    assert payloads[0].echo.matches(quote)

    assert payloads[1].next_node is None
    assert payloads[1].amount_to_forward == 10_000
    assert payloads[1].echo == QuoteEcho(1, 1, 0, 0)

    rng = random.Random(0xABCD)
    packet = onion_create(route, rng, payloads)
    got_lp, packet = onion_peel(packet, lp)
    assert got_lp == payloads[0]
    got_r, end = onion_peel(packet, r)
    assert got_r == payloads[1]
    assert end is None


def test_frozen_wire_vectors():
    """Pinned hex of a 3-hop packet at each hop, guarding the wire format."""
    lines = [
        ln
        for ln in (GOLDEN / "onion" / "three_hop.txt").read_text().splitlines()
        if ln and not ln.startswith("#")
    ]
    keys = [NodeKey(bytes([0x41 + i]) * 32) for i in range(3)]
    rng = random.Random(0x0111)
    packet = onion_create([k.pubkey for k in keys], rng, flat_payloads(keys))
    wires = [packet.serialize().hex()]
    for key in keys[:-1]:
        _, packet = onion_peel(packet, key)
        wires.append(packet.serialize().hex())
    assert wires == lines


def test_xor_matches_bytewise_reference(seeded):
    rng = seeded(0x0C0)
    for n in (0, 1, 32, 168, 3360, 3528):
        a, b = rng.randbytes(n), rng.randbytes(n)
        assert _xor(a, b) == bytes(x ^ y for x, y in zip(a, b))
    # leading zero bytes survive the integer round trip
    assert _xor(b"\x00\x01", b"\x00\x03") == b"\x00\x02"


# --- key schedule ------------------------------------------------------------


def reference_hop_secrets(session, alpha, hop_pubkeys):
    """The shared secret of each hop. `alpha` is the session's public key;
    hop i sees it blinded by the factors of hops 0..i-1, so no hop after the
    last needs one."""
    secrets = []
    blinds: list[bytes] = []
    for i, hop_pub in enumerate(hop_pubkeys):
        s = _exchange(session, hop_pub)
        for b in blinds:
            s = _mul(b, s)
        secrets.append(s)
        if i + 1 < len(hop_pubkeys):
            b = hashlib.sha256(alpha + s).digest()
            blinds.append(b)
            alpha = _mul(b, alpha)
    return secrets


def reference_schedule(session_key, hop_pubkeys):
    """Ephemerals and secrets by re-blinding every secret, the oracle of the
    running-scalar schedule. Each ephemeral after the first is the one
    before it blinded as a forwarding hop blinds it."""
    session = X25519PrivateKey.from_private_bytes(session_key)
    alpha = onion_mod._raw_public(session)
    secrets = reference_hop_secrets(session, alpha, hop_pubkeys)
    ephemerals = [alpha]
    for s in secrets[:-1]:
        ephemerals.append(_mul(hashlib.sha256(ephemerals[-1] + s).digest(), ephemerals[-1]))
    return ephemerals, secrets


def schedules(seed):
    """(session key, hop keys) for 1..20 hops, fresh keys for each length."""
    rng = random.Random(seed)
    for hops in range(1, 21):
        keys = [NodeKey.generate(rng).pubkey for _ in range(hops)]
        yield rng.randbytes(32), keys


@pytest.mark.parametrize("seed", [0x5C4, 0x5C5, 0x5C6])
def test_key_schedule_matches_reblinding_reference(seed):
    for session_key, keys in schedules(seed):
        assert _hop_secrets(session_key, keys) == reference_schedule(session_key, keys)


@pytest.mark.parametrize("keyless", ["every", "alternate"])
def test_fallback_for_a_scalar_with_no_key_matches_reference(monkeypatch, keyless):
    """Residues with no key are about 2**-125 of all, so force them: at
    every hop the schedule is the reference's own; at alternate hops the
    pending blinds are applied and then dropped once a key is found."""
    calls = []

    def as_key(k):
        calls.append(k)
        return None if keyless == "every" or len(calls) % 2 else _as_key(k)

    monkeypatch.setattr(onion_mod, "_as_key", as_key)
    for session_key, keys in schedules(0xFA11):
        assert _hop_secrets(session_key, keys) == reference_schedule(session_key, keys)
    assert calls


def test_as_key_gives_a_key_for_either_sign_of_the_residue(seeded):
    assert _as_key(2**255 % _L) is None
    rng = seeded(0xA5)
    for _ in range(2000):
        r = rng.randrange(1, _L)
        key = _as_key(r)
        assert key is not None and len(key) == 32
        assert _clamp(key) % _L in (r, _L - r)
        assert _clamp(key) == int.from_bytes(key, "little")


@pytest.mark.parametrize("hops", range(1, 7))
def test_onion_create_makes_one_key_and_one_exchange_per_hop(monkeypatch, hops, seeded):
    rng = seeded(0x0C + hops)
    keys = [NodeKey.generate(rng) for _ in range(hops)]
    counts = {"from_private_bytes": 0, "exchange": 0}

    class CountedKey:
        def __init__(self, key):
            self._key = key

        def exchange(self, peer):
            counts["exchange"] += 1
            return self._key.exchange(peer)

        def public_key(self):
            return self._key.public_key()

    class CountedPrivateKey:
        @staticmethod
        def from_private_bytes(data):
            counts["from_private_bytes"] += 1
            return CountedKey(X25519PrivateKey.from_private_bytes(data))

    monkeypatch.setattr(onion_mod, "X25519PrivateKey", CountedPrivateKey)
    payloads = flat_payloads(keys)
    packet = onion_create([k.pubkey for k in keys], rng, payloads)
    assert counts == {"from_private_bytes": hops, "exchange": hops}
    monkeypatch.undo()
    assert peel_all(packet, keys) == payloads
