"""Layered routing packets: round trips, size invariance, tamper detection,
the X25519 work of create and peel, and create and peel against a bytewise
reference that derives every hop key itself."""

import hashlib
import hmac
import random
import struct

import pytest
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms

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
)
import comit.crp.onion as onion_mod
from comit.crp.onion import (
    BLOB_SIZE,
    PAYLOAD_SIZE,
    SLOT_SIZE,
    VERSION,
    decode_payload,
    encode_payload,
)
from comit.swap import payloads_for_route

from conftest import GOLDEN, hop_secrets


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


def random_payload(rng, next_node):
    return HopPayload(
        next_node=next_node,
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
    packet = onion_create([k.pubkey for k in keys], hop_secrets(rng, len(keys)), payloads)
    assert len(packet.serialize()) == PACKET_SIZE
    assert peel_all(packet, keys) == payloads


def test_packet_size_constant_at_every_hop(seeded):
    rng = seeded(99)
    keys = [NodeKey.generate(rng) for _ in range(8)]
    packet = onion_create([k.pubkey for k in keys], hop_secrets(rng, len(keys)), flat_payloads(keys))
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
        p = random_payload(rng, None if rng.random() < 0.3 else rng.randbytes(32))
        assert encode_payload(p) == reference_encode_payload(p)
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
    # The quote echo is bounded by its fields, not by RateQuote.
    for bad in (
        QuoteEcho(2**64, 1, 0, 0),
        QuoteEcho(1, 2**64, 0, 0),
        QuoteEcho(1, 1, 2**64, 0),
        QuoteEcho(1, 1, 0, 2**32),
        QuoteEcho(-1, 1, 0, 0),
    ):
        with pytest.raises(PayloadOverflow):
            encode_payload(HopPayload(None, "c", "a", 1, 1, bad))
    with pytest.raises(PayloadOverflow):
        encode_payload(HopPayload(None, "c", "a", -1, 1, echo))


def test_decode_rejects_corrupt_identifiers(monkeypatch, seeded):
    good = encode_payload(HopPayload(None, "chain", "asset", 1, 1, QuoteEcho(1, 1, 0, 0)))
    not_utf8 = good[:33] + b"\xff" + good[34:]
    too_long = good[:32] + bytes([32]) + good[33:]
    for data in (not_utf8, too_long):
        with pytest.raises(InvalidPacket):
            decode_payload(data)
    # A hop that peels an authentic packet carrying one fails the same way.
    rng = seeded(0x0FF)
    key = NodeKey.generate(rng)
    monkeypatch.setattr(onion_mod, "encode_payload", lambda p: not_utf8)
    packet = onion_create([key.pubkey], hop_secrets(rng, 1), flat_payloads([key]))
    with pytest.raises(InvalidPacket):
        onion_peel(packet, key)


def test_route_length_cap(seeded):
    rng = seeded(21)
    keys = [NodeKey.generate(rng) for _ in range(21)]
    with pytest.raises(RouteTooLong):
        onion_create([k.pubkey for k in keys], hop_secrets(rng, len(keys)), flat_payloads(keys))


def test_single_bit_tampering_always_detected(seeded):
    rng = seeded(1234)
    keys = [NodeKey.generate(rng) for _ in range(5)]
    wire = onion_create([k.pubkey for k in keys], hop_secrets(rng, len(keys)), flat_payloads(keys)).serialize()
    for _ in range(1000):
        pos = rng.randrange(PACKET_SIZE)
        bit = 1 << rng.randrange(8)
        mangled = bytearray(wire)
        mangled[pos] ^= bit
        with pytest.raises(OnionError):
            onion_peel(OnionPacket.parse(bytes(mangled)), keys[0])


def test_wrong_node_cannot_peel(seeded):
    rng = seeded(55)
    keys = [NodeKey.generate(rng) for _ in range(3)]
    packet = onion_create([k.pubkey for k in keys], hop_secrets(rng, len(keys)), flat_payloads(keys))
    with pytest.raises(HmacFailure):
        onion_peel(packet, keys[1])
    with pytest.raises(HmacFailure):
        onion_peel(packet, NodeKey.generate(rng))


def test_malformed_wire_rejected(seeded):
    rng = seeded(66)
    keys = [NodeKey.generate(rng)]
    packet = onion_create([k.pubkey for k in keys], hop_secrets(rng, len(keys)), flat_payloads(keys))
    wire = packet.serialize()
    with pytest.raises(InvalidPacket):
        OnionPacket.parse(wire[:-1])
    with pytest.raises(InvalidPacket):
        OnionPacket.parse(wire + b"\x00")
    with pytest.raises(InvalidPacket):
        onion_peel(OnionPacket.parse(b"\x01" + wire[1:]), keys[0])  # unknown version


def test_payloads_follow_route_amounts():
    s256 = HashFnId.SHA256
    lp = NodeKey(b"\x11" * 32)
    r = NodeKey(b"\x22" * 32)
    sender = NodeKey(b"\x33" * 32)
    quote = RateQuote("xcoin", "ycoin", 10, 1, fee_ppm=10_000)
    g = ChannelGraph(
        {"x": frozenset({s256}), "y": frozenset({s256})},
        [
            Edge(sender.pubkey, lp.pubkey, "x", "xcoin", 10**6),
            Edge(lp.pubkey, r.pubkey, "y", "ycoin", 10**6),
        ],
        [(lp.pubkey, quote)],
    )
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
    packet = onion_create(route.nodes(), hop_secrets(rng, len(route.hops)), payloads)
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
    secrets = hop_secrets(random.Random(0x0111), len(keys))
    packet = onion_create([k.pubkey for k in keys], secrets, flat_payloads(keys))
    wires = [packet.serialize().hex()]
    for key in keys[:-1]:
        _, packet = onion_peel(packet, key)
        wires.append(packet.serialize().hex())
    assert wires == lines


# --- the bytewise-XOR reference ---------------------------------------------


def reference_encode_payload(p):
    def pack_id(value):
        raw = value.encode()
        assert len(raw) <= 31
        return struct.pack("<B", len(raw)) + raw + b"\x00" * (31 - len(raw))

    return (
        (p.next_node or b"\x00" * 32)
        + pack_id(p.chain_id)
        + pack_id(p.asset)
        + struct.pack("<QI", p.amount_to_forward, p.expiry_delta)
        + struct.pack(
            "<QQQI", p.echo.rate_num, p.echo.rate_den, p.echo.base_fee, p.echo.fee_ppm
        )
    )


def reference_decode_payload(data):
    def unpack_id(raw):
        if raw[0] > 31:
            raise InvalidPacket("corrupt identifier length")
        return raw[1 : 1 + raw[0]].decode()

    nxt = data[0:32]
    amount, expiry = struct.unpack("<QI", data[96:108])
    return HopPayload(
        None if nxt == b"\x00" * 32 else nxt,
        unpack_id(data[32:64]),
        unpack_id(data[64:96]),
        amount,
        expiry,
        QuoteEcho(*struct.unpack("<QQQI", data[108:136])),
    )


def reference_stream(key, n):
    cipher = Cipher(algorithms.ChaCha20(key, b"\x00" * 16), mode=None)
    return cipher.encryptor().update(b"\x00" * n)


def reference_xor(a, b):
    assert len(a) == len(b)
    return bytes(x ^ y for x, y in zip(a, b))


def reference_keys(secret):
    """A shared secret's (ChaCha20 key, HMAC key): the two halves of its
    BLAKE2b-512 under the personalisation b"comit/onion/keys"."""
    keys = hashlib.blake2b(secret, digest_size=64, person=b"comit/onion/keys").digest()
    return keys[:32], keys[32:]


def reference_pad_key(hop_secret):
    """The pad's ChaCha20 key: the BLAKE2b-256 of hop 0's ephemeral secret
    under the personalisation b"comit/onion/pad"."""
    return hashlib.blake2b(hop_secret, digest_size=32, person=b"comit/onion/pad").digest()


def reference_hop_key(raw, hop_pub):
    """(The public key of private key `raw`, the secret it shares with `hop_pub`)."""
    key = X25519PrivateKey.from_private_bytes(raw)
    peer = X25519PublicKey.from_public_bytes(hop_pub)
    return key.public_key().public_bytes_raw(), key.exchange(peer)


def reference_onion_create(hop_pubkeys, hop_keys, payloads):
    """Materialise each hop's keystream and XOR it in byte by byte."""
    count = len(hop_pubkeys)
    ephemerals, secrets = zip(*map(reference_hop_key, hop_keys, hop_pubkeys))
    streams = [
        reference_stream(
            reference_keys(s)[0], BLOB_SIZE + SLOT_SIZE if i + 1 < count else BLOB_SIZE
        )
        for i, s in enumerate(secrets)
    ]
    filler = b""
    for stream in streams[:-1]:
        filler += b"\x00" * SLOT_SIZE
        filler = reference_xor(filler, stream[-len(filler) :])
    blob = reference_stream(reference_pad_key(hop_keys[0]), BLOB_SIZE)
    next_ephemeral, tag = b"\x00" * 32, b"\x00" * 32
    for i in reversed(range(count)):
        slot = reference_encode_payload(payloads[i]) + next_ephemeral + tag
        assert len(slot) == SLOT_SIZE
        shifted = slot + blob[: BLOB_SIZE - SLOT_SIZE]
        blob = reference_xor(shifted, streams[i][:BLOB_SIZE])
        if i == count - 1 and filler:
            blob = blob[: BLOB_SIZE - len(filler)] + filler
        next_ephemeral = ephemerals[i]
        tag = hmac.new(reference_keys(secrets[i])[1], blob, hashlib.sha256).digest()
    return OnionPacket(VERSION, ephemerals[0], blob, tag)


def reference_onion_peel(packet, node_key):
    if packet.version != VERSION:
        raise InvalidPacket("unknown version")
    try:
        secret = node_key.exchange(packet.ephemeral)
    except ValueError as e:
        raise InvalidPacket(str(e)) from None
    rho, mu = reference_keys(secret)
    want = hmac.new(mu, packet.blob, hashlib.sha256).digest()
    if not hmac.compare_digest(want, packet.tag):
        raise HmacFailure("packet authentication failed")
    stream = reference_stream(rho, BLOB_SIZE + SLOT_SIZE)
    clear = reference_xor(packet.blob + b"\x00" * SLOT_SIZE, stream)
    payload = reference_decode_payload(clear[:PAYLOAD_SIZE])
    next_ephemeral = clear[PAYLOAD_SIZE : PAYLOAD_SIZE + 32]
    next_tag = clear[PAYLOAD_SIZE + 32 : SLOT_SIZE]
    if next_tag == b"\x00" * 32:
        return payload, None
    return payload, OnionPacket(VERSION, next_ephemeral, clear[SLOT_SIZE:], next_tag)


@pytest.mark.parametrize("seed", [0xB17E, 0xB17F, 0xB180])
def test_onion_matches_bytewise_reference(seed):
    """Byte-equal packets at every hop for 1..20 hops."""
    rng = random.Random(seed)
    for hops in range(1, 21):
        keys = [NodeKey.generate(rng) for _ in range(hops)]
        payloads = [
            random_payload(rng, keys[i + 1].pubkey if i + 1 < hops else None)
            for i in range(hops)
        ]
        secrets = hop_secrets(rng, hops)
        packet = onion_create([k.pubkey for k in keys], secrets, payloads)
        assert packet == reference_onion_create([k.pubkey for k in keys], secrets, payloads)
        for key, payload in zip(keys, payloads):
            peeled = onion_peel(packet, key)
            assert peeled == reference_onion_peel(packet, key)
            assert peeled[0] == payload
            packet = peeled[1]
        assert packet is None


def assert_fails_as_reference(wire, key):
    packet = OnionPacket.parse(wire)
    with pytest.raises(OnionError) as got:
        onion_peel(packet, key)
    with pytest.raises(OnionError) as want:
        reference_onion_peel(packet, key)
    assert type(got.value) is type(want.value)
    return type(got.value)


def test_tampered_and_misdelivered_packets_fail_as_the_reference_does(seeded):
    rng = seeded(0x7A3)
    keys = [NodeKey.generate(rng) for _ in range(4)]
    wire = onion_create([k.pubkey for k in keys], hop_secrets(rng, len(keys)), flat_payloads(keys)).serialize()
    for key in (*keys[1:], NodeKey.generate(rng)):
        assert assert_fails_as_reference(wire, key) is HmacFailure
    assert assert_fails_as_reference(b"\x01" + wire[1:], keys[0]) is InvalidPacket
    # A low-order ephemeral fails the exchange itself.
    zero_ephemeral = wire[:1] + bytes(32) + wire[33:]
    assert assert_fails_as_reference(zero_ephemeral, keys[0]) is InvalidPacket
    for _ in range(300):
        mangled = bytearray(wire)
        mangled[rng.randrange(len(wire))] ^= 1 << rng.randrange(8)
        assert_fails_as_reference(bytes(mangled), keys[0])


@pytest.mark.parametrize("hops", [1, 2, 3, 20])
def test_chacha20_contexts_per_create_and_peel(monkeypatch, hops, seeded):
    """A create makes 2h ChaCha20 contexts (the module docstring's count)
    and every peel makes one."""
    rng = seeded(0xC7 + hops)
    keys = [NodeKey.generate(rng) for _ in range(hops)]
    contexts = 0

    def counted_cipher(*args, **kwargs):
        nonlocal contexts
        contexts += 1
        return Cipher(*args, **kwargs)

    monkeypatch.setattr(onion_mod, "Cipher", counted_cipher)
    payloads = flat_payloads(keys)
    packet = onion_create([k.pubkey for k in keys], hop_secrets(rng, len(keys)), payloads)
    assert contexts == 2 * hops
    for key, payload in zip(keys, payloads):
        contexts = 0
        got, packet = onion_peel(packet, key)
        assert (got, contexts) == (payload, 1)
    assert packet is None


# --- X25519 work ----------------------------------------------------------


@pytest.fixture
def x25519_counts(monkeypatch):
    """Counts of the X25519 operations the onion module makes: keys it
    builds from private bytes, exchanges on those keys, and exchanges
    through `NodeKey.exchange`; and of its BLAKE2b key derivations."""
    counts = {"from_private_bytes": 0, "exchange": 0, "node_exchange": 0, "derive": 0}

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

    node_exchange = NodeKey.exchange

    def counted_node_exchange(key, peer):
        counts["node_exchange"] += 1
        return node_exchange(key, peer)

    derive = onion_mod._derive

    def counted_derive(*args):
        counts["derive"] += 1
        return derive(*args)

    monkeypatch.setattr(onion_mod, "X25519PrivateKey", CountedPrivateKey)
    monkeypatch.setattr(NodeKey, "exchange", counted_node_exchange)
    monkeypatch.setattr(onion_mod, "_derive", counted_derive)
    return counts


@pytest.mark.parametrize("hops", range(1, 7))
def test_onion_create_makes_one_key_and_one_exchange_per_hop(x25519_counts, hops, seeded):
    """Per hop one key and one exchange, and h + 1 BLAKE2b key derivations:
    one per shared secret and the pad's."""
    rng = seeded(0x0C + hops)
    keys = [NodeKey.generate(rng) for _ in range(hops)]
    payloads = flat_payloads(keys)
    packet = onion_create([k.pubkey for k in keys], hop_secrets(rng, len(keys)), payloads)
    assert x25519_counts == {"from_private_bytes": hops, "exchange": hops, "node_exchange": 0,
                             "derive": hops + 1}
    assert peel_all(packet, keys) == payloads


@pytest.mark.parametrize("hops", [1, 2, 5, 20])
def test_every_peel_makes_one_node_exchange_and_no_key(x25519_counts, hops, seeded):
    """A forwarding peel and a final peel alike: the hop's own exchange
    and one BLAKE2b key derivation."""
    rng = seeded(0x9E + hops)
    keys = [NodeKey.generate(rng) for _ in range(hops)]
    payloads = flat_payloads(keys)
    packet = onion_create([k.pubkey for k in keys], hop_secrets(rng, len(keys)), payloads)
    for key, payload in zip(keys, payloads):
        x25519_counts.update(from_private_bytes=0, exchange=0, node_exchange=0, derive=0)
        got, packet = onion_peel(packet, key)
        assert got == payload
        assert x25519_counts == {"from_private_bytes": 0, "exchange": 0, "node_exchange": 1,
                                 "derive": 1}
    assert packet is None


def test_substituted_ephemeral_is_refused(seeded):
    """Each forwarded ephemeral is sealed in the slot before it: it never
    shows in the previous wire, and another valid key in its place, the
    previous hop's or a fresh one, fails the next peel's MAC."""
    rng = seeded(0xE9)
    keys = [NodeKey.generate(rng) for _ in range(6)]
    packet = onion_create([k.pubkey for k in keys], hop_secrets(rng, len(keys)), flat_payloads(keys))
    for key, next_key in zip(keys, keys[1:]):
        _, forwarded = onion_peel(packet, key)
        assert forwarded.ephemeral not in packet.serialize()
        for other in (packet.ephemeral, NodeKey.generate(rng).pubkey):
            swapped = OnionPacket(forwarded.version, other, forwarded.blob, forwarded.tag)
            with pytest.raises(HmacFailure):
                onion_peel(swapped, next_key)
        packet = forwarded
