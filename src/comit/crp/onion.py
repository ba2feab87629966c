"""Layered per-hop routing packets.

Every packet, at every hop, is exactly PACKET_SIZE bytes:

    version (1) | ephemeral X25519 pubkey (32) | blob (20*168) | hmac (32)

The blob holds 20 fixed slots of 168 bytes: a 136-byte hop payload plus
the 32-byte MAC the next hop must see. Peeling verifies the MAC over the
blob with the hop's shared secret, decrypts one slot off the front,
shifts the blob left, and re-blinds the ephemeral key, so consecutive
packets share no recognizable bytes and their length never changes. The
MAC chain means a single flipped bit anywhere in the packet is caught by
the next processor.

Hop payload layout (136 bytes, little-endian):

    next_node (32, zeros marks the terminal hop)
    chain_id  (1 length byte + 31, zero padded)
    asset     (1 length byte + 31, zero padded)
    amount_to_forward (u64)
    expiry_delta      (u32)
    quote echo: rate_num (u64) rate_den (u64) base_fee (u64) fee_ppm (u32)

Key agreement is X25519 with per-hop blinding b = SHA256(alpha || secret);
slot encryption is the ChaCha20 stream under HMAC(b"rho", secret), packet
authentication HMAC-SHA256 under HMAC(b"mu", secret).

Key schedule. Hop i sees the ephemeral alpha_i = k_i*G and shares the
secret s_i = k_i*P_i, with k_i = clamp(x) * clamp(b_0) * ... * clamp(b_{i-1})
for the session scalar x. The sender keeps that product as one running
scalar mod L, the order of the subgroup that G and every hop key P_i lie
in, instead of re-blinding every secret by every earlier factor. That is
exact: a clamped scalar is a multiple of 8, so X25519(c, P) depends only
on c mod L for those points, and since X25519 outputs only the
x-coordinate, -c gives the same bytes as c. `_as_key` turns k_i into a
32-byte key whose clamp is k_i or -k_i mod L; one key then yields alpha_i
as its public key and s_i by one exchange. About 2**-125 of residues have
no such key; a hop that meets one keeps the previous key and re-blinds by
the pending factors, as the schedule did before. An h-hop packet costs 2h
X25519 operations to create; a peel costs 3 when it forwards (the
exchange and the two of re-blinding the ephemeral) and 1 at the last hop.
"""

from __future__ import annotations

import hashlib
import hmac
import struct
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms

from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)

from .graph import Route, RouteTooLong, compute_hop_amounts
from .identity import NodeKey, _raw_public
from .quotes import RateQuote

MAX_HOPS = 20
PAYLOAD_SIZE = 136
SLOT_SIZE = PAYLOAD_SIZE + 32
BLOB_SIZE = MAX_HOPS * SLOT_SIZE
PACKET_SIZE = 1 + 32 + BLOB_SIZE + 32
VERSION = 0

_ZERO32 = b"\x00" * 32
_ID_CAP = 31


class OnionError(Exception):
    pass


class HmacFailure(OnionError):
    """Packet authentication failed: tampered or not addressed to this key."""


class InvalidPacket(OnionError):
    pass


class PayloadOverflow(OnionError):
    """A payload field does not fit its fixed slot."""


@dataclass(frozen=True)
class QuoteEcho:
    rate_num: int
    rate_den: int
    base_fee: int
    fee_ppm: int

    @classmethod
    def of(cls, quote: RateQuote) -> "QuoteEcho":
        return cls(quote.rate_num, quote.rate_den, quote.base_fee, quote.fee_ppm)

    def matches(self, quote: RateQuote) -> bool:
        return self == QuoteEcho.of(quote)


@dataclass(frozen=True)
class HopPayload:
    next_node: Optional[bytes]  # None on the terminal hop
    chain_id: str
    asset: str
    amount_to_forward: int
    expiry_delta: int
    echo: QuoteEcho


@dataclass(frozen=True)
class OnionPacket:
    version: int
    ephemeral: bytes
    blob: bytes
    tag: bytes

    def serialize(self) -> bytes:
        return struct.pack("<B", self.version) + self.ephemeral + self.blob + self.tag

    @classmethod
    def parse(cls, data: bytes) -> "OnionPacket":
        if len(data) != PACKET_SIZE:
            raise InvalidPacket(f"packet must be {PACKET_SIZE} bytes, got {len(data)}")
        return cls(
            version=data[0],
            ephemeral=data[1:33],
            blob=data[33 : 33 + BLOB_SIZE],
            tag=data[33 + BLOB_SIZE :],
        )


def _pack_id(value: str) -> bytes:
    raw = value.encode()
    if len(raw) > _ID_CAP:
        raise PayloadOverflow(f"identifier {value!r} exceeds {_ID_CAP} bytes")
    return struct.pack("<B", len(raw)) + raw + b"\x00" * (_ID_CAP - len(raw))


def _unpack_id(data: bytes) -> str:
    n = data[0]
    if n > _ID_CAP:
        raise InvalidPacket("corrupt identifier length")
    return data[1 : 1 + n].decode()


def encode_payload(p: HopPayload) -> bytes:
    nxt = p.next_node if p.next_node is not None else _ZERO32
    if len(nxt) != 32:
        raise PayloadOverflow("next_node must be 32 bytes")
    if not 0 <= p.amount_to_forward < 2**64:
        raise PayloadOverflow("amount_to_forward out of u64 range")
    if not 0 <= p.expiry_delta < 2**32:
        raise PayloadOverflow("expiry_delta out of u32 range")
    body = (
        nxt
        + _pack_id(p.chain_id)
        + _pack_id(p.asset)
        + struct.pack("<QI", p.amount_to_forward, p.expiry_delta)
        + struct.pack(
            "<QQQI", p.echo.rate_num, p.echo.rate_den, p.echo.base_fee, p.echo.fee_ppm
        )
    )
    assert len(body) == PAYLOAD_SIZE
    return body


def decode_payload(data: bytes) -> HopPayload:
    if len(data) != PAYLOAD_SIZE:
        raise InvalidPacket("bad payload size")
    nxt = data[0:32]
    chain_id = _unpack_id(data[32:64])
    asset = _unpack_id(data[64:96])
    amount, expiry = struct.unpack("<QI", data[96:108])
    num, den, base, ppm = struct.unpack("<QQQI", data[108:136])
    return HopPayload(
        next_node=None if nxt == _ZERO32 else nxt,
        chain_id=chain_id,
        asset=asset,
        amount_to_forward=amount,
        expiry_delta=expiry,
        echo=QuoteEcho(num, den, base, ppm),
    )


def payloads_for_route(route: Route, amount_out: int) -> list[HopPayload]:
    """Per-hop instructions: each node learns only its successor, what to
    forward, the expiry ladder step, and the quote it was priced at."""
    amounts = compute_hop_amounts(route, amount_out)
    hops = route.hops
    payloads = []
    for i, hop in enumerate(hops):
        if i + 1 < len(hops):
            nxt = hops[i + 1]
            payloads.append(
                HopPayload(
                    next_node=nxt.node,
                    chain_id=nxt.chain_id,
                    asset=nxt.asset,
                    amount_to_forward=amounts[i + 1][0],
                    expiry_delta=nxt.expiry_delta,
                    echo=QuoteEcho.of(hop.quote),
                )
            )
        else:
            payloads.append(
                HopPayload(
                    next_node=None,
                    chain_id=hop.chain_id,
                    asset=hop.asset,
                    amount_to_forward=amount_out,
                    expiry_delta=hop.expiry_delta,
                    echo=QuoteEcho.of(hop.quote),
                )
            )
    return payloads


# --- crypto ------------------------------------------------------------------


def _mul(scalar: bytes, point: bytes) -> bytes:
    """X25519 scalar multiplication via the key-exchange primitive."""
    return _exchange(X25519PrivateKey.from_private_bytes(scalar), point)


def _exchange(key: X25519PrivateKey, point: bytes) -> bytes:
    return key.exchange(X25519PublicKey.from_public_bytes(point))


def _kdf(kind: bytes, secret: bytes) -> bytes:
    return hmac.new(kind, secret, hashlib.sha256).digest()


def _stream(key: bytes, n: int) -> bytes:
    cipher = Cipher(algorithms.ChaCha20(key, b"\x00" * 16), mode=None)
    return cipher.encryptor().update(b"\x00" * n)


def _xor(a: bytes, b: bytes) -> bytes:
    assert len(a) == len(b), "xor of unequal lengths"
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


# The order of the subgroup generated by the X25519 base point.
_L = 2**252 + 27742317777372353535851937790883648493
_INV8 = pow(8, -1, _L)


def _clamp(key: bytes) -> int:
    """The scalar X25519 multiplies by for the 32-byte key `key`."""
    return int.from_bytes(key, "little") & (2**254 - 8) | 2**254


def _as_key(k: int) -> Optional[bytes]:
    """A 32-byte key whose clamp is k or -k mod L, or None when neither
    residue is 2**254 + 8m with m < 2**251 (about 2**-125 of them)."""
    for r in (k, _L - k):
        m = (r - 2**254) * _INV8 % _L
        if m < 2**251:
            return (2**254 + 8 * m).to_bytes(32, "little")
    return None


def _hop_secrets(
    session_key: bytes, hop_pubkeys: Sequence[bytes]
) -> tuple[list[bytes], list[bytes]]:
    """The ephemeral key each hop sees and the secret it shares, by the
    running scalar of the module's key schedule. No hop after the last
    needs an ephemeral, so a one-hop route computes no product."""
    key = X25519PrivateKey.from_private_bytes(session_key)
    alpha = _raw_public(key)
    k = _clamp(session_key)
    pending: list[bytes] = []  # blinds since the last k that had a key
    ephemerals, secrets = [], []
    for i, hop_pub in enumerate(hop_pubkeys):
        s = _exchange(key, hop_pub)
        for b in pending:
            s = _mul(b, s)
        ephemerals.append(alpha)
        secrets.append(s)
        if i + 1 == len(hop_pubkeys):
            break
        b = hashlib.sha256(alpha + s).digest()
        k = k * _clamp(b) % _L
        raw = _as_key(k)
        if raw is None:
            pending.append(b)
            alpha = _mul(b, alpha)
        else:
            pending = []
            key = X25519PrivateKey.from_private_bytes(raw)
            alpha = _raw_public(key)
    return ephemerals, secrets


def onion_create(
    route: Union[Route, Sequence[bytes]],
    session_rng,
    payloads: Sequence[HopPayload],
) -> OnionPacket:
    """Wrap per-hop payloads for the route's receiving nodes.

    Every hop key must be an X25519 public key, as every NodeKey.pubkey
    is: the key schedule relies on it lying in the order-L subgroup."""
    if isinstance(route, Route):
        hop_pubkeys = [h.node for h in route.hops]
    else:
        hop_pubkeys = list(route)
    count = len(hop_pubkeys)
    if count == 0:
        raise ValueError("route must have at least one hop")
    if count > MAX_HOPS:
        raise RouteTooLong(f"{count} hops > {MAX_HOPS}")
    if len(payloads) != count:
        raise ValueError("one payload per hop required")

    session_key = session_rng.randbytes(32)
    ephemerals, secrets = _hop_secrets(session_key, hop_pubkeys)
    # Each hop but the last peels BLOB_SIZE + SLOT_SIZE bytes of its stream.
    streams = [
        _stream(_kdf(b"rho", s), BLOB_SIZE + SLOT_SIZE if i + 1 < count else BLOB_SIZE)
        for i, s in enumerate(secrets)
    ]

    # Filler: the garbage that peeling shifts into the tail at each hop,
    # precomputed so the final hop's MAC still verifies.
    filler = b""
    for stream in streams[:-1]:
        filler += b"\x00" * SLOT_SIZE
        filler = _xor(filler, stream[-len(filler):])

    blob = _stream(_kdf(b"pad", session_key), BLOB_SIZE)
    tag = _ZERO32  # terminal marker: the last hop sees an all-zero next MAC
    for i in reversed(range(count)):
        slot = encode_payload(payloads[i]) + tag
        shifted = slot + blob[: BLOB_SIZE - SLOT_SIZE]
        blob = _xor(shifted, streams[i][:BLOB_SIZE])
        if i == count - 1 and filler:
            blob = blob[: BLOB_SIZE - len(filler)] + filler
        tag = hmac.new(_kdf(b"mu", secrets[i]), blob, hashlib.sha256).digest()

    return OnionPacket(version=VERSION, ephemeral=ephemerals[0], blob=blob, tag=tag)


def onion_peel(
    packet: Union[OnionPacket, bytes], node_key: NodeKey
) -> tuple[HopPayload, Optional[OnionPacket]]:
    """One hop's processing: authenticate, decrypt own slot, re-wrap.

    Returns (payload, next_packet); next_packet is None on the terminal
    hop. Raises HmacFailure on any tamper or misdelivery.
    """
    if isinstance(packet, (bytes, bytearray)):
        packet = OnionPacket.parse(bytes(packet))
    if packet.version != VERSION:
        raise InvalidPacket(f"unknown version {packet.version}")
    if len(packet.ephemeral) != 32 or len(packet.blob) != BLOB_SIZE:
        raise InvalidPacket("malformed packet")
    try:
        secret = node_key.exchange(packet.ephemeral)
    except ValueError as e:
        raise InvalidPacket(str(e)) from None
    want = hmac.new(_kdf(b"mu", secret), packet.blob, hashlib.sha256).digest()
    if not hmac.compare_digest(want, packet.tag):
        raise HmacFailure("packet authentication failed")
    stream = _stream(_kdf(b"rho", secret), BLOB_SIZE + SLOT_SIZE)
    clear = _xor(packet.blob + b"\x00" * SLOT_SIZE, stream)
    payload = decode_payload(clear[:PAYLOAD_SIZE])
    next_tag = clear[PAYLOAD_SIZE:SLOT_SIZE]
    if next_tag == _ZERO32:
        return payload, None
    blind = hashlib.sha256(packet.ephemeral + secret).digest()
    next_packet = OnionPacket(
        version=VERSION,
        ephemeral=_mul(blind, packet.ephemeral),
        blob=clear[SLOT_SIZE:],
        tag=next_tag,
    )
    return payload, next_packet
