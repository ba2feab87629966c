"""Layered per-hop routing packets.

Every packet, at every hop, is exactly PACKET_SIZE bytes:

    version (1) | ephemeral X25519 pubkey (32) | blob (20*200) | hmac (32)

The blob holds 20 fixed slots of 200 bytes: a 136-byte hop payload, the
32-byte ephemeral public key the next hop will see, and the 32-byte MAC
the next hop must see. Peeling verifies the MAC over the blob with the
hop's shared secret, decrypts one slot off the front, shifts the blob
left, and takes the next ephemeral key from the decrypted slot, so
consecutive packets share no recognizable bytes and their length never
changes. The MAC chain means a single flipped bit anywhere in the packet,
or an ephemeral key swapped for any other, is caught by the next
processor. `onion_create` takes hop keys and secrets, `onion_peel` a packet.

Hop payload layout (136 bytes, little-endian):

    next_node (32, zeros marks the terminal hop)
    chain_id  (1 length byte + 31, zero padded)
    asset     (1 length byte + 31, zero padded)
    amount_to_forward (u64)
    expiry_delta      (u32)
    quote echo: rate_num (u64) rate_den (u64) base_fee (u64) fee_ppm (u32)

Key agreement is X25519 with a fresh ephemeral key per hop: the caller
passes hop i's 32-byte private key k_i, in route order (the engine derives
each from its own label), and hop i shares the secret s_i = X25519(k_i, P_i)
with it. Hop i's slot seals alpha_{i+1}, the next hop's ephemeral public
key; the terminal slot holds zeros there and in its next MAC. Unlike
Sphinx, no hop re-blinds the ephemeral: a slot spends 32 bytes on it, which
a fixed 20-slot packet can afford. Each shared secret is keyed by one
personalised BLAKE2b-512 call (RFC 7693), whose first 32 bytes are the
slot's ChaCha20 key and last 32 the HMAC-SHA256 key that authenticates the
blob; the blob's initial padding is the stream under the BLAKE2b-256 of
k_0, under a personalisation of its own. BLAKE2b only derives 32-byte keys:
the MAC over the 4,000-byte blob stays HMAC-SHA256.

Cost. An h-hop create makes 2h X25519 operations: per hop one
`from_private_bytes`, which derives alpha_i, and one exchange. A peel
makes 1, the hop's exchange, whether it forwards or not. A create makes
h + 1 BLAKE2b key derivations (one per hop and the pad's) and a peel 1.
Every keystream is applied inside its ChaCha20 context, as encryption
(`_crypt`): a peel makes 1 context, and a create makes 2h, one for the
pad, one per hop to wrap its layer and one per hop but the last for its
share of the filler. A create computes h HMACs and a peel 1. No blob is
ever converted to an int.
"""

from __future__ import annotations

import hashlib
import hmac
import struct
from dataclasses import dataclass
from typing import Optional, Sequence

from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers import Cipher
from cryptography.hazmat.primitives.ciphers.algorithms import ChaCha20

from .graph import MAX_ROUTE_HOPS, RouteTooLong
from .identity import NodeKey
from .quotes import RateQuote

ID_CAP = 31  # bytes of a chain or asset id in a payload
# next_node, chain_id and asset (each a length byte and ID_CAP bytes),
# amount_to_forward, expiry_delta, and the quote echo.
_PAYLOAD = struct.Struct(f"<32sB{ID_CAP}sB{ID_CAP}sQIQQQI")
PAYLOAD_SIZE = _PAYLOAD.size  # 136
SLOT_SIZE = PAYLOAD_SIZE + 32 + 32  # payload, next ephemeral, next MAC
BLOB_SIZE = MAX_ROUTE_HOPS * SLOT_SIZE
PACKET_SIZE = 1 + 32 + BLOB_SIZE + 32
VERSION = 0

_ZERO32 = b"\x00" * 32
_ZERO_SLOT = b"\x00" * SLOT_SIZE
_NONCE = b"\x00" * 16  # counter 0, nonce 0: each key names one stream
# BLAKE2b personalisations: a shared secret's stream and MAC keys, the pad key
_KEYS = b"comit/onion/keys"
_PAD = b"comit/onion/pad"


class OnionError(Exception):
    pass


class HmacFailure(OnionError):
    """Packet authentication failed: tampered or not addressed to this key."""


class InvalidPacket(OnionError):
    pass


class PayloadOverflow(OnionError):
    """A payload field does not fit its fixed slot."""


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class HopPayload:
    next_node: Optional[bytes]  # None on the terminal hop
    chain_id: str
    asset: str
    amount_to_forward: int
    expiry_delta: int
    echo: QuoteEcho


@dataclass(frozen=True, slots=True)
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


def encode_payload(p: HopPayload) -> bytes:
    nxt = p.next_node if p.next_node is not None else _ZERO32
    if len(nxt) != 32:
        raise PayloadOverflow("next_node must be 32 bytes")
    chain_id, asset, echo = p.chain_id.encode(), p.asset.encode(), p.echo
    if len(chain_id) > ID_CAP or len(asset) > ID_CAP:
        raise PayloadOverflow(f"chain or asset id exceeds {ID_CAP} bytes")
    try:
        return _PAYLOAD.pack(
            nxt, len(chain_id), chain_id, len(asset), asset,
            p.amount_to_forward, p.expiry_delta,
            echo.rate_num, echo.rate_den, echo.base_fee, echo.fee_ppm,
        )
    except struct.error as e:
        raise PayloadOverflow(f"payload field out of range: {e}") from None


def decode_payload(data: bytes) -> HopPayload:
    if len(data) != PAYLOAD_SIZE:
        raise InvalidPacket("bad payload size")
    nxt, nc, chain_id, na, asset, amount, expiry, num, den, base, ppm = (
        _PAYLOAD.unpack(data)
    )
    if nc > ID_CAP or na > ID_CAP:
        raise InvalidPacket("corrupt identifier length")
    try:
        chain_id, asset = chain_id[:nc].decode(), asset[:na].decode()
    except UnicodeDecodeError:
        raise InvalidPacket("identifier is not UTF-8") from None
    return HopPayload(
        next_node=None if nxt == _ZERO32 else nxt,
        chain_id=chain_id,
        asset=asset,
        amount_to_forward=amount,
        expiry_delta=expiry,
        echo=QuoteEcho(num, den, base, ppm),
    )


# --- crypto ------------------------------------------------------------------


def _exchange(key: X25519PrivateKey, point: bytes) -> bytes:
    return key.exchange(X25519PublicKey.from_public_bytes(point))


def _derive(secret: bytes, person: bytes, size: int) -> bytes:
    """The `size`-byte BLAKE2b of `secret` under personalisation `person`."""
    return hashlib.blake2b(secret, digest_size=size, person=person).digest()


def _keys(secret: bytes) -> tuple[bytes, bytes]:
    """A shared secret's (ChaCha20 key, HMAC key), from one BLAKE2b-512."""
    keys = _derive(secret, _KEYS, 64)
    return keys[:32], keys[32:]


def _mac(key: bytes, blob: bytes) -> bytes:
    return hmac.digest(key, blob, "sha256")


def _crypt(key: bytes, data: bytes) -> bytes:
    """`data` XOR the ChaCha20 keystream of `key`, in one cipher context."""
    return Cipher(ChaCha20(key, _NONCE), None).encryptor().update(data)


def onion_create(hop_pubkeys: Sequence[bytes], hop_secrets: Sequence[bytes],
                 payloads: Sequence[HopPayload]) -> OnionPacket:
    """Wrap per-hop payloads for the hop keys, in route order (`Route.nodes()`).

    `hop_secrets[i]` is hop i's 32-byte ephemeral private key (X25519
    refuses any other length); each must be fresh and kept secret, as
    whoever knows one can peel that hop's layer."""
    count = len(hop_pubkeys)
    if count == 0:
        raise ValueError("route must have at least one hop")
    if count > MAX_ROUTE_HOPS:
        raise RouteTooLong(f"{count} hops > {MAX_ROUTE_HOPS}")
    if len(payloads) != count:
        raise ValueError("one payload per hop required")
    if len(hop_secrets) != count:
        raise ValueError("one secret per hop required")

    ephemerals, keys = [], []
    for raw, hop_pub in zip(hop_secrets, hop_pubkeys):
        key = X25519PrivateKey.from_private_bytes(raw)
        ephemerals.append(key.public_key().public_bytes_raw())
        keys.append(_keys(_exchange(key, hop_pub)))

    # Filler: the garbage that peeling shifts into the tail at each hop,
    # precomputed so the final hop's MAC still verifies. A hop's peel
    # crypts BLOB_SIZE + SLOT_SIZE bytes; the filler meets the end of it.
    filler = b""
    for rho, _ in keys[:-1]:
        skip = BLOB_SIZE - len(filler)
        filler = _crypt(rho, bytes(skip) + filler + _ZERO_SLOT)[skip:]

    blob = _crypt(_derive(hop_secrets[0], _PAD, 32), bytes(BLOB_SIZE))
    # Terminal marker: the last hop sees an all-zero next ephemeral and MAC.
    alpha, tag = _ZERO32, _ZERO32
    for i in reversed(range(count)):
        rho, mu = keys[i]
        slot = encode_payload(payloads[i]) + alpha + tag
        blob = _crypt(rho, slot + blob[: BLOB_SIZE - SLOT_SIZE])
        if i == count - 1 and filler:
            blob = blob[: BLOB_SIZE - len(filler)] + filler
        alpha = ephemerals[i]
        tag = _mac(mu, blob)

    return OnionPacket(version=VERSION, ephemeral=alpha, blob=blob, tag=tag)


def onion_peel(packet: OnionPacket, node_key: NodeKey) -> tuple[HopPayload, Optional[OnionPacket]]:
    """One hop's processing: authenticate, decrypt own slot, re-wrap.

    Returns (payload, next_packet); next_packet is None on the terminal
    hop. Raises HmacFailure on any tamper or misdelivery. Wire bytes go
    through `OnionPacket.parse` first.
    """
    if packet.version != VERSION:
        raise InvalidPacket(f"unknown version {packet.version}")
    if len(packet.ephemeral) != 32 or len(packet.blob) != BLOB_SIZE:
        raise InvalidPacket("malformed packet")
    try:
        secret = node_key.exchange(packet.ephemeral)
    except ValueError as e:
        raise InvalidPacket(str(e)) from None
    rho, mu = _keys(secret)
    if not hmac.compare_digest(_mac(mu, packet.blob), packet.tag):
        raise HmacFailure("packet authentication failed")
    clear = _crypt(rho, packet.blob + _ZERO_SLOT)
    payload = decode_payload(clear[:PAYLOAD_SIZE])
    next_tag = clear[SLOT_SIZE - 32 : SLOT_SIZE]
    if next_tag == _ZERO32:
        return payload, None
    next_packet = OnionPacket(
        version=VERSION,
        ephemeral=clear[PAYLOAD_SIZE : SLOT_SIZE - 32],
        blob=clear[SLOT_SIZE:],
        tag=next_tag,
    )
    return payload, next_packet
