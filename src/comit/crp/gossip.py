"""Liquidity-provider gossip.

LPs advertise their channel endpoints and rate quotes in signed adverts;
everyone else relays them. Merging is per-origin freshest-timestamp-wins,
invalid signatures are dropped (and counted), and each node remembers what
every peer has already seen so deltas stay small and flooding terminates.
On a connected topology every origin reaches every node in at most
diameter rounds.

`GossipState.exchange` is one push-pull round of anti-entropy between two
peers (Demers et al., PODC 1987): afterwards both hold the union of their
stores at the freshest timestamps. `GossipState.version` counts the adverts
a node has installed: it rises exactly when the store changes, on a fresher
advert, and never on a stale, duplicate or badly signed one, so a driver
reads it to see which nodes an exchange taught something. Two peers that
have just exchanged hold nothing the other lacks: while neither version
moves, another exchange would send nothing and change neither store, so
each state keeps, per peer, the two versions of their last exchange, and
`exchange` returns at once while both still hold.
"""

from __future__ import annotations

import hmac
import struct
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from .identity import NodeKey
from .quotes import RateQuote


@dataclass(frozen=True, slots=True)
class ChannelEndpoint:
    chain_id: str
    peer: bytes  # node pubkey of the other side
    capacity: int  # hint, not a promise

    def __post_init__(self) -> None:
        if len(self.peer) != 32:
            raise ValueError("peer pubkey must be 32 bytes")
        if self.capacity < 0:
            raise ValueError("capacity must be >= 0")


@dataclass(frozen=True, slots=True)
class LpAdvert:
    node_pubkey: bytes
    endpoints: tuple[ChannelEndpoint, ...]
    quotes: tuple[RateQuote, ...]
    timestamp: int
    signature: bytes  # the signer's MAC over signing_bytes
    # The key that made `signature`; verify_advert recomputes the MAC with
    # it once its pubkey is node_pubkey.
    _signer: NodeKey = field(compare=False, repr=False)
    # What the signature covers, built once per advert, so that the many
    # nodes verifying one advert object do not each rebuild it.
    signing_bytes: bytes = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        body = advert_signing_bytes(self.node_pubkey, self.endpoints, self.quotes, self.timestamp)
        object.__setattr__(self, "signing_bytes", body)


def _short_str(s: str) -> bytes:
    raw = s.encode()
    if len(raw) > 255:
        raise ValueError("identifier too long")
    return struct.pack("<B", len(raw)) + raw


def advert_signing_bytes(
    node_pubkey: bytes,
    endpoints: Sequence[ChannelEndpoint],
    quotes: Sequence[RateQuote],
    timestamp: int,
) -> bytes:
    parts = [node_pubkey, struct.pack("<Q", timestamp), struct.pack("<I", len(endpoints))]
    for ep in endpoints:
        parts.append(_short_str(ep.chain_id))
        parts.append(ep.peer)
        parts.append(struct.pack("<Q", ep.capacity))
    parts.append(struct.pack("<I", len(quotes)))
    for q in quotes:
        parts.append(_short_str(q.asset_in))
        parts.append(_short_str(q.asset_out))
        parts.append(struct.pack("<QQQI", q.rate_num, q.rate_den, q.base_fee, q.fee_ppm))
    return b"".join(parts)


def make_advert(
    node_key: NodeKey,
    endpoints: Sequence[ChannelEndpoint],
    quotes: Sequence[RateQuote],
    timestamp: int,
) -> LpAdvert:
    unsigned = LpAdvert(
        node_pubkey=node_key.pubkey,
        endpoints=tuple(endpoints),
        quotes=tuple(quotes),
        timestamp=timestamp,
        signature=b"",
        _signer=node_key,
    )
    return replace(unsigned, signature=node_key.sign(unsigned.signing_bytes))


def verify_advert(advert: LpAdvert) -> bool:
    signer = advert._signer
    return signer.pubkey == advert.node_pubkey and hmac.compare_digest(
        signer.sign(advert.signing_bytes), advert.signature
    )


class GossipState:
    """One node's advert store plus per-peer bookkeeping."""

    __slots__ = ("own_pubkey", "adverts", "invalid_dropped", "version", "_peer_known", "_exchanged")

    def __init__(self, own_pubkey: bytes):
        self.own_pubkey = own_pubkey
        self.adverts: dict[bytes, LpAdvert] = {}
        self.invalid_dropped = 0
        self.version = 0  # adverts installed so far
        # peer id -> origin -> newest timestamp the peer is known to hold
        self._peer_known: dict[bytes, dict[bytes, int]] = {}
        # peer id -> (own version, peer's version) after their last exchange
        self._exchanged: dict[bytes, tuple[int, int]] = {}

    def insert_local(self, advert: LpAdvert) -> None:
        """Install this node's own (or bootstrap) advert without a peer."""
        if not verify_advert(advert):
            self.invalid_dropped += 1
            return
        self._merge(advert)

    def _merge(self, advert: LpAdvert) -> None:
        have = self.adverts.get(advert.node_pubkey)
        if have is None or advert.timestamp > have.timestamp:
            self.adverts[advert.node_pubkey] = advert
            self.version += 1

    def advert_set(self) -> list[LpAdvert]:
        return [self.adverts[k] for k in sorted(self.adverts)]

    def gossip_step(
        self, peer_id: bytes, incoming: Sequence[LpAdvert]
    ) -> list[LpAdvert]:
        """Merge `incoming` from peer_id; return the delta to send back.

        The delta contains every held advert the peer is not yet known to
        have at its freshest timestamp, and the bookkeeping then assumes
        delivery (re-sends only happen on genuinely fresher data).
        """
        known = self._peer_known.setdefault(peer_id, {})
        for advert in incoming:
            if not verify_advert(advert):
                self.invalid_dropped += 1
                continue
            self._merge(advert)
            if advert.timestamp > known.get(advert.node_pubkey, -1):
                known[advert.node_pubkey] = advert.timestamp
        delta = [
            advert
            for origin, advert in sorted(self.adverts.items())
            if known.get(origin, -1) < advert.timestamp
        ]
        for advert in delta:
            known[advert.node_pubkey] = advert.timestamp
        return delta

    def exchange(self, peer: "GossipState") -> None:
        """Push this node's news to `peer` and pull the peer's back, so
        both stores end up holding the union at the freshest timestamps.
        A no-op while neither version has moved since their last exchange."""
        if self._exchanged.get(peer.own_pubkey) == (self.version, peer.version):
            return
        back = peer.gossip_step(self.own_pubkey, self.gossip_step(peer.own_pubkey, []))
        if back:
            self.gossip_step(peer.own_pubkey, back)
        self._exchanged[peer.own_pubkey] = (self.version, peer.version)
        peer._exchanged[self.own_pubkey] = (peer.version, self.version)
