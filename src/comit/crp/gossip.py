"""Liquidity-provider gossip.

LPs advertise their channel endpoints and rate quotes in signed adverts;
everyone else relays them. Merging is per-origin freshest-timestamp-wins,
and invalid signatures are dropped (and counted). On a connected topology
every origin reaches every node in at most diameter rounds.

`GossipState.exchange` is one push-pull round of anti-entropy between two
peers over whole stores (Demers et al., PODC 1987): this node pushes its
store into the peer's `gossip_step` and pulls the peer's store back, so
both end up holding the union at the freshest timestamps.
`GossipState.version` counts the adverts a node has installed: it rises
exactly when the store changes, on a fresher advert, and never on a stale,
duplicate or badly signed one, so a driver reads it to see which nodes an
exchange taught something.

The version memo is what ends flooding. Two peers that have just exchanged
hold nothing the other lacks: while neither version moves, another
exchange would change neither store, so each state keeps, per peer, the
two versions of their last exchange, and `exchange` returns at once while
both still hold. An exchange that does run skips, by identity, every
advert the receiver already holds as that very object, so relaying a
store costs no signature check for what is already there; any other
copy, a forged one at the held timestamp included, is verified and
counted.

The memo only matters while adverts still spread. Once every store holds
every advert, `forget_peers` releases it (the simulator's engine calls it
at convergence). An exchange after that is still correct: it sends each
store once, moves no version, and sets the memo for that peer again.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..chainlab.keys import Signature
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
    signature: Signature  # node_pubkey's signature over signing_bytes
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
    body = advert_signing_bytes(node_key.pubkey, endpoints, quotes, timestamp)
    return LpAdvert(
        node_pubkey=node_key.pubkey,
        endpoints=tuple(endpoints),
        quotes=tuple(quotes),
        timestamp=timestamp,
        signature=node_key.sign(body),
    )


def verify_advert(advert: LpAdvert) -> bool:
    return advert.signature.verifies(advert.node_pubkey, advert.signing_bytes)


class GossipState:
    """One node's advert store plus a per-peer memo of their last exchange."""

    __slots__ = ("own_pubkey", "adverts", "invalid_dropped", "version", "_exchanged")

    def __init__(self, own_pubkey: bytes):
        self.own_pubkey = own_pubkey
        self.adverts: dict[bytes, LpAdvert] = {}
        self.invalid_dropped = 0
        self.version = 0  # adverts installed so far
        # peer id -> (own version, peer's version) after their last exchange
        self._exchanged: dict[bytes, tuple[int, int]] = {}

    def insert_local(self, advert: LpAdvert) -> None:
        """Install this node's own (or bootstrap) advert without a peer."""
        self.gossip_step((advert,))

    def forget_peers(self) -> None:
        """Drop the memo of past exchanges, keeping the store."""
        self._exchanged.clear()

    def advert_set(self) -> list[LpAdvert]:
        return [self.adverts[k] for k in sorted(self.adverts)]

    def gossip_step(self, incoming: Iterable[LpAdvert]) -> list[LpAdvert]:
        """Merge `incoming`; return the adverts it installed.

        An advert that is the very object held for its origin is skipped.
        Any other is verified: a bad signature is dropped and counted, and a
        valid advert fresher than the held one replaces it."""
        installed = []
        for advert in incoming:
            have = self.adverts.get(advert.node_pubkey)
            if have is advert:
                continue
            if not verify_advert(advert):
                self.invalid_dropped += 1
            elif have is None or advert.timestamp > have.timestamp:
                self.adverts[advert.node_pubkey] = advert
                self.version += 1
                installed.append(advert)
        return installed

    def exchange(self, peer: "GossipState") -> None:
        """Push this node's store to `peer` and pull the peer's back, so
        both stores end up holding the union at the freshest timestamps.
        A no-op while neither version has moved since their last exchange."""
        if self._exchanged.get(peer.own_pubkey) == (self.version, peer.version):
            return
        peer.gossip_step(self.adverts.values())
        self.gossip_step(peer.adverts.values())
        self._exchanged[peer.own_pubkey] = (self.version, peer.version)
        peer._exchanged[self.own_pubkey] = (peer.version, self.version)
