"""Liquidity-provider gossip.

LPs advertise their channel endpoints and rate quotes in signed adverts;
everyone else relays them. Each node's store is a grow-only set holding
one advert per origin (a G-Set: Shapiro et al., INRIA RR-7506, 2011): the
first validly signed advert a node sees from an origin is the one it
keeps, and invalid signatures are dropped (and counted). An LP signs its
one advert once, so two valid adverts from one origin never compete and
no timestamp is needed to choose between them. On a connected topology
every origin reaches every node in at most diameter rounds.

`GossipState.exchange` is one push-pull round of anti-entropy between two
peers over whole stores (Demers et al., PODC 1987): this node pushes its
store into the peer's `gossip_step` and pulls the peer's store back, so
both end up holding the union. A store only grows, so its size changes
exactly when it learns something, and a driver reads `len(adverts)` to
see which nodes an exchange taught something.

The memo of store sizes is what ends flooding. Two peers that have just
exchanged hold nothing the other lacks: while neither store grows,
another exchange would change neither, so each state keeps, per peer, the
two store sizes of their last exchange, and `exchange` returns at once
while both still hold. An exchange that does run skips, by identity,
every advert the receiver already holds as that very object, so relaying
a store costs no signature check for what is already there; any other
copy is verified, and a forged one is counted.

The memo only matters while adverts still spread. Once every store holds
every advert, `forget_peers` releases it (the simulator's engine calls it
at convergence). An exchange after that is still correct: it sends each
store once, grows neither, and sets the memo for that peer again.
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
    signature: Signature  # node_pubkey's signature over signing_bytes
    # What the signature covers, built once per advert, so that the many
    # nodes verifying one advert object do not each rebuild it.
    signing_bytes: bytes = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        body = advert_signing_bytes(self.node_pubkey, self.endpoints, self.quotes)
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
) -> bytes:
    parts = [node_pubkey, struct.pack("<I", len(endpoints))]
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
) -> LpAdvert:
    body = advert_signing_bytes(node_key.pubkey, endpoints, quotes)
    return LpAdvert(
        node_pubkey=node_key.pubkey,
        endpoints=tuple(endpoints),
        quotes=tuple(quotes),
        signature=node_key.sign(body),
    )


def verify_advert(advert: LpAdvert) -> bool:
    return advert.signature.verifies(advert.node_pubkey, advert.signing_bytes)


class GossipState:
    """One node's grow-only advert store plus a per-peer memo of their last
    exchange."""

    __slots__ = ("own_pubkey", "adverts", "invalid_dropped", "_exchanged")

    def __init__(self, own_pubkey: bytes):
        self.own_pubkey = own_pubkey
        self.adverts: dict[bytes, LpAdvert] = {}
        self.invalid_dropped = 0
        # peer id -> (own store size, peer's store size) after their last exchange
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
        valid advert is installed only if its origin has none held yet."""
        installed = []
        for advert in incoming:
            have = self.adverts.get(advert.node_pubkey)
            if have is advert:
                continue
            if not verify_advert(advert):
                self.invalid_dropped += 1
            elif have is None:
                self.adverts[advert.node_pubkey] = advert
                installed.append(advert)
        return installed

    def exchange(self, peer: "GossipState") -> None:
        """Push this node's store to `peer` and pull the peer's back, so
        both stores end up holding the union. A no-op while neither store
        has grown since their last exchange."""
        if self._exchanged.get(peer.own_pubkey) == (len(self.adverts), len(peer.adverts)):
            return
        peer.gossip_step(self.adverts.values())
        self.gossip_step(peer.adverts.values())
        self._exchanged[peer.own_pubkey] = (len(self.adverts), len(peer.adverts))
        peer._exchanged[self.own_pubkey] = (len(peer.adverts), len(self.adverts))
