"""Routing-node identity.

A node's identity is its X25519 public key (32 bytes): it both names the
node in gossip and routes and serves as the Diffie-Hellman key the onion
shares secrets against. Adverts are signed with the ledger's simulated
`Signature`: its tag is a keyed-BLAKE2b MAC keyed by the node's seed, and
it carries the NodeKey that made it, so `Signature.verifies` recomputes
the tag with that key once it has checked that the key's pubkey is the
advert's.
The pubkey is derived from the seed, so only a holder of that pubkey's
private key can sign for it. Two seeds that differ only in bits X25519
clamps away share a pubkey, and each still verifies its own adverts.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)

from ..chainlab.keys import Signature


@dataclass(frozen=True, slots=True)
class NodeKey:
    seed: bytes
    pubkey: bytes = field(init=False)
    _private: X25519PrivateKey = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.seed) != 32:
            raise ValueError("node seed must be 32 bytes")
        private = X25519PrivateKey.from_private_bytes(self.seed)
        object.__setattr__(self, "_private", private)
        object.__setattr__(self, "pubkey", private.public_key().public_bytes_raw())

    @classmethod
    def generate(cls, rng) -> "NodeKey":
        return cls(rng.randbytes(32))

    def exchange(self, peer_public: bytes) -> bytes:
        return self._private.exchange(X25519PublicKey.from_public_bytes(peer_public))

    def mac(self, data: bytes) -> bytes:
        return hashlib.blake2b(data, key=self.seed, digest_size=32).digest()

    def sign(self, data: bytes) -> Signature:
        return Signature(pubkey=self.pubkey, mac=self.mac(data), _signer=self)

