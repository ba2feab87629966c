"""Routing-node identity.

A node's identity is its X25519 public key (32 bytes): it both names the
node in gossip and routes and serves as the Diffie-Hellman key the onion
shares secrets against. A NodeKey is a ledger `KeyPair` whose pubkey is
X25519's instead of the ledger's hash, so adverts are signed with the
ledger's simulated `Signature`: its tag is the KeyPair's keyed-BLAKE2b MAC
keyed by the node's secret, and it carries the NodeKey that made it, so
`Signature.verifies` recomputes the tag with that key once it has checked
that the key's pubkey is the advert's.
The pubkey is derived from the secret, so only a holder of that pubkey's
private key can sign for it. Two secrets that differ only in bits X25519
clamps away share a pubkey, and each still verifies its own adverts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)

from ..chainlab.keys import KeyPair


@dataclass(frozen=True, slots=True)
class NodeKey(KeyPair):
    _private: X25519PrivateKey = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.secret) != 32:
            raise ValueError("node seed must be 32 bytes")
        private = X25519PrivateKey.from_private_bytes(self.secret)
        object.__setattr__(self, "_private", private)
        object.__setattr__(self, "pubkey", private.public_key().public_bytes_raw())

    def exchange(self, peer_public: bytes) -> bytes:
        return self._private.exchange(X25519PublicKey.from_public_bytes(peer_public))
