"""Simulated transaction signing.

Signatures here are keyed-BLAKE2b tags (BLAKE2's MAC mode, RFC 7693) over
the witness-free transaction digest, keyed by the signer's secret. A MAC is
not publicly verifiable, so each Signature privately carries the key that
made it (a KeyPair, or a routing node's NodeKey, a KeyPair subclass with
an X25519 pubkey), and verification recomputes the tag with that key's
`mac` after checking that its pubkey is the one the script names. A KeyPair
derives its pubkey from its secret when it is built, so a signature for a
pubkey can only come from someone holding that pubkey's secret. That keeps
the property the channel protocols actually rely on: producing a signature
requires holding the KeyPair object, while any code can check one. No key
state outlives the objects that hold it.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass, field
from typing import Any

_KEY_TAG = b"comit/key/v1"


@dataclass(frozen=True, slots=True)
class KeyPair:
    secret: bytes = field(repr=False)  # kept out of reprs, as is a NodeKey's
    pubkey: bytes = field(init=False)

    def __post_init__(self) -> None:
        if len(self.secret) != 32:
            raise ValueError("key secret must be 32 bytes")
        object.__setattr__(self, "pubkey", hashlib.sha256(_KEY_TAG + self.secret).digest())

    @classmethod
    def generate(cls, rng) -> "KeyPair":
        return cls(rng.randbytes(32))

    def mac(self, data: bytes) -> bytes:
        return hashlib.blake2b(data, key=self.secret, digest_size=32).digest()

    def sign(self, digest: bytes) -> "Signature":
        return Signature(pubkey=self.pubkey, mac=self.mac(digest), _signer=self)


@dataclass(frozen=True, slots=True)
class Signature:
    pubkey: bytes
    mac: bytes
    _signer: Any = field(compare=False, repr=False)  # the KeyPair or NodeKey that made `mac`

    def verifies(self, pubkey: bytes, digest: bytes) -> bool:
        """True iff this is `pubkey`'s signature over `digest`."""
        signer = self._signer
        if not self.pubkey == signer.pubkey == pubkey:
            return False
        return hmac.compare_digest(signer.mac(digest), self.mac)
