"""Simulated transaction signing.

Signatures here are HMAC-SHA256 tags over the witness-free transaction
digest. An HMAC is not publicly verifiable, so verification goes through a
process-wide keyring mapping each public identifier back to its MAC key,
registered when the keypair is created. That keeps the property the channel
protocols actually rely on: producing a signature requires holding the
KeyPair object, while any code can check one.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Optional

_KEY_TAG = b"comit/key/v1"

# pubkey -> mac secret, filled in by KeyPair construction. Pubkeys are
# content-derived so re-registration is idempotent.
_KEYRING: dict[bytes, bytes] = {}


def _derive_pubkey(secret: bytes) -> bytes:
    return hashlib.sha256(_KEY_TAG + secret).digest()


@dataclass(frozen=True, slots=True)
class KeyPair:
    secret: bytes
    pubkey: bytes

    def __post_init__(self) -> None:
        if len(self.secret) != 32:
            raise ValueError("key secret must be 32 bytes")
        if self.pubkey != _derive_pubkey(self.secret):
            raise ValueError("pubkey does not match secret")
        _KEYRING[self.pubkey] = self.secret

    @classmethod
    def from_secret(cls, secret: bytes) -> "KeyPair":
        return cls(secret=secret, pubkey=_derive_pubkey(secret))

    @classmethod
    def generate(cls, rng) -> "KeyPair":
        return cls.from_secret(rng.randbytes(32))

    def sign(self, digest: bytes) -> "Signature":
        mac = hmac.new(self.secret, digest, hashlib.sha256).digest()
        return Signature(pubkey=self.pubkey, mac=mac)


@dataclass(frozen=True, slots=True)
class Signature:
    pubkey: bytes
    mac: bytes


def verify_mac(pubkey: bytes, digest: bytes, mac: bytes) -> bool:
    secret: Optional[bytes] = _KEYRING.get(pubkey)
    if secret is None:
        return False
    want = hmac.new(secret, digest, hashlib.sha256).digest()
    return hmac.compare_digest(want, mac)
