"""Hash primitives shared by scripts, channels, and routing.

The set of hash functions is closed on purpose: hash-locked contracts on two
chains are only compatible if both chains can evaluate the same function, so
everything downstream reasons about membership in this enum rather than about
arbitrary callables. All functions produce 32-byte digests.
"""

from __future__ import annotations

import hashlib
from enum import Enum

DIGEST_SIZE = 32


class UnknownHashFunction(ValueError):
    """Raised for hash function names outside the supported set."""


class HashFnId(Enum):
    SHA256 = "SHA256"
    SHA3_256 = "SHA3_256"
    BLAKE2B_256 = "BLAKE2B_256"

    @classmethod
    def from_name(cls, name: str) -> "HashFnId":
        try:
            return cls(name)
        except ValueError:
            raise UnknownHashFunction(f"unknown hash function: {name!r}") from None


# Stable one-byte ids used in script and advert serialization.
WIRE_IDS = {
    HashFnId.SHA256: 1,
    HashFnId.SHA3_256: 2,
    HashFnId.BLAKE2B_256: 3,
}


def hash_digest(fn_id: HashFnId, data: bytes) -> bytes:
    """Digest `data` with the named function. Always 32 bytes."""
    if fn_id is HashFnId.SHA256:
        return hashlib.sha256(data).digest()
    if fn_id is HashFnId.SHA3_256:
        return hashlib.sha3_256(data).digest()
    if fn_id is HashFnId.BLAKE2B_256:
        return hashlib.blake2b(data, digest_size=DIGEST_SIZE).digest()
    raise UnknownHashFunction(f"unknown hash function: {fn_id!r}")
