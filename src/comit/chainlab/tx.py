"""Transactions and their canonical serialization.

The transaction id is the SHA-256 of the witness-free serialization, and it
is also the digest signatures commit to. Keeping witnesses out of the digest
avoids the circularity of signing a structure that contains the signature,
and makes pre-signed commitment transactions stable while their witnesses
are attached later.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field

from .script import Script, Witness, script_bytes

MAX_AMOUNT = 2**64 - 1


@dataclass(frozen=True, slots=True)
class Outpoint:
    txid: bytes
    index: int

    def __post_init__(self) -> None:
        if len(self.txid) != 32:
            raise ValueError("txid must be 32 bytes")
        if self.index < 0:
            raise ValueError("index must be >= 0")

    def short(self) -> str:
        return f"{self.txid.hex()[:16]}:{self.index}"


@dataclass(frozen=True, slots=True)
class TxOut:
    amount: int
    script: Script

    def __post_init__(self) -> None:
        if not 0 <= self.amount <= MAX_AMOUNT:
            raise ValueError("amount out of range")


@dataclass(frozen=True, slots=True)
class TxIn:
    outpoint: Outpoint
    witness: Witness = field(default_factory=Witness)


@dataclass(frozen=True, slots=True)
class Transaction:
    inputs: tuple[TxIn, ...]
    outputs: tuple[TxOut, ...]
    locktime: int = 0

    def __post_init__(self) -> None:
        if not self.inputs:
            raise ValueError("transaction needs at least one input")
        if not self.outputs:
            raise ValueError("transaction needs at least one output")
        if self.locktime < 0:
            raise ValueError("locktime must be >= 0")


def serialize_without_witness(tx: Transaction) -> bytes:
    parts = [struct.pack("<I", len(tx.inputs))]
    for txin in tx.inputs:
        parts.append(txin.outpoint.txid)
        parts.append(struct.pack("<I", txin.outpoint.index))
    parts.append(struct.pack("<I", len(tx.outputs)))
    for txout in tx.outputs:
        sb = script_bytes(txout.script)
        parts.append(struct.pack("<QI", txout.amount, len(sb)))
        parts.append(sb)
    parts.append(struct.pack("<I", tx.locktime))
    return b"".join(parts)


def txid(tx: Transaction) -> bytes:
    """Witness-free transaction digest; doubles as the signing digest."""
    return hashlib.sha256(serialize_without_witness(tx)).digest()
