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
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Optional

from .script import Script, Witness, script_bytes

MAX_AMOUNT = 2**64 - 1


class Outpoint(namedtuple("Outpoint", ("txid", "index"))):
    """An output of a transaction, by txid and output index. A tuple, so
    the ledger's set and dict lookups hash and compare it in C."""

    __slots__ = ()

    def __new__(cls, txid: bytes, index: int) -> "Outpoint":
        if len(txid) != 32:
            raise ValueError("txid must be 32 bytes")
        if index < 0:
            raise ValueError("index must be >= 0")
        return super().__new__(cls, txid, index)

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
    # The txid, set by the first `txid` call. No caller can pass it, and
    # `dataclasses.replace` starts without it.
    _txid: Optional[bytes] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.inputs:
            raise ValueError("transaction needs at least one input")
        if not self.outputs:
            raise ValueError("transaction needs at least one output")


def serialize_without_witness(outpoints, outputs: tuple[TxOut, ...]) -> bytes:
    """The serialization of a transaction spending `outpoints` into
    `outputs`, without its witnesses."""
    parts = [struct.pack("<I", len(outpoints))]
    for outpoint in outpoints:
        parts.append(outpoint.txid)
        parts.append(struct.pack("<I", outpoint.index))
    parts.append(struct.pack("<I", len(outputs)))
    for txout in outputs:
        sb = script_bytes(txout.script)
        parts.append(struct.pack("<QI", txout.amount, len(sb)))
        parts.append(sb)
    return b"".join(parts)


def txid_of(outpoints, outputs: tuple[TxOut, ...]) -> bytes:
    """The txid of any transaction spending `outpoints` into `outputs`,
    whatever its witnesses: what its signatures sign."""
    return hashlib.sha256(serialize_without_witness(outpoints, outputs)).digest()


def txid(tx: Transaction) -> bytes:
    """Witness-free transaction digest; doubles as the signing digest.
    Computed once per transaction and kept on it."""
    if tx._txid is None:
        outpoints = [txin.outpoint for txin in tx.inputs]
        object.__setattr__(tx, "_txid", txid_of(outpoints, tx.outputs))
    return tx._txid
