"""Simulated UTXO blockchains with a closed script language.

Each Ledger is single-chain, fee-burning, and deterministic: transactions
confirm in submission order, there are no reorgs, and the mempool admits
only what the next block confirms, so a spend whose script time lock has
not matured is refused at submission. Mining returns one summary per
block: its height and the txid and fee of each transaction it confirmed.
"""

from .hashes import DIGEST_SIZE, HashFnId, UnknownHashFunction, hash_digest
from .keys import KeyPair, Signature
from .script import (
    HtlcScript,
    HashLock,
    Multisig2of2,
    Or,
    PayToKey,
    ScriptContext,
    TimeLockRel,
    Witness,
    script_bytes,
    verify_script,
)
from .tx import MAX_AMOUNT, Outpoint, Transaction, TxIn, TxOut, txid
from .ledger import BlockSummary, ChainParams, Ledger, Reject, TxRejected

__all__ = [
    "DIGEST_SIZE",
    "HashFnId",
    "UnknownHashFunction",
    "hash_digest",
    "KeyPair",
    "Signature",
    "PayToKey",
    "Multisig2of2",
    "HashLock",
    "TimeLockRel",
    "HtlcScript",
    "Or",
    "Witness",
    "ScriptContext",
    "verify_script",
    "script_bytes",
    "Outpoint",
    "TxOut",
    "TxIn",
    "Transaction",
    "txid",
    "MAX_AMOUNT",
    "ChainParams",
    "Ledger",
    "BlockSummary",
    "TxRejected",
    "Reject",
]
