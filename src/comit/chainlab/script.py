"""Output scripts and their interpreter.

The script language is a closed set of spending predicates rather than a
stack machine:

  PayToKey(pubkey)                sig by pubkey
  Multisig2of2(a, b)              sig by a AND sig by b
  HashLock(fn, hash, claim)       preimage with fn(preimage)==hash AND sig
  TimeLockRel(delta, pubkey)      sig, spendable once the input's utxo has
                                  been confirmed for delta blocks
  HtlcScript(fn, hash, claim,     claim branch: preimage + claim sig, any
             refund, height)      height; refund branch: refund sig once
                                  chain height >= refund_height
  Or(a, b)                        the witness-selected branch verifies; Or
                                  may not nest inside Or

Evaluation is pure: it reads only the script, the witness, and an explicit
ScriptContext. Internally the interpreter distinguishes a witness that can
never verify (INVALID) from one that is only blocked by time (PREMATURE);
the ledger uses that to refuse an early refund or sweep as premature rather
than invalid. `verify_script` collapses both failures to False.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Optional, Union

from .hashes import DIGEST_SIZE, HashFnId, WIRE_IDS, hash_digest
from .keys import Signature


@dataclass(frozen=True, slots=True)
class PayToKey:
    pubkey: bytes


@dataclass(frozen=True, slots=True)
class Multisig2of2:
    pubkey_a: bytes
    pubkey_b: bytes

    def __post_init__(self) -> None:
        if self.pubkey_a == self.pubkey_b:
            raise ValueError("multisig pubkeys must be distinct")


@dataclass(frozen=True, slots=True)
class HashLock:
    hash_fn: HashFnId
    hash: bytes
    claim_pubkey: bytes

    def __post_init__(self) -> None:
        if len(self.hash) != DIGEST_SIZE:
            raise ValueError("hash must be 32 bytes")


@dataclass(frozen=True, slots=True)
class TimeLockRel:
    delta_blocks: int
    pubkey: bytes

    def __post_init__(self) -> None:
        if self.delta_blocks < 0:
            raise ValueError("delta_blocks must be >= 0")


@dataclass(frozen=True, slots=True)
class HtlcScript:
    hash_fn: HashFnId
    hash: bytes
    claim_pubkey: bytes
    refund_pubkey: bytes
    refund_height: int

    def __post_init__(self) -> None:
        if len(self.hash) != DIGEST_SIZE:
            raise ValueError("hash must be 32 bytes")
        if self.refund_height < 0:
            raise ValueError("refund_height must be >= 0")


@dataclass(frozen=True, slots=True)
class Or:
    branch_a: "Script"
    branch_b: "Script"

    def __post_init__(self) -> None:
        # Nesting is capped at Or-of-leaf; deeper trees have no consumer
        # and would complicate witness branch selection.
        if isinstance(self.branch_a, Or) or isinstance(self.branch_b, Or):
            raise ValueError("Or branches may not themselves be Or")


Script = Union[PayToKey, Multisig2of2, HashLock, TimeLockRel, HtlcScript, Or]


@dataclass(frozen=True, slots=True)
class Witness:
    """Spending data for one input.

    Preimages are matched to hash locks by content, signatures to pubkeys by
    the pubkey they carry, and a signature counts only if the KeyPair it
    carries made it for that pubkey; branch_selector picks the Or branch
    (0 or 1).
    """

    signatures: tuple[Signature, ...] = ()
    preimages: tuple[bytes, ...] = ()
    branch_selector: Optional[int] = None


@dataclass(frozen=True, slots=True)
class ScriptContext:
    """Chain state the interpreter may consult.

    input_confirmation_height is the height at which the spent output
    confirmed; the ledger spends only confirmed outputs.
    """

    current_height: int
    input_confirmation_height: int
    tx_digest: bytes


class Outcome(IntEnum):
    INVALID = 0
    PREMATURE = 1
    VALID = 2


def _sig_ok(witness: Witness, pubkey: bytes, digest: bytes) -> bool:
    for sig in witness.signatures:
        if sig.pubkey == pubkey and sig.verifies(pubkey, digest):
            return True
    return False


def _preimage_ok(witness: Witness, fn: HashFnId, hash_value: bytes) -> bool:
    return any(hash_digest(fn, p) == hash_value for p in witness.preimages)


def evaluate(script: Script, witness: Witness, ctx: ScriptContext) -> Outcome:
    if isinstance(script, PayToKey):
        ok = _sig_ok(witness, script.pubkey, ctx.tx_digest)
        return Outcome.VALID if ok else Outcome.INVALID

    if isinstance(script, Multisig2of2):
        ok = _sig_ok(witness, script.pubkey_a, ctx.tx_digest) and _sig_ok(
            witness, script.pubkey_b, ctx.tx_digest
        )
        return Outcome.VALID if ok else Outcome.INVALID

    if isinstance(script, HashLock):
        ok = _preimage_ok(witness, script.hash_fn, script.hash) and _sig_ok(
            witness, script.claim_pubkey, ctx.tx_digest
        )
        return Outcome.VALID if ok else Outcome.INVALID

    if isinstance(script, TimeLockRel):
        if not _sig_ok(witness, script.pubkey, ctx.tx_digest):
            return Outcome.INVALID
        if ctx.current_height >= ctx.input_confirmation_height + script.delta_blocks:
            return Outcome.VALID
        return Outcome.PREMATURE

    if isinstance(script, HtlcScript):
        claim = Outcome.INVALID
        if _preimage_ok(witness, script.hash_fn, script.hash) and _sig_ok(
            witness, script.claim_pubkey, ctx.tx_digest
        ):
            claim = Outcome.VALID
        refund = Outcome.INVALID
        if _sig_ok(witness, script.refund_pubkey, ctx.tx_digest):
            if ctx.current_height >= script.refund_height:
                refund = Outcome.VALID
            else:
                refund = Outcome.PREMATURE
        return max(claim, refund)

    if isinstance(script, Or):
        if witness.branch_selector == 0:
            return evaluate(script.branch_a, witness, ctx)
        if witness.branch_selector == 1:
            return evaluate(script.branch_b, witness, ctx)
        return Outcome.INVALID

    raise TypeError(f"not a script: {script!r}")


def verify_script(script: Script, witness: Witness, ctx: ScriptContext) -> bool:
    """True iff the witness satisfies the script at the given context."""
    return evaluate(script, witness, ctx) is Outcome.VALID


# --- serialization ---------------------------------------------------------
#
# Tagged little-endian layout, used inside transaction digests and anywhere
# a script identifies a channel state. One byte of tag, then fixed fields;
# Or length-prefixes each branch with a u32. Tag 4 is unused.

_TAG_P2K = 1
_TAG_MULTISIG = 2
_TAG_HASHLOCK = 3
_TAG_TIMEREL = 5
_TAG_HTLC = 6
_TAG_OR = 7


def script_bytes(script: Script) -> bytes:
    if isinstance(script, PayToKey):
        return struct.pack("<B", _TAG_P2K) + script.pubkey
    if isinstance(script, Multisig2of2):
        return struct.pack("<B", _TAG_MULTISIG) + script.pubkey_a + script.pubkey_b
    if isinstance(script, HashLock):
        return (
            struct.pack("<BB", _TAG_HASHLOCK, WIRE_IDS[script.hash_fn])
            + script.hash
            + script.claim_pubkey
        )
    if isinstance(script, TimeLockRel):
        return struct.pack("<BI", _TAG_TIMEREL, script.delta_blocks) + script.pubkey
    if isinstance(script, HtlcScript):
        return (
            struct.pack("<BB", _TAG_HTLC, WIRE_IDS[script.hash_fn])
            + script.hash
            + script.claim_pubkey
            + script.refund_pubkey
            + struct.pack("<I", script.refund_height)
        )
    if isinstance(script, Or):
        a = script_bytes(script.branch_a)
        b = script_bytes(script.branch_b)
        return (
            struct.pack("<B", _TAG_OR)
            + struct.pack("<I", len(a))
            + a
            + struct.pack("<I", len(b))
            + b
        )
    raise TypeError(f"not a script: {script!r}")
