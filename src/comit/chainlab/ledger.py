"""Single-chain ledger: UTXO set, mempool, deterministic mining.

A ledger is its UTXO set and its mempool, with no log of spent outputs:
a confirmed spend leaves the UTXO set, so a second spend of it is refused
as `unknown-outpoint`, like an input that never existed (Bitcoin Core's
`bad-txns-inputs-missingorspent` covers both). `conflict` means only a
duplicate transaction or an input the mempool already spends.

The mempool holds only what the next block confirms. Submission validates
structure, input availability, value balance and witnesses, and admits a
transaction only if every input is a confirmed output whose script is
satisfied at height + 1. A spend that is only early is refused as
`premature`, as Bitcoin Core keeps BIP 68 sequence-locked transactions
out of its mempool; its owner submits it again once it has matured.
A spend's timing lives in its scripts alone.

Mining is deterministic: each block confirms the whole mempool in
submission order, and there are no reorgs. A block's summary holds its
height and the txid and burned fee of each transaction it confirmed, in
submission order. The difference between a transaction's inputs and
outputs is burned as fee, so for any chain

    sum(unspent outputs) + burned fees == sum(genesis allocations)

holds after every operation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Sequence

from .hashes import HashFnId
from .script import Outcome, PayToKey, Script, ScriptContext, evaluate
from .tx import MAX_AMOUNT, Outpoint, Transaction, txid


@dataclass(frozen=True, slots=True)
class ChainParams:
    chain_id: str
    asset_id: str
    hash_fns: frozenset[HashFnId]
    block_interval: int = 1
    tx_fee: int = 0

    def __post_init__(self) -> None:
        if not self.chain_id:
            raise ValueError("chain_id must be non-empty")
        if not self.asset_id:
            raise ValueError("asset_id must be non-empty")
        if not self.hash_fns:
            raise ValueError("hash_fns must be non-empty")
        if self.block_interval < 1:
            raise ValueError("block_interval must be >= 1")
        if self.tx_fee < 0:
            raise ValueError("tx_fee must be >= 0")


class Reject:
    MALFORMED = "malformed"
    UNKNOWN_OUTPOINT = "unknown-outpoint"
    CONFLICT = "conflict"
    VALUE_OVERFLOW = "value-overflow"
    FEE_TOO_LOW = "fee-too-low"
    INVALID_WITNESS = "invalid-witness"
    PREMATURE = "premature"


class TxRejected(Exception):
    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        super().__init__(f"{reason}: {detail}" if detail else reason)


@dataclass(frozen=True, slots=True)
class Utxo:
    amount: int
    script: Script
    confirmation_height: int


@dataclass(frozen=True, slots=True)
class BlockSummary:
    height: int
    txids: tuple[bytes, ...]
    fees: tuple[int, ...]  # what each of txids burned, in the same order


class Ledger:
    def __init__(self, params: ChainParams, genesis: Sequence[tuple[bytes, int]]):
        self.params = params
        self.height = 0
        self._utxos: dict[Outpoint, Utxo] = {}
        self._mempool: dict[bytes, tuple[Transaction, int]] = {}  # (tx, fee), submission order
        self._mempool_spends: set[Outpoint] = set()
        # PayToKey owner -> its unspent outpoints, in insertion order
        self._owned: dict[bytes, dict[Outpoint, None]] = {}
        self.burned = 0
        self.confirmed_tx_count = 0
        self._utxo_value = 0  # the UTXO set's total, kept by _add_utxo and _pop_utxo
        gen_txid = hashlib.sha256(b"genesis/" + params.chain_id.encode()).digest()
        for i, (owner, amount) in enumerate(genesis):
            if amount <= 0 or amount > MAX_AMOUNT:
                raise ValueError("genesis amount out of range")
            self._add_utxo(Outpoint(gen_txid, i), Utxo(amount, PayToKey(owner), 0))
        if self._utxo_value > MAX_AMOUNT:
            raise ValueError("genesis total out of range")
        self.genesis_total = self._utxo_value

    def _add_utxo(self, op: Outpoint, utxo: Utxo) -> None:
        self._utxos[op] = utxo
        self._utxo_value += utxo.amount
        if isinstance(utxo.script, PayToKey):
            self._owned.setdefault(utxo.script.pubkey, {})[op] = None

    def _pop_utxo(self, op: Outpoint) -> Utxo:
        utxo = self._utxos.pop(op)
        self._utxo_value -= utxo.amount
        if isinstance(utxo.script, PayToKey):
            del self._owned[utxo.script.pubkey][op]
        return utxo

    # --- queries -----------------------------------------------------------

    def utxo(self, outpoint: Outpoint) -> Optional[Utxo]:
        return self._utxos.get(outpoint)

    def is_unspent(self, outpoint: Outpoint) -> bool:
        return outpoint in self._utxos

    def is_spendable(self, outpoint: Outpoint) -> bool:
        """Confirmed, unspent and not claimed by a mempool transaction."""
        return outpoint in self._utxos and outpoint not in self._mempool_spends

    def total_utxo_value(self) -> int:
        return self._utxo_value

    def mempool_empty(self) -> bool:
        return not self._mempool

    def spendable_by(self, pubkey: bytes) -> list[tuple[Outpoint, int]]:
        """The spendable PayToKey outputs owned by pubkey, largest first."""
        found = [
            (op, self._utxos[op].amount)
            for op in self._owned.get(pubkey, ())
            if self.is_spendable(op)
        ]
        found.sort(key=lambda item: (-item[1], item[0].txid, item[0].index))
        return found

    # --- submission --------------------------------------------------------

    def submit_tx(self, tx: Transaction) -> bytes:
        """Admit `tx` to the mempool if the next block can confirm it."""
        tx_id = txid(tx)
        if tx_id in self._mempool:
            raise TxRejected(Reject.CONFLICT, "duplicate transaction")
        if len({txin.outpoint for txin in tx.inputs}) != len(tx.inputs):
            raise TxRejected(Reject.MALFORMED, "duplicate outpoint within tx")
        next_height = self.height + 1

        in_value = 0
        for txin in tx.inputs:
            op = txin.outpoint
            if op in self._mempool_spends:
                raise TxRejected(Reject.CONFLICT, f"{op.short()} spent by mempool")
            utxo = self._utxos.get(op)
            if utxo is None:
                raise TxRejected(Reject.UNKNOWN_OUTPOINT, op.short())
            in_value += utxo.amount
            ctx = ScriptContext(
                current_height=next_height,
                input_confirmation_height=utxo.confirmation_height,
                tx_digest=tx_id,
            )
            outcome = evaluate(utxo.script, txin.witness, ctx)
            if outcome is Outcome.INVALID:
                raise TxRejected(Reject.INVALID_WITNESS, op.short())
            if outcome is Outcome.PREMATURE:
                raise TxRejected(Reject.PREMATURE, op.short())

        out_value = sum(o.amount for o in tx.outputs)
        if out_value > in_value or in_value > MAX_AMOUNT:
            raise TxRejected(Reject.VALUE_OVERFLOW)
        fee = in_value - out_value
        if fee < self.params.tx_fee:
            raise TxRejected(Reject.FEE_TOO_LOW)

        self._mempool[tx_id] = (tx, fee)
        self._mempool_spends.update(txin.outpoint for txin in tx.inputs)
        return tx_id

    # --- mining ------------------------------------------------------------

    def advance_to(self, height: int) -> None:
        """Mine empty blocks up to `height` at once, as `mine_blocks` would
        one by one. Legal only while the mempool is empty, since the first
        block would confirm it."""
        if height < self.height:
            raise ValueError(f"height {height} is below the chain's {self.height}")
        if height > self.height and self._mempool:
            raise ValueError("advance_to needs an empty mempool")
        self.height = height

    def mine_blocks(self, count: int) -> list[BlockSummary]:
        """Mine `count` blocks; the first confirms the whole mempool."""
        if count < 0:
            raise ValueError("count must be >= 0")
        summaries = []
        for _ in range(count):
            self.height += 1
            for tx_id, (tx, fee) in self._mempool.items():
                for txin in tx.inputs:
                    self._pop_utxo(txin.outpoint)
                for i, txout in enumerate(tx.outputs):
                    self._add_utxo(Outpoint(tx_id, i), Utxo(txout.amount, txout.script, self.height))
                self.burned += fee
            summaries.append(BlockSummary(
                height=self.height,
                txids=tuple(self._mempool),
                fees=tuple(fee for _, fee in self._mempool.values()),
            ))
            self.confirmed_tx_count += len(self._mempool)
            self._mempool.clear()
            self._mempool_spends.clear()
        return summaries
