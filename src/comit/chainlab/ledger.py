"""Single-chain ledger: UTXO set, mempool, deterministic mining.

Submission validates structure, input availability, value balance, and
witnesses; time conditions are deliberately not checked here. A transaction
whose only obstacle is a locktime or an unconfirmed parent waits in the
mempool and confirms in the first block where every condition holds, which
is what lets refund and sweep transactions be broadcast ahead of maturity.

Mining is deterministic: one block per call step, candidates considered in
submission order, no reorgs ever. The difference between a transaction's
inputs and outputs is burned as fee, so for any chain

    sum(unspent outputs) + burned fees == sum(genesis allocations)

holds after every operation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Sequence

from .hashes import HashFnId
from .script import Outcome, PayToKey, Script, ScriptContext, evaluate
from .tx import MAX_AMOUNT, Outpoint, Transaction, TxOut, txid


@dataclass(frozen=True)
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


class TxRejected(Exception):
    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        super().__init__(f"{reason}: {detail}" if detail else reason)


@dataclass(frozen=True)
class Utxo:
    amount: int
    script: Script
    confirmation_height: int


@dataclass(frozen=True)
class BlockSummary:
    height: int
    txids: tuple[bytes, ...]
    spent: tuple[tuple[Outpoint, bytes], ...]  # (outpoint, spender txid)


class Ledger:
    def __init__(self, params: ChainParams, genesis: Sequence[tuple[bytes, int]]):
        self.params = params
        self.height = 0
        self._utxos: dict[Outpoint, Utxo] = {}
        self._mempool: dict[bytes, Transaction] = {}  # submission order
        self._mempool_spends: dict[Outpoint, bytes] = {}
        self._mempool_outputs: dict[Outpoint, TxOut] = {}
        self._spent: dict[Outpoint, bytes] = {}  # confirmed spends
        # PayToKey owner -> its unspent outpoints, in insertion order
        self._owned: dict[bytes, dict[Outpoint, None]] = {}
        self.burned = 0
        self.confirmed_tx_count = 0
        gen_txid = hashlib.sha256(b"genesis/" + params.chain_id.encode()).digest()
        total = 0
        for i, (owner, amount) in enumerate(genesis):
            if amount <= 0 or amount > MAX_AMOUNT:
                raise ValueError("genesis amount out of range")
            self._add_utxo(Outpoint(gen_txid, i), Utxo(amount, PayToKey(owner), 0))
            total += amount
        if total > MAX_AMOUNT:
            raise ValueError("genesis total out of range")
        self.genesis_total = total
        self._utxo_value = total

    def _add_utxo(self, op: Outpoint, utxo: Utxo) -> None:
        self._utxos[op] = utxo
        if isinstance(utxo.script, PayToKey):
            self._owned.setdefault(utxo.script.pubkey, {})[op] = None

    def _pop_utxo(self, op: Outpoint) -> Utxo:
        utxo = self._utxos.pop(op)
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

    def spender_of(self, outpoint: Outpoint) -> Optional[bytes]:
        """Txid of the confirmed transaction that consumed the outpoint."""
        return self._spent.get(outpoint)

    def total_utxo_value(self) -> int:
        return self._utxo_value

    def in_mempool(self, tx_id: bytes) -> bool:
        return tx_id in self._mempool

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
        tx_id = txid(tx)
        if self.in_mempool(tx_id):
            raise TxRejected(Reject.CONFLICT, "duplicate transaction")
        seen: set[Outpoint] = set()
        for txin in tx.inputs:
            if txin.outpoint in seen:
                raise TxRejected(Reject.MALFORMED, "duplicate outpoint within tx")
            seen.add(txin.outpoint)

        in_value = 0
        for txin in tx.inputs:
            op = txin.outpoint
            if op in self._mempool_spends:
                raise TxRejected(Reject.CONFLICT, f"{op.short()} spent by mempool")
            if op in self._spent:
                raise TxRejected(Reject.CONFLICT, f"{op.short()} already consumed")
            utxo = self._utxos.get(op)
            if utxo is not None:
                in_value += utxo.amount
                conf: Optional[int] = utxo.confirmation_height
                source: Script = utxo.script
            elif op in self._mempool_outputs:
                pending = self._mempool_outputs[op]
                in_value += pending.amount
                conf = None
                source = pending.script
            else:
                raise TxRejected(Reject.UNKNOWN_OUTPOINT, op.short())
            ctx = ScriptContext(
                current_height=self.height,
                input_confirmation_height=conf,
                tx_digest=tx_id,
            )
            if evaluate(source, txin.witness, ctx) is Outcome.INVALID:
                raise TxRejected(Reject.INVALID_WITNESS, op.short())

        out_value = sum(o.amount for o in tx.outputs)
        if out_value > in_value or in_value > MAX_AMOUNT:
            raise TxRejected(Reject.VALUE_OVERFLOW)
        if in_value - out_value < self.params.tx_fee:
            raise TxRejected(Reject.FEE_TOO_LOW)

        self._mempool[tx_id] = tx
        for txin in tx.inputs:
            self._mempool_spends[txin.outpoint] = tx_id
        for i, txout in enumerate(tx.outputs):
            self._mempool_outputs[Outpoint(tx_id, i)] = txout
        return tx_id

    # --- mining ------------------------------------------------------------

    def _eligible(self, tx_id: bytes, tx: Transaction, height: int) -> bool:
        if tx.locktime > height:
            return False
        for txin in tx.inputs:
            utxo = self._utxos.get(txin.outpoint)
            if utxo is None:
                return False
            ctx = ScriptContext(
                current_height=height,
                input_confirmation_height=utxo.confirmation_height,
                tx_digest=tx_id,
            )
            if evaluate(utxo.script, txin.witness, ctx) is not Outcome.VALID:
                return False
        return True

    def mine_blocks(self, count: int) -> list[BlockSummary]:
        if count < 0:
            raise ValueError("count must be >= 0")
        summaries = []
        for _ in range(count):
            height = self.height + 1
            block_txids: list[bytes] = []
            block_spent: list[tuple[Outpoint, bytes]] = []
            # Fixpoint over the mempool in submission order: confirming a
            # parent can make a same-block child eligible.
            progress = True
            while progress:
                progress = False
                for tx_id, tx in list(self._mempool.items()):
                    if not self._eligible(tx_id, tx, height):
                        continue
                    in_value = sum(self._utxos[i.outpoint].amount for i in tx.inputs)
                    out_value = sum(o.amount for o in tx.outputs)
                    for txin in tx.inputs:
                        op = txin.outpoint
                        utxo = self._pop_utxo(op)
                        self._utxo_value -= utxo.amount
                        self._spent[op] = tx_id
                        del self._mempool_spends[op]
                        block_spent.append((op, tx_id))
                    for i, txout in enumerate(tx.outputs):
                        op = Outpoint(tx_id, i)
                        self._mempool_outputs.pop(op, None)
                        self._add_utxo(op, Utxo(txout.amount, txout.script, height))
                        self._utxo_value += txout.amount
                    self.burned += in_value - out_value
                    del self._mempool[tx_id]
                    block_txids.append(tx_id)
                    progress = True
            self.height = height
            summary = BlockSummary(
                height=height,
                txids=tuple(block_txids),
                spent=tuple(block_spent),
            )
            summaries.append(summary)
            self.confirmed_tx_count += len(block_txids)
        return summaries
