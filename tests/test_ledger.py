import random
from typing import NamedTuple

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from comit.chainlab import (
    MAX_AMOUNT,
    ChainParams,
    HashFnId,
    HashLock,
    HtlcScript,
    KeyPair,
    Ledger,
    Or,
    Outpoint,
    PayToKey,
    Reject,
    TimeLockRel,
    Transaction,
    TxIn,
    TxOut,
    TxRejected,
    UnknownHashFunction,
    Witness,
    hash_digest,
    script_bytes,
    txid,
)
from comit.chainlab.script import evaluate

PARAMS = ChainParams("main", "COIN", frozenset({HashFnId.SHA256}))


def params(fee=0):
    return ChainParams("main", "COIN", frozenset({HashFnId.SHA256}), tx_fee=fee)


def spend(owner: KeyPair, outpoints, outputs, selector=None):
    """Build a tx spending PayToKey outputs all owned by `owner`."""
    skeleton = Transaction(
        inputs=tuple(TxIn(op) for op in outpoints),
        outputs=tuple(TxOut(a, s) for a, s in outputs),
    )
    digest = txid(skeleton)
    w = Witness(signatures=(owner.sign(digest),), branch_selector=selector)
    return Transaction(
        inputs=tuple(TxIn(op, w) for op in outpoints),
        outputs=skeleton.outputs,
    )


def conserved(ledger: Ledger) -> bool:
    return ledger.total_utxo_value() + ledger.burned == ledger.genesis_total


@pytest.fixture
def world(rng):
    alice, bob = KeyPair.generate(rng), KeyPair.generate(rng)
    ledger = Ledger(PARAMS, [(alice.pubkey, 1_000), (bob.pubkey, 500)])
    return ledger, alice, bob


def test_genesis_and_simple_transfer(world):
    ledger, alice, bob = world
    assert ledger.genesis_total == 1_500
    (op, amount), = ledger.spendable_by(alice.pubkey)
    assert amount == 1_000
    tx = spend(alice, [op], [(400, PayToKey(bob.pubkey)), (600, PayToKey(alice.pubkey))])
    ledger.submit_tx(tx)
    assert ledger.is_unspent(op)  # not yet mined
    ledger.mine_blocks(1)
    assert not ledger.is_unspent(op)
    assert sum(a for _, a in ledger.spendable_by(bob.pubkey)) == 900
    assert conserved(ledger)


def test_is_spendable_means_confirmed_unspent_and_unclaimed(world):
    ledger, alice, bob = world
    (op, _), = ledger.spendable_by(alice.pubkey)
    assert ledger.is_spendable(op)
    tx = spend(alice, [op], [(1_000, PayToKey(bob.pubkey))])
    ledger.submit_tx(tx)
    out = Outpoint(txid(tx), 0)
    assert ledger.is_unspent(op) and not ledger.is_spendable(op)  # claimed by the mempool
    assert not ledger.is_spendable(out)  # not confirmed yet
    ledger.mine_blocks(1)
    assert not ledger.is_spendable(op)
    assert ledger.is_spendable(out)


def test_double_spend_rejected_in_mempool_and_confirmed(world):
    ledger, alice, bob = world
    (op, _), = ledger.spendable_by(alice.pubkey)
    tx1 = spend(alice, [op], [(1_000, PayToKey(bob.pubkey))])
    tx2 = spend(alice, [op], [(1_000, PayToKey(alice.pubkey))])
    ledger.submit_tx(tx1)
    mempool = dict(ledger._mempool)
    for again in (tx2, tx1):
        with pytest.raises(TxRejected) as e:
            ledger.submit_tx(again)
        assert e.value.reason == Reject.CONFLICT
        assert ledger._mempool == mempool
    assert str(e.value) == "conflict: duplicate transaction"
    ledger.mine_blocks(1)
    with pytest.raises(TxRejected) as e:
        ledger.submit_tx(tx2)
    assert e.value.reason == Reject.UNKNOWN_OUTPOINT  # a confirmed spend left the UTXO set
    assert conserved(ledger)


def test_unknown_outpoint(world):
    ledger, alice, _ = world
    ghost = Outpoint(b"\xee" * 32, 0)
    with pytest.raises(TxRejected) as e:
        ledger.submit_tx(spend(alice, [ghost], [(1, PayToKey(alice.pubkey))]))
    assert e.value.reason == Reject.UNKNOWN_OUTPOINT


def test_outputs_may_not_exceed_inputs(world):
    ledger, alice, _ = world
    (op, _), = ledger.spendable_by(alice.pubkey)
    with pytest.raises(TxRejected) as e:
        ledger.submit_tx(spend(alice, [op], [(1_001, PayToKey(alice.pubkey))]))
    assert e.value.reason == Reject.VALUE_OVERFLOW


def test_invalid_witness_rejected_at_submission(world):
    ledger, alice, bob = world
    (op, _), = ledger.spendable_by(alice.pubkey)
    tx = spend(bob, [op], [(1_000, PayToKey(bob.pubkey))])  # bob signs alice's coin
    with pytest.raises(TxRejected) as e:
        ledger.submit_tx(tx)
    assert e.value.reason == Reject.INVALID_WITNESS


def test_fees_are_burned_and_conservation_holds(rng):
    alice = KeyPair.generate(rng)
    ledger = Ledger(params(fee=10), [(alice.pubkey, 1_000)])
    (op, _), = ledger.spendable_by(alice.pubkey)
    with pytest.raises(TxRejected) as e:
        ledger.submit_tx(spend(alice, [op], [(995, PayToKey(alice.pubkey))]))
    assert e.value.reason == Reject.FEE_TOO_LOW
    ledger.submit_tx(spend(alice, [op], [(990, PayToKey(alice.pubkey))]))
    ledger.mine_blocks(1)
    assert ledger.burned == 10
    assert conserved(ledger)


def test_block_fees_sum_to_its_rise_in_burned(rng):
    """A block carries the fee each transaction burned, as the ledger took
    it at submission: inputs less outputs."""
    alice, bob = KeyPair.generate(rng), KeyPair.generate(rng)
    ledger = Ledger(params(fee=3), [(alice.pubkey, 1_000), (bob.pubkey, 500)])
    (a, _), = ledger.spendable_by(alice.pubkey)
    (b, _), = ledger.spendable_by(bob.pubkey)
    ta = ledger.submit_tx(spend(alice, [a], [(990, PayToKey(bob.pubkey))]))
    tb = ledger.submit_tx(spend(bob, [b], [(400, PayToKey(alice.pubkey)),
                                           (97, PayToKey(bob.pubkey))]))
    block, empty = ledger.mine_blocks(2)
    assert block.txids == (ta, tb) and block.fees == (10, 3)
    assert empty.txids == empty.fees == ()
    assert ledger.burned == sum(block.fees) == 13
    assert conserved(ledger)


@pytest.mark.parametrize("delta", [0, 1, 5])
def test_relative_lock_confirms_exactly_at_maturity(world, delta):
    # Oracle: submit the parent, then at every height try the child and mine
    # one block, recording each refusal and the height at which the child
    # confirms. The parent lands at height 1; the child is an unknown
    # outpoint until then and premature until the next block is delta past
    # it, so it lands at 1 + delta (one block later for delta=0: a child
    # never shares its parent's block).
    ledger, alice, _ = world
    (op, _), = ledger.spendable_by(alice.pubkey)
    parent = spend(alice, [op], [(1_000, TimeLockRel(delta, alice.pubkey))])
    ledger.submit_tx(parent)
    child_op = Outpoint(txid(parent), 0)
    child = spend(alice, [child_op], [(1_000, PayToKey(alice.pubkey))])
    refusals = []
    parent_conf = None
    confirmed_at = None
    for _ in range(10):
        try:
            ledger.submit_tx(child)
        except TxRejected as e:
            refusals.append(e.reason)
        summary, = ledger.mine_blocks(1)
        if txid(parent) in summary.txids:
            parent_conf = summary.height
        if txid(child) in summary.txids:
            confirmed_at = summary.height
            break
    assert parent_conf == 1
    assert confirmed_at == parent_conf + max(delta, 1)
    assert refusals == [Reject.UNKNOWN_OUTPOINT] + [Reject.PREMATURE] * (max(delta, 1) - 1)
    assert conserved(ledger)


def test_child_of_unconfirmed_parent_confirms_a_block_later(world):
    ledger, alice, bob = world
    (op, _), = ledger.spendable_by(alice.pubkey)
    parent = spend(alice, [op], [(1_000, PayToKey(alice.pubkey))])
    ledger.submit_tx(parent)
    child = spend(
        alice, [Outpoint(txid(parent), 0)], [(1_000, PayToKey(bob.pubkey))]
    )
    with pytest.raises(TxRejected) as e:
        ledger.submit_tx(child)  # the next block cannot confirm both
    assert e.value.reason == Reject.UNKNOWN_OUTPOINT
    s1, = ledger.mine_blocks(1)
    assert s1.txids == (txid(parent),)
    ledger.submit_tx(child)
    s2, = ledger.mine_blocks(1)
    assert s2.txids == (txid(child),)
    assert conserved(ledger)


def test_relative_lock_child_waits_for_parent_confirmation(world):
    # The relative-lock clock starts when the parent confirms, not when it
    # is submitted.
    ledger, alice, _ = world
    (op, _), = ledger.spendable_by(alice.pubkey)
    parent = spend(alice, [op], [(1_000, TimeLockRel(1, alice.pubkey))])
    ledger.submit_tx(parent)
    child = spend(
        alice, [Outpoint(txid(parent), 0)], [(1_000, PayToKey(alice.pubkey))]
    )
    with pytest.raises(TxRejected) as e:
        ledger.submit_tx(child)
    assert e.value.reason == Reject.UNKNOWN_OUTPOINT
    s1, = ledger.mine_blocks(1)
    assert txid(parent) in s1.txids and txid(child) not in s1.txids
    ledger.submit_tx(child)
    s2, = ledger.mine_blocks(1)
    assert txid(child) in s2.txids
    assert conserved(ledger)


def test_block_summary_reports_confirmed_spends(world):
    ledger, alice, bob = world
    (op, _), = ledger.spendable_by(alice.pubkey)
    tx = spend(alice, [op], [(1_000, PayToKey(bob.pubkey))])
    ledger.submit_tx(tx)
    summary, = ledger.mine_blocks(1)
    assert summary.txids == (txid(tx),)
    assert not any(ledger.is_unspent(txin.outpoint) for txin in tx.inputs)
    with pytest.raises(TxRejected) as e:
        ledger.submit_tx(spend(alice, [op], [(1_000, PayToKey(alice.pubkey))]))
    assert e.value.reason == Reject.UNKNOWN_OUTPOINT


def test_advance_to_is_mining_empty_blocks(world):
    """advance_to(h) leaves the chain as mining h - height empty blocks
    does, and a relative timelock matures at the same height; it refuses to
    go back and to pass a block that would confirm the mempool."""
    ledger, alice, bob = world
    (op, _), = ledger.spendable_by(alice.pubkey)
    locked = TimeLockRel(3, alice.pubkey)
    ledger.submit_tx(spend(alice, [op], [(1_000, locked)]))
    summary, = ledger.mine_blocks(1)
    child = spend(alice, [Outpoint(summary.txids[0], 0)], [(1_000, PayToKey(bob.pubkey))])
    mined = Ledger(PARAMS, [(alice.pubkey, 1_000), (bob.pubkey, 500)])
    mined.submit_tx(spend(alice, [op], [(1_000, locked)]))
    mined.mine_blocks(1)
    for height in (1, 2):
        ledger.advance_to(height)
        mined.mine_blocks(height - mined.height)
        for led in (ledger, mined):
            with pytest.raises(TxRejected) as e:
                led.submit_tx(child)
            assert e.value.reason == Reject.PREMATURE
    ledger.advance_to(3)
    mined.mine_blocks(1)
    assert ledger.submit_tx(child) == mined.submit_tx(child)
    for led in (ledger, mined):
        assert (led.height, led.confirmed_tx_count, led.burned) == (3, 1, 0)
    assert ledger._utxos == mined._utxos
    ledger.advance_to(3)  # no block: allowed with a transaction waiting
    with pytest.raises(ValueError):
        ledger.advance_to(4)
    with pytest.raises(ValueError):
        ledger.advance_to(2)
    summary, = ledger.mine_blocks(1)
    assert summary.txids == (txid(child),)


def test_outpoint_is_a_checked_tuple():
    """An Outpoint is a tuple (hashed and compared in C) that still refuses
    a txid that is not 32 bytes and a negative index."""
    op = Outpoint(bytes(32), 1)
    assert op == (bytes(32), 1) and hash(op) == hash((bytes(32), 1))
    assert (op.txid, op.index) == (bytes(32), 1)
    assert op.short() == "0" * 16 + ":1"
    for bad in ((bytes(31), 0), (bytes(33), 0), (bytes(32), -1)):
        with pytest.raises(ValueError):
            Outpoint(*bad)
    with pytest.raises(AttributeError):
        op.index = 2


KEY = KeyPair(bytes(32))
SHA = frozenset({HashFnId.SHA256})


@pytest.mark.parametrize("refused, error, match", [
    (lambda: ChainParams("", "COIN", SHA), ValueError, "chain_id"),
    (lambda: ChainParams("main", "", SHA), ValueError, "asset_id"),
    (lambda: ChainParams("main", "COIN", frozenset()), ValueError, "hash_fns"),
    (lambda: ChainParams("main", "COIN", SHA, block_interval=0), ValueError, "block_interval"),
    (lambda: ChainParams("main", "COIN", SHA, tx_fee=-1), ValueError, "tx_fee"),
    (lambda: Ledger(PARAMS, [(KEY.pubkey, 0)]), ValueError, "genesis amount"),
    (lambda: Ledger(PARAMS, [(KEY.pubkey, MAX_AMOUNT)] * 2), ValueError, "genesis total"),
    (lambda: Ledger(PARAMS, []).mine_blocks(-1), ValueError, "count"),
    (lambda: KeyPair(bytes(31)), ValueError, "secret must be 32"),
    (lambda: HashLock(HashFnId.SHA256, bytes(31), KEY.pubkey), ValueError, "hash must be 32"),
    (lambda: HtlcScript(HashFnId.SHA256, bytes(31), KEY.pubkey, KEY.pubkey, 1),
     ValueError, "hash must be 32"),
    (lambda: TimeLockRel(-1, KEY.pubkey), ValueError, "delta_blocks"),
    (lambda: HtlcScript(HashFnId.SHA256, bytes(32), KEY.pubkey, KEY.pubkey, -1),
     ValueError, "refund_height"),
    (lambda: evaluate(KEY, Witness(), None), TypeError, "not a script"),
    (lambda: script_bytes(KEY), TypeError, "not a script"),
    (lambda: TxOut(-1, PayToKey(KEY.pubkey)), ValueError, "amount out of range"),
    (lambda: TxOut(MAX_AMOUNT + 1, PayToKey(KEY.pubkey)), ValueError, "amount out of range"),
    (lambda: Transaction((), (TxOut(1, PayToKey(KEY.pubkey)),)), ValueError, "input"),
    (lambda: Transaction((TxIn(Outpoint(bytes(32), 0)),), ()), ValueError, "output"),
    (lambda: hash_digest("SHA256", b""), UnknownHashFunction, "unknown hash function"),
], ids=["params-chain-id", "params-asset-id", "params-hash-fns", "params-block-interval",
        "params-tx-fee", "genesis-amount", "genesis-total", "mine-negative-count",
        "key-secret-length", "hashlock-hash-length",
        "htlc-hash-length", "timelock-negative-delay", "htlc-negative-refund-height",
        "evaluate-non-script", "script-bytes-non-script", "txout-negative-amount",
        "txout-amount-over-max", "tx-no-inputs", "tx-no-outputs", "hash-fn-not-an-id"])
def test_chainlab_refuses_malformed_values(refused, error, match):
    """Each value check of the chain layer refuses with its own exception."""
    with pytest.raises(error, match=match) as e:
        refused()
    assert e.type is error


def test_a_transaction_is_serialized_once(world, monkeypatch):
    """txid is computed once per transaction and kept on it, and a signed
    transaction takes its id from the digest it signs: funding a channel,
    naming its outpoint and submitting it serialize the funding once."""
    import comit.chainlab.tx as tx_mod
    from comit.channels import ChannelParty, open_channel

    ledger, alice, bob = world
    calls = []
    serialize = tx_mod.serialize_without_witness

    def counted(outpoints, outputs):
        calls.append((tuple(outpoints), outputs))
        return serialize(outpoints, outputs)

    monkeypatch.setattr(tx_mod, "serialize_without_witness", counted)
    a, b = ChannelParty(alice, bytes(32)), ChannelParty(bob, bytes(32))
    ch = open_channel(ledger, a, b, 400, 100)
    assert len(calls) == 1  # the digest `_signed` signs
    outpoints, outputs = calls[0]
    fresh = Transaction(inputs=tuple(TxIn(op) for op in outpoints), outputs=outputs)
    assert ch.funding_outpoint.txid == txid(fresh) == tx_mod.txid_of(outpoints, outputs)
    assert len(calls) == 3  # `fresh` and `txid_of` serialized; the funding not again


def test_a_kept_txid_cannot_carry_signatures_over(world):
    """No constructor takes a txid, and `dataclasses.replace` computes a
    changed transaction's id afresh, so the ledger checks its signatures
    against its own outputs and refuses them."""
    import dataclasses

    ledger, alice, bob = world
    (op, _), = ledger.spendable_by(alice.pubkey)
    signed = spend(alice, [op], [(1_000, PayToKey(alice.pubkey))])
    txid(signed)
    with pytest.raises(TypeError):
        Transaction(inputs=signed.inputs, outputs=signed.outputs, _txid=txid(signed))
    stolen = dataclasses.replace(signed, outputs=(TxOut(1_000, PayToKey(bob.pubkey)),))
    assert txid(stolen) != txid(signed)
    with pytest.raises(TxRejected) as e:
        ledger.submit_tx(stolen)
    assert e.value.reason == Reject.INVALID_WITNESS
    assert ledger.submit_tx(signed) == txid(signed)


def test_or_script_spend_via_branches(world, rng):
    ledger, alice, bob = world
    (op, _), = ledger.spendable_by(alice.pubkey)
    script = Or(TimeLockRel(3, alice.pubkey), PayToKey(bob.pubkey))
    setup = spend(alice, [op], [(1_000, script)])
    ledger.submit_tx(setup)
    ledger.mine_blocks(1)
    target = Outpoint(txid(setup), 0)
    # branch b spends immediately
    tx_b = spend(bob, [target], [(1_000, PayToKey(bob.pubkey))], selector=1)
    ledger.submit_tx(tx_b)
    ledger.mine_blocks(1)
    assert not ledger.is_unspent(target)
    assert conserved(ledger)


def test_random_transfer_storm_conserves_value(rng):
    actors = [KeyPair.generate(rng) for _ in range(4)]
    ledger = Ledger(params(fee=1), [(k.pubkey, 10_000) for k in actors])
    for step in range(120):
        who = actors[rng.randrange(4)]
        coins = ledger.spendable_by(who.pubkey)
        if not coins:
            ledger.mine_blocks(1)
            continue
        op, amount = coins[0]
        if amount < 3:
            ledger.mine_blocks(1)
            continue
        dest = actors[rng.randrange(4)]
        pay = rng.randrange(1, amount - 1)
        keep = amount - pay - 1  # fee of 1
        outs = [(pay, PayToKey(dest.pubkey))]
        if keep:
            outs.append((keep, PayToKey(who.pubkey)))
        ledger.submit_tx(spend(who, [op], outs))
        if rng.random() < 0.4:
            ledger.mine_blocks(1)
        assert conserved(ledger)
    ledger.mine_blocks(3)
    assert conserved(ledger)
    assert ledger.burned > 0


def scanning_spendable_by(ledger: Ledger, pubkey: bytes):
    """The scan `spendable_by` replaced, over every UTXO; the oracle for its
    owner index."""
    found = [
        (op, u.amount)
        for op, u in ledger._utxos.items()
        if isinstance(u.script, PayToKey)
        and u.script.pubkey == pubkey
        and op not in ledger._mempool_spends
    ]
    found.sort(key=lambda item: (-item[1], item[0].txid, item[0].index))
    return found


def test_owner_index_matches_a_scan_of_every_utxo(seeded):
    """Random submits (some to timelocked scripts), refused spends of
    unconfirmed outputs, double-spends and mining: `spendable_by` equals
    the full scan for every owner after every step."""
    for seed in range(6):
        rng = seeded(seed)
        keys = [KeyPair.generate(rng) for _ in range(4)]
        ledger = Ledger(params(fee=1), [(k.pubkey, 5_000) for k in keys * 2])
        locked = []  # (owner, outpoint, amount) of TimeLockRel outputs
        for _ in range(150):
            who = rng.choice(keys)
            coins = ledger.spendable_by(who.pubkey)
            roll = rng.random()
            if roll < 0.25 or not coins:
                ledger.mine_blocks(rng.randint(1, 2))
            elif roll < 0.35:
                # a double-spend of an outpoint already spent in the mempool
                owners = {PayToKey(k.pubkey): k for k in keys}
                taken = [
                    (op, owners[ledger.utxo(op).script])
                    for op in ledger._mempool_spends
                    if ledger.is_unspent(op) and ledger.utxo(op).script in owners
                ]
                if taken:
                    op, owner = rng.choice(taken)
                    with pytest.raises(TxRejected) as err:
                        ledger.submit_tx(spend(owner, [op], [(1, PayToKey(owner.pubkey))]))
                    assert err.value.reason == Reject.CONFLICT
            elif roll < 0.45 and locked:
                owner, op, amount = locked.pop(rng.randrange(len(locked)))
                if amount > 1:
                    tx = spend(owner, [op], [(amount - 1, PayToKey(owner.pubkey))])
                    if ledger.is_unspent(op):
                        ledger.submit_tx(tx)
                    else:  # its parent is still in the mempool
                        with pytest.raises(TxRejected) as err:
                            ledger.submit_tx(tx)
                        assert err.value.reason == Reject.UNKNOWN_OUTPOINT
            else:
                picked = coins[: rng.randint(1, min(3, len(coins)))]
                total = sum(a for _, a in picked)
                if total < 3:
                    continue
                dest = rng.choice(keys)
                pay = rng.randrange(1, total - 1)
                locks = rng.random() < 0.2
                script = TimeLockRel(1, dest.pubkey) if locks else PayToKey(dest.pubkey)
                outs = [(pay, script)]
                if total - pay - 1:
                    outs.append((total - pay - 1, PayToKey(who.pubkey)))
                tx = spend(who, [op for op, _ in picked], outs)
                tx_id = ledger.submit_tx(tx)
                if locks:
                    locked.append((dest, Outpoint(tx_id, 0), pay))
                # a spend of the change while it is still unconfirmed
                if len(outs) == 2 and rng.random() < 0.3 and total - pay - 1 > 1:
                    with pytest.raises(TxRejected) as err:
                        ledger.submit_tx(spend(who, [Outpoint(tx_id, 1)],
                                               [(total - pay - 2, PayToKey(who.pubkey))]))
                    assert err.value.reason == Reject.UNKNOWN_OUTPOINT
            for k in keys:
                assert ledger.spendable_by(k.pubkey) == scanning_spendable_by(ledger, k.pubkey)
        assert conserved(ledger)


# ---------------------------------------------------------------- ledger machine


class Coin(NamedTuple):
    amount: int
    script: object
    owner: KeyPair  # the key whose signature spends it (an HTLC's refund key)


OWNERS = [KeyPair.generate(random.Random(i)) for i in range(3)]
MALLORY = KeyPair.generate(random.Random(3))  # owns nothing; claims every HTLC
GHOST = Outpoint(b"\xee" * 32, 0)
PAYMENT_HASH = b"\x11" * 32


def matures_at(script, conf: int) -> int:
    """First height at which the owner's spend of `script`, confirmed at
    `conf`, is valid: the model's own reading of each time lock."""
    if isinstance(script, TimeLockRel):
        return conf + script.delta_blocks
    if isinstance(script, HtlcScript):
        return script.refund_height
    return 0


class LedgerMachine(RuleBasedStateMachine):
    """One ledger against a model that tracks every output it has seen.
    Submits spend confirmed, mempool-claimed, confirmed-spent, unconfirmed
    and unknown outputs to time-locked, HTLC and key scripts; every refusal
    must carry the reason the model predicts, and every block must confirm
    exactly what was admitted."""

    def __init__(self):
        super().__init__()
        self.ledger = Ledger(params(fee=1), [(k.pubkey, 5_000) for k in OWNERS * 2])
        self.known = {}  # every output ever seen -> Coin
        self.conf = {}  # confirmed unspent outputs -> confirmation height
        for k in OWNERS:
            for op, amount in self.ledger.spendable_by(k.pubkey):
                self.known[op] = Coin(amount, PayToKey(k.pubkey), k)
                self.conf[op] = 0
        self.known[GHOST] = Coin(1, PayToKey(OWNERS[0].pubkey), OWNERS[0])
        self.spent = set()  # confirmed spends
        self.claimed = set()  # inputs of the mempool
        self.pending = {}  # admitted txid -> tx, in submission order

    def _draw(self, data, ops, label):
        """One of `ops`, or None when there is none."""
        ops = sorted(ops, key=lambda op: (op.txid, op.index))
        return data.draw(st.sampled_from(ops), label=label) if ops else None

    def _expected(self, tx, signers, height):
        """The reason the ledger must refuse `tx` with, or None."""
        ops = [txin.outpoint for txin in tx.inputs]
        if len(set(ops)) != len(ops):
            return Reject.MALFORMED
        for op, signer in zip(ops, signers):
            if op in self.claimed:
                return Reject.CONFLICT
            if op not in self.conf:
                return Reject.UNKNOWN_OUTPOINT
            coin = self.known[op]
            if signer is not coin.owner:
                return Reject.INVALID_WITNESS
            if matures_at(coin.script, self.conf[op]) > height + 1:
                return Reject.PREMATURE
        fee = sum(self.known[op].amount for op in ops) - sum(o.amount for o in tx.outputs)
        if fee < self.ledger.params.tx_fee:
            return Reject.FEE_TOO_LOW
        return None

    def _submit(self, data, ops, forge=False, fee=1):
        """Build and submit a spend of `ops` to a drawn script;
        the ledger must admit it or refuse it with the model's reason."""
        height = self.ledger.height
        signers = [self.known[op].owner for op in ops]
        if forge:
            signers[0] = MALLORY
        to = data.draw(st.sampled_from(OWNERS), label="to").pubkey
        delay = data.draw(st.integers(0, 3), label="delay")
        script = data.draw(st.sampled_from([
            TimeLockRel(delay, to),
            HtlcScript(HashFnId.SHA256, PAYMENT_HASH, MALLORY.pubkey, to, height + delay),
            PayToKey(to),
        ]), label="script")
        amount = max(sum(self.known[op].amount for op in ops) - fee, 0)
        skeleton = Transaction(tuple(TxIn(op) for op in ops), (TxOut(amount, script),))
        digest = txid(skeleton)
        tx = Transaction(
            tuple(TxIn(op, Witness(signatures=(k.sign(digest),))) for op, k in zip(ops, signers)),
            skeleton.outputs,
        )
        expected = self._expected(tx, signers, height)
        if expected is not None:
            with pytest.raises(TxRejected) as e:
                self.ledger.submit_tx(tx)
            assert e.value.reason == expected
            return
        tx_id = self.ledger.submit_tx(tx)
        self.pending[tx_id] = tx
        self.claimed.update(ops)
        owner = next(k for k in OWNERS if k.pubkey == to)
        self.known[Outpoint(tx_id, 0)] = Coin(amount, script, owner)

    @rule(data=st.data())
    def spend(self, data):
        """One or two confirmed, unclaimed outputs (the same one twice is
        malformed), now and then with a forged signature or a low fee."""
        free = [op for op in self.conf if op not in self.claimed]
        count = data.draw(st.integers(1, 2), label="inputs")
        ops = [self._draw(data, free, "input") for _ in range(count)]
        if None not in ops:
            forge = data.draw(st.sampled_from([False] * 5 + [True]), label="forge")
            self._submit(data, ops, forge, fee=data.draw(st.sampled_from([1, 2, 0]), label="fee"))

    @rule(data=st.data())
    def double_spend(self, data):
        op = self._draw(data, self.claimed | self.spent, "spent input")
        if op is not None:
            self._submit(data, [op])

    @rule(data=st.data())
    def spend_unconfirmed(self, data):
        op = self._draw(data, [Outpoint(t, 0) for t in self.pending] + [GHOST], "unconfirmed input")
        self._submit(data, [op])

    @rule()
    def mine(self):
        height, burned = self.ledger.height, self.ledger.burned
        block, = self.ledger.mine_blocks(1)
        assert block.height == height + 1
        assert block.txids == tuple(self.pending)
        assert block.fees == tuple(
            sum(self.known[txin.outpoint].amount for txin in tx.inputs)
            - sum(o.amount for o in tx.outputs) for tx in self.pending.values()
        )
        assert sum(block.fees) == self.ledger.burned - burned
        assert not any(self.ledger.is_unspent(txin.outpoint)
                       for tx in self.pending.values() for txin in tx.inputs)
        assert not self.ledger._mempool and not self.ledger._mempool_spends
        for tx_id, tx in self.pending.items():
            for txin in tx.inputs:
                del self.conf[txin.outpoint]
                self.spent.add(txin.outpoint)
            self.conf[Outpoint(tx_id, 0)] = block.height
        self.pending.clear()
        self.claimed.clear()

    @invariant()
    def value_is_conserved(self):
        utxo_value = sum(self.known[op].amount for op in self.conf)
        assert self.ledger.total_utxo_value() == utxo_value
        assert utxo_value + self.ledger.burned == self.ledger.genesis_total

    @invariant()
    def spendable_by_matches_a_scan(self):
        for k in OWNERS:
            scan = [
                (op, self.known[op].amount) for op in self.conf
                if op not in self.claimed and self.known[op].script == PayToKey(k.pubkey)
            ]
            scan.sort(key=lambda item: (-item[1], item[0].txid, item[0].index))
            assert self.ledger.spendable_by(k.pubkey) == scan == scanning_spendable_by(self.ledger, k.pubkey)


LedgerMachine.TestCase.settings = settings(
    max_examples=10, stateful_step_count=150, derandomize=True, deadline=None
)
TestLedgerMachine = LedgerMachine.TestCase
