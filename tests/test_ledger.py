import pytest

from comit.chainlab import (
    ChainParams,
    HashFnId,
    KeyPair,
    Ledger,
    Or,
    Outpoint,
    PayToKey,
    Reject,
    TimeLockAbs,
    TimeLockRel,
    Transaction,
    TxIn,
    TxOut,
    TxRejected,
    Witness,
    txid,
)

PARAMS = ChainParams("main", "COIN", frozenset({HashFnId.SHA256}))


def params(fee=0):
    return ChainParams("main", "COIN", frozenset({HashFnId.SHA256}), tx_fee=fee)


def spend(owner: KeyPair, outpoints, outputs, locktime=0, selector=None):
    """Build a tx spending PayToKey outputs all owned by `owner`."""
    skeleton = Transaction(
        inputs=tuple(TxIn(op) for op in outpoints),
        outputs=tuple(TxOut(a, s) for a, s in outputs),
        locktime=locktime,
    )
    digest = txid(skeleton)
    w = Witness(signatures=(owner.sign(digest),), branch_selector=selector)
    return Transaction(
        inputs=tuple(TxIn(op, w) for op in outpoints),
        outputs=skeleton.outputs,
        locktime=locktime,
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
    with pytest.raises(TxRejected) as e:
        ledger.submit_tx(tx2)
    assert e.value.reason == Reject.CONFLICT
    ledger.mine_blocks(1)
    with pytest.raises(TxRejected) as e:
        ledger.submit_tx(tx2)
    assert e.value.reason == Reject.CONFLICT
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


def test_locktime_checked_at_mining_not_submission(world):
    ledger, alice, bob = world
    (op, _), = ledger.spendable_by(alice.pubkey)
    tx = spend(alice, [op], [(1_000, PayToKey(bob.pubkey))], locktime=3)
    ledger.submit_tx(tx)  # accepted while height is 0
    ledger.mine_blocks(1)
    ledger.mine_blocks(1)
    assert ledger.spendable_by(bob.pubkey) == [
        (o, a) for o, a in ledger.spendable_by(bob.pubkey) if a == 500
    ]
    ledger.mine_blocks(1)  # height 3 == locktime: eligible now
    assert ledger.height == 3
    assert sum(a for _, a in ledger.spendable_by(bob.pubkey)) == 1_500
    assert conserved(ledger)


def test_absolute_timelock_script_waits_in_mempool(world):
    ledger, alice, _ = world
    (op, _), = ledger.spendable_by(alice.pubkey)
    locked = spend(alice, [op], [(1_000, TimeLockAbs(4, alice.pubkey))])
    ledger.submit_tx(locked)
    ledger.mine_blocks(1)
    (lop, _), = [
        (o, u)
        for o, u in [(Outpoint(txid(locked), 0), None)]
    ]
    claim = spend(alice, [lop], [(1_000, PayToKey(alice.pubkey))])
    ledger.submit_tx(claim)  # premature, but parks in the mempool
    ledger.mine_blocks(2)  # heights 2, 3: still locked
    assert ledger.is_unspent(lop)
    ledger.mine_blocks(1)  # height 4
    assert not ledger.is_unspent(lop)
    assert conserved(ledger)


@pytest.mark.parametrize("delta", [0, 1, 5])
def test_relative_lock_confirms_exactly_at_maturity(world, delta):
    # Oracle: submit parent and child together, then enumerate block-by-block
    # mining and record the first height at which the child confirms. The
    # parent lands at height 1, so the child must land at exactly 1 + delta
    # (same block for delta=0).
    ledger, alice, _ = world
    (op, _), = ledger.spendable_by(alice.pubkey)
    parent = spend(alice, [op], [(1_000, TimeLockRel(delta, alice.pubkey))])
    ledger.submit_tx(parent)
    child_op = Outpoint(txid(parent), 0)
    child = spend(alice, [child_op], [(1_000, PayToKey(alice.pubkey))])
    ledger.submit_tx(child)
    parent_conf = None
    confirmed_at = None
    for _ in range(10):
        summary, = ledger.mine_blocks(1)
        if txid(parent) in summary.txids:
            parent_conf = summary.height
        if txid(child) in summary.txids:
            confirmed_at = summary.height
            break
    assert parent_conf == 1
    assert confirmed_at == parent_conf + delta
    assert conserved(ledger)


def test_child_of_same_block_parent_confirms_together(world):
    ledger, alice, bob = world
    (op, _), = ledger.spendable_by(alice.pubkey)
    parent = spend(alice, [op], [(1_000, PayToKey(alice.pubkey))])
    ledger.submit_tx(parent)
    child = spend(
        alice, [Outpoint(txid(parent), 0)], [(1_000, PayToKey(bob.pubkey))]
    )
    ledger.submit_tx(child)
    summary, = ledger.mine_blocks(1)
    assert set(summary.txids) == {txid(parent), txid(child)}
    assert conserved(ledger)


def test_relative_lock_child_waits_for_parent_confirmation(world):
    # Same-block parent does not start the relative-lock clock early.
    ledger, alice, _ = world
    (op, _), = ledger.spendable_by(alice.pubkey)
    parent = spend(alice, [op], [(1_000, TimeLockRel(1, alice.pubkey))])
    ledger.submit_tx(parent)
    child = spend(
        alice, [Outpoint(txid(parent), 0)], [(1_000, PayToKey(alice.pubkey))]
    )
    ledger.submit_tx(child)
    s1, = ledger.mine_blocks(1)
    assert txid(parent) in s1.txids and txid(child) not in s1.txids
    s2, = ledger.mine_blocks(1)
    assert txid(child) in s2.txids
    assert conserved(ledger)


def test_spender_of_reports_confirmed_spends(world):
    ledger, alice, bob = world
    (op, _), = ledger.spendable_by(alice.pubkey)
    tx = spend(alice, [op], [(1_000, PayToKey(bob.pubkey))])
    ledger.submit_tx(tx)
    assert ledger.spender_of(op) is None
    ledger.mine_blocks(1)
    assert ledger.spender_of(op) == txid(tx)


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
    """Random submits (chained on unconfirmed outputs, some to timelocked
    scripts), double-spends and mining: `spendable_by` equals the full
    scan for every owner after every step."""
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
                    ledger.submit_tx(spend(owner, [op], [(amount - 1, PayToKey(owner.pubkey))]))
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
                # spend the change while it is still unconfirmed
                if len(outs) == 2 and rng.random() < 0.3 and total - pay - 1 > 1:
                    ledger.submit_tx(spend(who, [Outpoint(tx_id, 1)],
                                           [(total - pay - 2, PayToKey(who.pubkey))]))
            for k in keys:
                assert ledger.spendable_by(k.pubkey) == scanning_spendable_by(ledger, k.pubkey)
        assert conserved(ledger)
