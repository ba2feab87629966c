import random
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from comit.chainlab import (
    MAX_AMOUNT,
    ChainParams,
    HashFnId,
    KeyPair,
    Ledger,
    Outpoint,
    PayToKey,
    Reject,
    TxRejected,
    hash_digest,
    txid,
)
from comit.channels import (
    AmountBelowDust,
    BadPreimage,
    ChannelError,
    ChannelPhase,
    ChannelParty,
    InsufficientBalance,
    InsufficientFunds,
    PendingHtlcs,
    StalePhase,
    UnknownHtlc,
    Htlc,
    URGENT_BLOCKS,
    UnsupportedHashFunction,
    WindowExpired,
    may_respond,
    open_channel,
    respond,
    urgent_height,
    wake_heights,
)
from comit.channels.channel import CommitmentState

PARAMS = ChainParams(
    "main", "COIN", frozenset({HashFnId.SHA256, HashFnId.SHA3_256})
)


def make_world(rng, fee=0, fund_a=10_000, fund_b=5_000, csv=6, dust=0):
    params = ChainParams("main", "COIN", PARAMS.hash_fns, tx_fee=fee)
    alice = ChannelParty.generate(rng)
    bob = ChannelParty.generate(rng)
    ledger = Ledger(params, [(alice.pubkey, 50_000), (bob.pubkey, 50_000)])
    ch = open_channel(ledger, alice, bob, fund_a, fund_b, csv_delay=csv, dust_limit=dust)
    return ledger, ch, alice, bob


def wallet(ledger, party):
    return sum(a for _, a in ledger.spendable_by(party.pubkey))


def conserved(ledger):
    return ledger.total_utxo_value() + ledger.burned == ledger.genesis_total


def mine_and_watch(ledger, ch, blocks=1):
    for _ in range(blocks):
        for summary in ledger.mine_blocks(1):
            ch.process_block(summary)


def submit_when_mature(ledger, ch, build, *args):
    """Call `build(*args)` at each height, mining and watching one block per
    `premature` refusal, until the ledger admits the spend; return the
    height at which it was admitted."""
    for _ in range(100):
        try:
            build(*args)
            return ledger.height
        except TxRejected as e:
            assert e.reason == Reject.PREMATURE
            mine_and_watch(ledger, ch)
    raise AssertionError("never admitted")


def add(ch, offerer, amount, expiry=50, fn=HashFnId.SHA256, secret=b"s" * 32):
    payment_hash = hash_digest(fn, secret)
    hid = ch.add_htlc(offerer, amount, fn, payment_hash, expiry)
    return hid, secret


def test_open_channel_state(rng):
    ledger, ch, alice, bob = make_world(rng)
    assert ch.phase is ChannelPhase.OPEN
    assert ch.capacity == 15_000
    assert ch.balance_of(alice) == 10_000
    assert ch.balance_of(bob) == 5_000
    assert ch.commitment_number == 0
    # one on-chain tx so far: the funding
    assert ledger.confirmed_tx_count == 1
    assert wallet(ledger, alice) == 40_000
    assert wallet(ledger, bob) == 45_000
    assert conserved(ledger)


def test_open_requires_funds(rng):
    alice, bob = ChannelParty.generate(rng), ChannelParty.generate(rng)
    ledger = Ledger(PARAMS, [(alice.pubkey, 100), (bob.pubkey, 100)])
    with pytest.raises(InsufficientFunds):
        open_channel(ledger, alice, bob, 500, 0)


def test_refused_open_moves_no_coin(rng):
    # 3 coins on one side, fee 2: commitment 0 would have no output. The
    # channel refuses it before the funding transaction is submitted.
    params = ChainParams("main", "COIN", PARAMS.hash_fns, tx_fee=2)
    alice, bob = ChannelParty.generate(rng), ChannelParty.generate(rng)
    ledger = Ledger(params, [(alice.pubkey, 100), (bob.pubkey, 100)])

    def chain():
        return (ledger.height, ledger.mempool_empty(), ledger.burned,
                ledger.spendable_by(alice.pubkey), ledger.spendable_by(bob.pubkey))

    before = chain()
    with pytest.raises(ChannelError, match="no outputs"):
        open_channel(ledger, alice, bob, 3, 0)
    assert chain() == before


def test_states_at_the_amount_bound_are_recorded_and_closed(rng):
    # The ledger holds every amount to MAX_AMOUNT, so a channel's capacity,
    # and each balance it records, is at most 2**64 - 1.
    params = ChainParams("main", "COIN", PARAMS.hash_fns, tx_fee=0)
    alice, bob = ChannelParty.generate(rng), ChannelParty.generate(rng)

    def one_coin_chain():
        return Ledger(params, [(alice.pubkey, MAX_AMOUNT)])

    ledger = one_coin_chain()
    ch = open_channel(ledger, alice, bob, MAX_AMOUNT, 0)
    hid, secret = add(ch, alice, 1_000)
    h = ch.htlc(hid)
    ch.fulfill_htlc(hid, secret)
    assert ch.recorded_states() == (
        CommitmentState(0, MAX_AMOUNT, 0, ()),
        CommitmentState(1, MAX_AMOUNT - 1_000, 0, (h,)),
        CommitmentState(2, MAX_AMOUNT - 1_000, 1_000, ()),
    )
    assert ch.recorded_states()[1].htlcs[0] is h
    for unsigned in (-1, 3):
        with pytest.raises(ValueError, match=f"no commitment {unsigned} for side a"):
            ch.unilateral_close(alice, commitment_number=unsigned)
    ch.unilateral_close(alice, commitment_number=1)
    mine_and_watch(ledger, ch)
    assert ch.phase is ChannelPhase.BREACHED
    assert [(o.amount, o.htlc) for o in ch.close.outputs] == [
        (MAX_AMOUNT - 1_000, None), (1_000, h)]
    ch.punish_breach(bob)
    mine_and_watch(ledger, ch)
    assert ch.phase is ChannelPhase.SETTLED
    assert wallet(ledger, bob) == MAX_AMOUNT
    assert conserved(ledger)

    # Funding out of range fails as the funding rules say, before any state
    # is recorded, and moves no coin.
    ledger = one_coin_chain()
    for fund_a, fund_b, error in ((MAX_AMOUNT + 1, 0, InsufficientFunds),
                                  (MAX_AMOUNT, 1, InsufficientFunds),
                                  (-1, 0, ValueError)):
        with pytest.raises(error):
            open_channel(ledger, alice, bob, fund_a, fund_b)
        assert (ledger.height, wallet(ledger, alice)) == (0, MAX_AMOUNT)
    ch = open_channel(ledger, alice, bob, MAX_AMOUNT, 0)
    with pytest.raises(ValueError, match="negative balance"):
        ch.update(CommitmentState(1, MAX_AMOUNT + 1, -1, ()))
    assert ch.recorded_states() == (ch.state,)


def test_htlc_fulfill_moves_balance(rng):
    _, ch, alice, bob = make_world(rng)
    hid, secret = add(ch, alice, 1_000)
    assert ch.balance_of(alice) == 9_000
    assert ch.balance_of(bob) == 5_000
    assert len(ch.pending_htlcs) == 1
    ch.fulfill_htlc(hid, secret)
    assert ch.balance_of(alice) == 9_000
    assert ch.balance_of(bob) == 6_000
    assert ch.pending_htlcs == ()
    assert ch.commitment_number == 2


def test_htlc_fail_restores_balance(rng):
    _, ch, alice, bob = make_world(rng)
    hid, _ = add(ch, alice, 1_000)
    ch.fail_htlc(hid)
    assert ch.balance_of(alice) == 10_000
    assert ch.balance_of(bob) == 5_000
    assert ch.pending_htlcs == ()


def test_htlc_validation_errors(rng):
    ledger, ch, alice, bob = make_world(rng, dust=10)
    with pytest.raises(UnsupportedHashFunction):
        add(ch, alice, 100, fn=HashFnId.BLAKE2B_256)
    with pytest.raises(InsufficientBalance):
        add(ch, alice, 10_001)
    with pytest.raises(AmountBelowDust):
        add(ch, alice, 5)
    _, fee_ch, carol, _ = make_world(rng, fee=20)
    with pytest.raises(AmountBelowDust, match="20 <= tx_fee 20"):
        add(fee_ch, carol, 20)  # no claim or refund of it could pay its fee
    with pytest.raises(ValueError):
        add(ch, alice, 100, expiry=ledger.height)  # not in the future
    for size in (31, 33):  # no commitment could carry this HTLC
        with pytest.raises(ValueError):
            ch.add_htlc(alice, 100, HashFnId.SHA256, b"h" * size, 50)
    assert ch.state == CommitmentState(0, 10_000, 5_000, ())
    with pytest.raises(ValueError):  # nor can a state passed to update hold one
        Htlc(1, "a", -5, HashFnId.SHA256, b"h" * 32, 50)
    hid, secret = add(ch, alice, 100)
    with pytest.raises(BadPreimage):
        ch.fulfill_htlc(hid, b"wrong" * 8)
    with pytest.raises(UnknownHtlc):
        ch.fulfill_htlc(999, secret)
    with pytest.raises(PendingHtlcs):
        ch.cooperative_close()


def next_state(ch, skip=0, extra=0):
    """The state after `ch`'s current one that moves 100 from a to b, its
    number advanced by 1 + `skip` and `extra` coins added to a."""
    st = ch.state
    return CommitmentState(st.commitment_number + 1 + skip, st.balance_a - 100 + extra,
                           st.balance_b + 100, st.htlcs)


def noop(ch, alice, bob):
    pass


@pytest.mark.parametrize("world, setup, refused, error, match", [
    ({}, noop, lambda ch, a, b: ch.update(next_state(ch, skip=1)),
     ValueError, "exactly 1"),
    ({}, noop, lambda ch, a, b: ch.update(next_state(ch, extra=1)),
     ValueError, "capacity"),
    ({}, noop, lambda ch, a, b: add(ch, a, 0), ValueError, ">= 1"),
    ({"fee": 2, "fund_a": 1, "fund_b": 1}, noop, lambda ch, a, b: ch.cooperative_close(),
     ChannelError, "no outputs"),
    ({}, lambda ch, a, b: add(ch, a, 100),
     lambda ch, a, b: ch.build_htlc_claim(b, 1, b"s" * 32), StalePhase, "^open$"),
], ids=["update-skipping-a-number", "update-breaking-capacity", "htlc-of-zero",
        "close-with-no-outputs", "claim-on-open-channel"])
def test_refused_updates_and_spends_change_nothing(rng, world, setup, refused, error, match):
    """Each refusal raises exactly `error` and leaves the channel's states,
    its phase and the ledger's mempool as they were."""
    ledger, ch, alice, bob = make_world(rng, **world)
    setup(ch, alice, bob)

    def seen():
        return (ch.phase, ch.state, ch.recorded_states(),
                dict(ledger._mempool))

    before = seen()
    with pytest.raises(error, match=match) as e:
        refused(ch, alice, bob)
    assert type(e.value) is error
    assert seen() == before


def test_cooperative_close_pays_latest_balances(rng):
    ledger, ch, alice, bob = make_world(rng)
    hid, secret = add(ch, alice, 2_000)
    ch.fulfill_htlc(hid, secret)
    hid2, _ = add(ch, bob, 500)
    ch.fail_htlc(hid2)
    before_a, before_b = wallet(ledger, alice), wallet(ledger, bob)
    ch.cooperative_close()
    assert ch.phase is ChannelPhase.COOPERATIVE_CLOSING
    mine_and_watch(ledger, ch)
    assert ch.phase is ChannelPhase.SETTLED
    assert wallet(ledger, alice) == before_a + 8_000
    assert wallet(ledger, bob) == before_b + 7_000
    # funding + close: exactly two on-chain transactions, ever
    assert ledger.confirmed_tx_count == 2
    assert conserved(ledger)


def test_many_updates_still_two_onchain_txs(rng):
    ledger, ch, alice, bob = make_world(rng)
    for i in range(40):
        offerer = alice if i % 2 == 0 else bob
        hid, secret = add(ch, offerer, 50 + i, secret=bytes([i]) * 32)
        if i % 3 == 0:
            ch.fail_htlc(hid)
        else:
            ch.fulfill_htlc(hid, secret)
    assert ch.commitment_number == 80
    ch.cooperative_close()
    mine_and_watch(ledger, ch)
    assert ledger.confirmed_tx_count == 2
    assert conserved(ledger)


def test_unilateral_close_honest_with_csv_sweep(rng):
    # Oracle: try the sweep at every height, mining block by block; it is
    # premature until the next block is csv_delay blocks after the
    # commitment's, and confirms in exactly that block.
    csv = 4
    ledger, ch, alice, bob = make_world(rng, csv=csv)
    hid, secret = add(ch, alice, 2_000)
    ch.fulfill_htlc(hid, secret)  # balances now 8000 / 7000
    before_a, before_b = wallet(ledger, alice), wallet(ledger, bob)
    ch.unilateral_close(alice)
    mine_and_watch(ledger, ch)
    assert ch.phase is ChannelPhase.UNILATERAL_CLOSED
    assert ch.close.side == "a"
    close_height = ch.close.height
    # bob's direct output is already spendable
    assert wallet(ledger, bob) == before_b + 7_000
    # alice sweeps her delayed output once the next block can confirm it
    assert submit_when_mature(ledger, ch, ch.build_delayed_sweep, alice) == close_height + csv - 1
    assert wallet(ledger, alice) == before_a
    mine_and_watch(ledger, ch)
    assert ledger.height == close_height + csv
    assert wallet(ledger, alice) == before_a + 8_000
    assert ch.phase is ChannelPhase.SETTLED
    assert conserved(ledger)


def test_unilateral_close_blocks_further_updates(rng):
    ledger, ch, alice, bob = make_world(rng)
    ch.unilateral_close(alice)
    with pytest.raises(StalePhase):
        add(ch, alice, 100)
    mine_and_watch(ledger, ch)
    with pytest.raises(StalePhase):
        ch.cooperative_close()


def test_a_block_changes_only_the_channels_whose_spends_it_confirms(rng):
    """Two channels on one ledger, both shown every block: the block that
    confirms one's close leaves the other as it was, and a later block that
    holds none of the closed channel's spends changes nothing on it."""
    ledger, first, alice, bob = make_world(rng)
    second = open_channel(ledger, bob, alice, 3_000, 2_000)
    add(first, alice, 1_000)  # an HTLC output keeps `first` unsettled once closed

    def seen(ch):
        # a copy, since the block that confirms a close stamps its record
        return ch.phase, ch.close and replace(ch.close)

    untouched = seen(second)
    first.unilateral_close(alice)
    block, = ledger.mine_blocks(1)
    for ch in (first, second):
        ch.process_block(block)
    assert first.phase is ChannelPhase.UNILATERAL_CLOSED
    assert (first.close.side, first.close.height) == ("a", block.height)
    assert seen(second) == untouched

    closed = seen(first)
    second.cooperative_close()
    later, = ledger.mine_blocks(1)
    for ch in (first, second):
        ch.process_block(later)
    assert second.phase is ChannelPhase.SETTLED
    assert seen(first) == closed
    assert conserved(ledger)


def test_htlc_resolution_on_chain_after_force_close(rng):
    # Receiver claims with the preimage at once; a second HTLC refunds to
    # the offerer only in the block at its expiry (premature before that).
    ledger, ch, alice, bob = make_world(rng)
    claim_secret = b"c" * 32
    refund_secret = b"r" * 32
    claim_hid = ch.add_htlc(
        alice, 1_000, HashFnId.SHA256, hash_digest(HashFnId.SHA256, claim_secret), 40
    )
    refund_hid = ch.add_htlc(
        alice, 700, HashFnId.SHA256, hash_digest(HashFnId.SHA256, refund_secret), 8
    )
    before_a, before_b = wallet(ledger, alice), wallet(ledger, bob)
    ch.unilateral_close(bob)
    mine_and_watch(ledger, ch)
    assert ch.phase is ChannelPhase.UNILATERAL_CLOSED
    # alice's balance (8300) was the counterparty output: spendable at once
    assert wallet(ledger, alice) == before_a + 8_300
    close_height = ch.close.height
    claim = ch.build_htlc_claim(bob, claim_hid, claim_secret)
    assert submit_when_mature(ledger, ch, ch.build_htlc_refund, alice, refund_hid) == 8 - 1
    assert submit_when_mature(ledger, ch, ch.build_delayed_sweep, bob) == close_height + ch.csv_delay - 1
    mine_and_watch(ledger, ch)
    assert ledger.utxo(Outpoint(txid(claim), 0)).confirmation_height == close_height + 1
    assert wallet(ledger, bob) == before_b + 5_000 + 1_000
    assert wallet(ledger, alice) == before_a + 8_300 + 700
    assert ch.phase is ChannelPhase.SETTLED
    assert conserved(ledger)


def test_breach_punished_within_csv_and_full_balance_claimed(rng):
    csv = 5
    ledger, ch, alice, bob = make_world(rng, csv=csv)
    hid, secret = add(ch, alice, 2_000)
    ch.fulfill_htlc(hid, secret)  # state 2: 8000/7000; state 1 revoked
    before_b = wallet(ledger, bob)
    ch.unilateral_close(alice, commitment_number=1)  # cheat: stale state
    mine_and_watch(ledger, ch)
    assert ch.phase is ChannelPhase.BREACHED
    breach_height = ch.close.height
    ch.punish_breach(bob)
    justice_height = None
    for _ in range(csv):
        for s in ledger.mine_blocks(1):
            ch.process_block(s)
            if ch.phase is ChannelPhase.SETTLED and justice_height is None:
                justice_height = s.height
    assert justice_height is not None
    assert justice_height - breach_height <= csv
    # bob ends with the cheater's entire channel stake: his direct output
    # from state 1 (5000) + justice over alice's delayed 8000 and the stale
    # HTLC 2000 = the full 15000 capacity.
    assert wallet(ledger, bob) == before_b + 15_000
    assert conserved(ledger)


def test_latest_commitment_is_not_punishable(rng):
    ledger, ch, alice, bob = make_world(rng)
    hid, secret = add(ch, alice, 2_000)
    ch.fulfill_htlc(hid, secret)
    ch.unilateral_close(alice)  # latest state: honest
    mine_and_watch(ledger, ch)
    assert ch.phase is ChannelPhase.UNILATERAL_CLOSED
    with pytest.raises(StalePhase):
        ch.punish_breach(bob)


def test_breach_window_expires_after_cheater_sweep(rng):
    csv = 2
    ledger, ch, alice, bob = make_world(rng, csv=csv)
    hid, secret = add(ch, alice, 2_000)
    ch.fulfill_htlc(hid, secret)
    ch.unilateral_close(alice, commitment_number=0)
    mine_and_watch(ledger, ch)
    assert ch.phase is ChannelPhase.BREACHED
    # bob sleeps; alice sweeps her delayed output after the csv delay
    breach_height = ch.close.height
    assert submit_when_mature(ledger, ch, ch.build_delayed_sweep, alice) == breach_height + csv - 1
    mine_and_watch(ledger, ch)
    assert ch.phase is ChannelPhase.SETTLED
    with pytest.raises(WindowExpired):
        ch.punish_breach(bob)


def test_capacity_conserved_across_random_history(rng):
    _, ch, alice, bob = make_world(rng)
    for step in range(25):
        actor = alice if rng.random() < 0.5 else bob
        amount = rng.randrange(1, 200)
        if ch.balance_of(actor) < amount:
            continue
        secret = rng.randbytes(32)
        hid = ch.add_htlc(
            actor, amount, HashFnId.SHA256, hash_digest(HashFnId.SHA256, secret), 90
        )
        if rng.random() < 0.5:
            ch.fulfill_htlc(hid, secret)
        else:
            ch.fail_htlc(hid)
        total = ch.state.balance_a + ch.state.balance_b + sum(
            h.amount for h in ch.pending_htlcs
        )
        assert total == ch.capacity


def test_justice_takes_what_a_mempool_claim_leaves(rng):
    # bob breaches state 1, whose HTLC alice offered and later failed; bob
    # knows its preimage and claims that output first. Justice still takes
    # bob's delayed output in the same block.
    ledger, ch, alice, bob = make_world(rng, fee=10)
    hid, secret = add(ch, alice, 100)  # state 1
    ch.fail_htlc(hid)  # state 2
    before_a = wallet(ledger, alice)
    ch.unilateral_close(bob, commitment_number=1)
    mine_and_watch(ledger, ch)
    assert ch.phase is ChannelPhase.BREACHED
    ch.build_htlc_claim(bob, hid, secret)
    justice = ch.punish_breach(alice)
    delayed = next(o for o in ch.close.outputs if o.htlc is None)
    assert [i.outpoint for i in justice.inputs] == [delayed.outpoint]
    mine_and_watch(ledger, ch)
    assert ch.phase is ChannelPhase.SETTLED
    assert wallet(ledger, alice) == before_a + 9_900 + 5_000 - 10 - 10
    assert conserved(ledger)


def same_party_on_both_sides(rng):
    ledger, _, alice, _ = make_world(rng)
    return open_channel(ledger, alice, alice, 100, 0)


def swept_before_justice(rng):
    """bob breached state 1 at csv_delay 1, then put in the mempool his
    claim of alice's HTLC there and the sweep of his delayed output: every
    revocable output. alice's justice comes too late."""
    ledger, ch, alice, bob = make_world(rng, fee=10, csv=1)
    hid, secret = add(ch, alice, 100)
    ch.fail_htlc(hid)
    ch.unilateral_close(bob, commitment_number=1)
    mine_and_watch(ledger, ch)
    ch.build_htlc_claim(bob, hid, secret)
    ch.build_delayed_sweep(bob)
    return ch.punish_breach(alice)


@pytest.mark.parametrize("refused, error, match", [
    (lambda rng: ChannelParty(KeyPair.generate(rng), bytes(31)), ValueError, "seed"),
    (lambda rng: make_world(rng, csv=0), ValueError, "csv_delay"),
    (same_party_on_both_sides, ValueError, "distinct"),
    (lambda rng: make_world(rng)[1].side_of(ChannelParty.generate(rng)), ValueError,
     "not a channel party"),
    (swept_before_justice, WindowExpired, "already swept"),
], ids=["party-seed-length", "csv-delay-0", "same-party-both-sides", "side-of-stranger",
        "justice-after-mempool-claims"])
def test_channels_refuse_malformed_values(rng, refused, error, match):
    """Each value check of the channel layer refuses with its own exception."""
    with pytest.raises(error, match=match) as e:
        refused(rng)
    assert e.type is error


def test_respond_leaves_the_breach_block_to_justice(rng):
    # At csv_delay 1 the ledger admits the cheater's delayed sweep in the
    # block after the breach, the one the victim's justice must go into.
    # The policy sweeps a block later, so whoever responds first there,
    # justice wins; a cheater who sweeps at the earliest block wins instead.
    ledger, ch, alice, bob = make_world(rng, fee=3, csv=1)
    add(ch, alice, 9_487)
    ch.unilateral_close(alice, commitment_number=0)
    mine_and_watch(ledger, ch)
    assert respond(ch, alice, {}) == []
    assert [s.kind for s in respond(ch, bob, {})] == ["justice"]
    ch.build_delayed_sweep(alice)
    assert respond(ch, bob, {}) == []


@pytest.mark.xfail(strict=True, reason="a revoked state's HTLC outputs carry no CSV on the "
                   "broadcaster's branch, so a cheater who submits first keeps them")
def test_cheater_cannot_outrun_justice_on_a_revoked_htlc():
    ledger, ch, alice, bob = make_world(random.Random(0xC0211), csv=1)
    for amount in (3_000, 2_000):  # bob pays alice his whole balance
        hid, secret = add(ch, bob, amount, secret=amount.to_bytes(32, "big"))
        ch.fulfill_htlc(hid, secret)
    hid, secret = add(ch, alice, 3_000)  # state 5; bob knows the preimage
    ch.fail_htlc(hid)  # state 6: alice 15,000, bob 0
    before_a = wallet(ledger, alice)
    ch.unilateral_close(bob, commitment_number=5)
    mine_and_watch(ledger, ch)
    assert ch.phase is ChannelPhase.BREACHED
    for party, secrets in ((bob, {hash_digest(HashFnId.SHA256, secret): secret}), (alice, {})):
        for spend in respond(ch, party, secrets):
            spend.build(*spend.args)
    mine_and_watch(ledger, ch)
    assert wallet(ledger, alice) == before_a + 15_000


@pytest.mark.xfail(strict=True, reason="a broadcaster pays its commitment's fee from its own "
                   "balance, so a side holding less than the fee cannot close")
def test_offerer_of_its_whole_balance_can_force_close():
    ledger, ch, alice, bob = make_world(random.Random(0xC0211), fee=1)
    add(ch, bob, 5_000, expiry=ledger.height + URGENT_BLOCKS + 1)
    mine_and_watch(ledger, ch)
    spend, = respond(ch, bob, {})
    assert spend.kind == "close"
    spend.build(*spend.args)


def guarded_world(rng, breach):
    """A channel alice closed at state 2, holding an HTLC each way: 100
    from alice to bob and 500 from bob to alice. With `breach`, state 2 is
    revoked first."""
    ledger, ch, alice, bob = make_world(rng, fee=10)
    to_bob, secret = add(ch, alice, 100, secret=b"a" * 32)
    to_alice, _ = add(ch, bob, 500, secret=b"b" * 32)
    if breach:
        ch.fail_htlc(to_alice)
    ch.unilateral_close(alice, commitment_number=2)
    mine_and_watch(ledger, ch)
    assert ch.phase is (ChannelPhase.BREACHED if breach else ChannelPhase.UNILATERAL_CLOSED)
    return ledger, ch, alice, bob, to_bob, to_alice, secret


@pytest.mark.parametrize("breach, refused, match", [
    (False, lambda ch, a, b, to_b, to_a, s: ch.build_delayed_sweep(b), "only the broadcaster"),
    (False, lambda ch, a, b, to_b, to_a, s: ch.build_htlc_claim(a, to_b, s), "offerer cannot claim"),
    (False, lambda ch, a, b, to_b, to_a, s: ch.build_htlc_claim(a, to_a, s), "htlc 2"),
    (False, lambda ch, a, b, to_b, to_a, s: ch.build_htlc_refund(a, to_a), "only the offerer"),
    (False, lambda ch, a, b, to_b, to_a, s: ch.build_htlc_refund(a, 999), "no htlc output"),
    (True, lambda ch, a, b, to_b, to_a, s: ch.punish_breach(a), "cannot punish itself"),
], ids=["sweep-by-non-broadcaster", "claim-by-offerer", "claim-bad-preimage",
        "refund-by-receiver", "refund-of-unknown-htlc", "justice-by-cheater"])
def test_builders_refuse_what_a_role_may_not_spend(rng, breach, refused, match):
    ledger, ch, alice, bob, to_bob, to_alice, secret = guarded_world(rng, breach)
    with pytest.raises(ChannelError, match=match):
        refused(ch, alice, bob, to_bob, to_alice, secret)
    assert ledger.mempool_empty()
    assert all(ledger.is_spendable(o.outpoint) for o in ch.close.outputs)


def test_fees_accounted_on_close_paths(rng):
    ledger, ch, alice, bob = make_world(rng, fee=10)
    hid, secret = add(ch, alice, 2_000)
    ch.fulfill_htlc(hid, secret)
    before_a, before_b = wallet(ledger, alice), wallet(ledger, bob)
    ch.cooperative_close()
    mine_and_watch(ledger, ch)
    # fee comes out of alice's output first
    assert wallet(ledger, alice) == before_a + 8_000 - 10
    assert wallet(ledger, bob) == before_b + 7_000
    assert conserved(ledger)


STEPS = st.lists(
    st.tuples(
        st.sampled_from(["add", "fulfil", "fail"]),
        st.booleans(),  # offerer is alice
        st.integers(1, 3_000),  # amount
        st.integers(0, 2**16),  # which pending HTLC to resolve
    ),
    max_size=40,
)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(steps=STEPS, fee=st.integers(1, 5), data=st.data())
def test_any_revoked_state_is_rebuilt_closed_and_punished(steps, fee, data):
    # Commitments are not stored: a broadcast of state n and its on-chain
    # classification both rebuild commitment n from the recorded state.
    ledger, ch, alice, bob = make_world(random.Random(0xC0211), fee=fee)
    secrets = {}
    for kind, by_alice, amount, pick in steps:
        if kind == "add":
            offerer = alice if by_alice else bob
            if ch.balance_of(offerer) < amount or amount <= fee:
                continue
            secret = len(secrets).to_bytes(32, "big")
            hid, _ = add(ch, offerer, amount, secret=secret)
            secrets[hid] = secret
        elif ch.pending_htlcs:
            h = ch.pending_htlcs[pick % len(ch.pending_htlcs)]
            if kind == "fulfil":
                ch.fulfill_htlc(h.htlc_id, secrets[h.htlc_id])
            else:
                ch.fail_htlc(h.htlc_id)
    assume(ch.commitment_number > 0)
    n = data.draw(st.integers(0, ch.commitment_number - 1), label="revoked n")
    cheater, honest = data.draw(st.sampled_from([(alice, bob), (bob, alice)]), label="cheater")
    side = ch.side_of(cheater)
    state = ch.recorded_states()[n]
    mine = state.balance_a if side == "a" else state.balance_b
    theirs = state.balance_b if side == "a" else state.balance_a
    in_htlcs = sum(h.amount for h in state.htlcs)
    # The cheater pays the commitment fee; justice pays one more.
    assume(mine >= fee and mine - fee + in_htlcs > fee)

    before = wallet(ledger, honest)
    ch.unilateral_close(cheater, commitment_number=n)
    mine_and_watch(ledger, ch)
    assert ch.phase is ChannelPhase.BREACHED
    assert (ch.close.side, ch.close.commitment) == (side, n)
    # The honest side's direct output is resolved by the commitment itself:
    # only the delayed and HTLC outputs are kept, at their output indices.
    expected = []
    if mine - fee > fee:  # a smaller delayed output is trimmed into the fee
        expected.append((mine - fee, None))
    expected += [(h.amount, h) for h in state.htlcs]
    assert [(o.amount, o.htlc) for o in ch.close.outputs] == expected
    for o in ch.close.outputs:
        assert ledger.utxo(o.outpoint).amount == o.amount

    justice = ch.punish_breach(honest)
    block, = ledger.mine_blocks(1)
    ch.process_block(block)
    revocable = ch.close.outputs
    assert revocable
    assert block.txids == (txid(justice),)
    assert [txin.outpoint for txin in justice.inputs] == [o.outpoint for o in revocable]
    assert not any(ledger.is_unspent(o.outpoint) for o in revocable)
    assert ch.phase is ChannelPhase.SETTLED
    assert wallet(ledger, honest) == before + theirs + sum(o.amount for o in revocable) - fee
    assert conserved(ledger)


def test_updates_sign_nothing_and_a_close_signs_once_per_party(rng, monkeypatch):
    # Signing is deferred to broadcast: no update builds a transaction.
    ledger, ch, alice, bob = make_world(rng)
    signs = []
    sign = KeyPair.sign

    def counted(self, digest):
        signs.append(self.pubkey)
        return sign(self, digest)

    monkeypatch.setattr(KeyPair, "sign", counted)
    for i in range(100):
        hid, secret = add(ch, alice if i % 2 else bob, 10, secret=i.to_bytes(32, "big"))
        if i % 3:
            ch.fulfill_htlc(hid, secret)
        else:
            ch.fail_htlc(hid)
    assert ch.commitment_number == 200
    assert signs == []
    ch.unilateral_close(alice)
    mine_and_watch(ledger, ch)
    assert ch.phase is ChannelPhase.UNILATERAL_CLOSED
    assert sorted(signs) == sorted([alice.pubkey, bob.pubkey])


def refused_by_builder(ch, state):
    for side in ("a", "b"):
        try:
            ch._commitment(side, state)
        except ChannelError:
            return True
    return False


UPDATES = st.lists(
    st.tuples(
        st.sampled_from(["add", "fulfil", "fail"]),
        st.booleans(),  # offerer is a
        st.integers(1, 4),  # quarters of the offerer's balance to offer
        st.integers(0, 2**16),  # which pending HTLC to resolve
    ),
    max_size=12,
)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    fund_a=st.integers(1, 60),
    fund_b=st.integers(1, 60),
    fee_over_capacity=st.integers(-3, 3) | st.integers(-120, 30),
    steps=UPDATES,
    keep_htlcs=st.booleans(),
    data=st.data(),
)
def test_update_refused_exactly_when_a_commitment_has_no_outputs(
    fund_a, fund_b, fee_over_capacity, steps, keep_htlcs, data
):
    # Oracle: the commitment builder itself, which update does not run.
    # The fee is drawn around the capacity, where refusals start.
    fee = max(0, fund_a + fund_b + fee_over_capacity)
    _, ch, _, _ = make_world(random.Random(0x5161), fee=fee, fund_a=fund_a, fund_b=fund_b)
    payment_hash = hash_digest(HashFnId.SHA256, b"s" * 32)
    next_id = 0

    def update(state):
        refused = refused_by_builder(ch, state)
        try:
            ch.update(state)
        except ChannelError:
            assert refused
            assert ch.commitment_number == state.commitment_number - 1
            return
        assert not refused
        assert ch.state == state

    for kind, by_a, quarters, pick in steps:
        s = ch.state
        if kind == "add":
            side = "a" if by_a else "b"
            balance = s.balance_a if by_a else s.balance_b
            if balance == 0:
                continue
            amount = max(1, balance * quarters // 4)
            next_id += 1
            h = Htlc(next_id, side, amount, HashFnId.SHA256, payment_hash, 50)
            update(CommitmentState(
                s.commitment_number + 1,
                s.balance_a - (amount if by_a else 0),
                s.balance_b - (0 if by_a else amount),
                s.htlcs + (h,),
            ))
        elif s.htlcs:
            h = s.htlcs[pick % len(s.htlcs)]
            to_a = (h.offerer_side == "a") == (kind == "fail")
            update(CommitmentState(
                s.commitment_number + 1,
                s.balance_a + (h.amount if to_a else 0),
                s.balance_b + (0 if to_a else h.amount),
                tuple(x for x in s.htlcs if x is not h),
            ))
    s = ch.state
    htlcs = s.htlcs if keep_htlcs else ()
    pool = ch.capacity - sum(h.amount for h in htlcs)
    to_a = data.draw(st.sampled_from([0, pool]) | st.integers(0, pool), label="final balance_a")
    update(CommitmentState(s.commitment_number + 1, to_a, pool - to_a, htlcs))


class ChannelMachine(RuleBasedStateMachine):
    """One channel under the honest on-chain policy. Steps add, fulfil and
    fail HTLCs, close honestly, broadcast a revoked state and mine; after
    each block both parties, in a drawn order (the cheater first once it
    has broadcast, the worst case for its victim), build every spend
    `respond` names, and the ledger must admit each one. HTLCs are at least
    100 and balances 0 or at least 100, so every output can pay its
    spend's fee.

    The wake contract, which lets a simulator visit a channel only when
    `respond` can act: after each block, whatever a party's `respond`
    names, `may_respond` holds; and after a quiet block (no rule ran since
    the last responses and the block confirmed nothing), any spend it
    names that it did not name at the last responses is named at one of
    the channel's wake heights: the `urgent_height` of a pending HTLC while
    the channel is open, else its `wake_heights`.

    At teardown, 40 blocks later, every honest side has gained at least
    its entitlement at close (its balance, the HTLCs it can claim and those
    it offered that the other side cannot claim) minus the fees of the
    transactions it built; a breach victim may lose one more fee, and the
    revoked-state HTLC outputs that the cheater's own claims or refunds
    took first (the race of
    `test_cheater_cannot_outrun_justice_on_a_revoked_htlc`).

    The machine also keeps every signed state as a list of the
    `CommitmentState`s the channel took: the differential oracle of the
    channel's compact record. After each add, fulfil, fail, close and
    breach, `recorded_states()` equals that list with the identical `Htlc`
    objects, and each close broadcasts the commitment `_commitment` builds
    from the oracle's state. After every step, `revoked_balances(side)`
    gives, for each side, that side's balance in each of the list's revoked
    states. After every block, a close the channel submitted carries a
    height exactly when the funding output is spent."""

    @initialize(fee=st.integers(0, 3), csv=st.integers(1, 6), alice_first=st.booleans())
    def open(self, fee, csv, alice_first):
        self.ledger, self.ch, alice, bob = make_world(random.Random(0xC0211), fee=fee, csv=csv)
        self.order = (alice, bob) if alice_first else (bob, alice)
        self.secrets = {"a": {}, "b": {}}  # side -> payment hash -> preimage
        self.preimages = {}  # htlc id -> preimage
        self.start = {side: wallet(self.ledger, self.ch.party(side)) for side in "ab"}
        self.fees = {"a": 0, "b": 0}  # fees of the transactions each side built
        self.built = {}  # txid -> (side, Spend kind, transaction)
        self.entitled = None  # side -> entitlement at close
        self.cheater = None
        self.taken = 0  # revoked-state HTLC outputs the cheater's spends confirmed
        self.changed = True  # a rule ran since the last responses
        self.named = {"a": set(), "b": set()}  # side -> (kind, htlc id) named last
        self.states = [self.ch.state]  # the oracle: every signed state, by number

    def _open(self):
        return self.ch.close is None

    def _check_record(self):
        """The channel's record rebuilds the oracle's states exactly."""
        recorded = self.ch.recorded_states()
        assert recorded == tuple(self.states)
        for got, want in zip(recorded, self.states):
            assert all(g is w for g, w in zip(got.htlcs, want.htlcs))

    def _updated(self):
        """Note the state an update just signed, then check the record."""
        self.states.append(self.ch.state)
        self.changed = True
        self._check_record()

    def _build(self, side, kind, build, *args):
        """Build, submit and return a transaction; a close also notes each
        side's entitlement under the latest state."""
        tx = build(*args)
        spent = sum(self.ledger.utxo(i.outpoint).amount for i in tx.inputs)
        self.fees[side] += spent - sum(o.amount for o in tx.outputs)
        self.built[txid(tx)] = (side, kind, tx)
        if kind == "close":
            s = self.ch.state
            self.entitled = {"a": s.balance_a, "b": s.balance_b}
            for h in s.htlcs:
                receiver = "b" if h.offerer_side == "a" else "a"
                knows = h.payment_hash in self.secrets[receiver]
                self.entitled[receiver if knows else h.offerer_side] += h.amount
        return tx

    @precondition(lambda self: self._open())
    @rule(by_a=st.booleans(), knows=st.booleans(),
          out=st.integers(URGENT_BLOCKS + 1, 12), data=st.data())
    def add(self, by_a, knows, out, data):
        offerer = "a" if by_a else "b"
        balance = self.ch.balance_of(self.ch.party(offerer))
        # A side left below the fee could not pay for its own commitment
        # (`test_offerer_of_its_whole_balance_can_force_close`), so it
        # keeps 0 only while the fee is 0.
        keeps = [st.integers(100, balance - 100)] if balance >= 200 else []
        if self.ledger.params.tx_fee == 0 and balance >= 100:
            keeps.append(st.just(0))
        if not keeps:
            return
        amount = balance - data.draw(st.one_of(keeps), label="keep")
        preimage = len(self.preimages).to_bytes(32, "big")
        payment_hash = hash_digest(HashFnId.SHA256, preimage)
        hid = self.ch.add_htlc(
            self.ch.party(offerer), amount, HashFnId.SHA256, payment_hash, self.ledger.height + out
        )
        self.preimages[hid] = preimage
        self._updated()
        if knows:
            self.secrets["b" if by_a else "a"][payment_hash] = preimage

    @precondition(lambda self: self._open() and self.ch.pending_htlcs)
    @rule(fulfil=st.booleans(), data=st.data())
    def resolve(self, fulfil, data):
        """Fulfil an HTLC whose receiver knows the preimage, or fail any."""
        htlcs = [h for h in self.ch.pending_htlcs if not fulfil
                 or h.payment_hash in self.secrets["b" if h.offerer_side == "a" else "a"]]
        if not htlcs:
            return
        h = data.draw(st.sampled_from(htlcs), label="htlc")
        if fulfil:
            self.ch.fulfill_htlc(h.htlc_id, self.preimages[h.htlc_id])
            self.secrets[h.offerer_side][h.payment_hash] = self.preimages[h.htlc_id]
        else:
            self.ch.fail_htlc(h.htlc_id)
        self._updated()

    def _close(self, side, n=None):
        """Broadcast `side`'s commitment n (the latest when None): the one
        built from the oracle's state n."""
        state = self.states[self.ch.commitment_number if n is None else n]
        want, _ = self.ch._commitment(side, state)
        tx = self._build(side, "close", self.ch.unilateral_close, self.ch.party(side), n)
        assert txid(tx) == txid(want)
        self.changed = True
        self._check_record()
        if n is not None:
            self.cheater = side
            self.order = sorted(self.order, key=lambda party: self.ch.side_of(party) != side)

    @precondition(lambda self: self._open())
    @rule(by_a=st.booleans())
    def close(self, by_a):
        self._close("a" if by_a else "b")

    def _revoked_htlcs(self):
        """Whether a revoked state holds an HTLC, something to race for."""
        return any(s.htlcs for s in self.states[:self.ch.commitment_number])

    @precondition(lambda self: self._open() and self._revoked_htlcs())
    @rule(by_a=st.booleans(), data=st.data())
    def breach(self, by_a, data):
        # counted back from the latest, so the recent states come first
        back = data.draw(st.integers(1, self.ch.commitment_number), label="states back")
        self._close("a" if by_a else "b", self.ch.commitment_number - back)

    @rule()
    def mine(self):
        block, = self.ledger.mine_blocks(1)
        self.ch.process_block(block)
        close = self.ch.close
        assert close is None or (close.height is None) == self.ledger.is_unspent(
            self.ch.funding_outpoint)
        for tx_id in block.txids:
            side, kind, tx = self.built[tx_id]
            if side == self.cheater and kind in ("claim", "refund"):
                amounts = {o.outpoint: o.amount for o in self.ch.close.outputs}
                self.taken += sum(amounts[txin.outpoint] for txin in tx.inputs)
        quiet = not self.changed and not block.txids
        for party in self.order:
            side = self.ch.side_of(party)
            spends = respond(self.ch, party, self.secrets[side])
            self._check_wake(side, spends, quiet)
            for spend in spends:  # each must be admitted
                self._build(side, spend.kind, spend.build, *spend.args)
        self.changed = False
        if self.ch.phase is ChannelPhase.BREACHED:
            # justice leaves the cheater nothing to take later
            assert not any(self.ledger.is_spendable(o.outpoint) for o in self.ch.close.outputs)

    def _check_wake(self, side, spends, quiet):
        """The wake contract (see the class docstring) for `side`'s spends."""
        height = self.ledger.height
        named = {(s.kind, s.htlc.htlc_id if s.htlc else None) for s in spends}
        if named:
            assert may_respond(self.ch, height), (named, height)
        if quiet and named - self.named[side]:
            if self.ch.phase is ChannelPhase.OPEN:
                wakes = {urgent_height(h.expiry_height) for h in self.ch.pending_htlcs}
            else:
                wakes = set(wake_heights(self.ch))
            assert height in wakes, (named, height, wakes)
        self.named[side] = named

    @invariant()
    def value_is_conserved(self):
        assert conserved(self.ledger)

    @invariant()
    def revoked_balances_are_the_oracles(self):
        revoked = self.states[:self.ch.commitment_number]
        assert list(self.ch.revoked_balances("a")) == [s.balance_a for s in revoked]
        assert list(self.ch.revoked_balances("b")) == [s.balance_b for s in revoked]

    def teardown(self):
        if not hasattr(self, "ch"):
            return
        for _ in range(40):
            self.mine()
        if self.ch.phase is ChannelPhase.OPEN:
            assert self.ch.pending_htlcs == ()
            return
        assert self.ch.phase is ChannelPhase.SETTLED
        fee = self.ledger.params.tx_fee
        for side in "ab":
            if side == self.cheater:
                continue
            floor = self.entitled[side] - self.fees[side]
            if self.cheater is not None:
                floor -= fee + self.taken
            assert wallet(self.ledger, self.ch.party(side)) - self.start[side] >= floor, side


ChannelMachine.TestCase.settings = settings(
    max_examples=500, stateful_step_count=30, derandomize=True, deadline=None
)
TestChannelMachine = ChannelMachine.TestCase
