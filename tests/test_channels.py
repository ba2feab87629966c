import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from comit.chainlab import (
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
    UnsupportedHashFunction,
    WindowExpired,
    open_channel,
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
    with pytest.raises(ValueError):
        add(ch, alice, 100, expiry=ledger.height)  # not in the future
    for size in (31, 33):  # no commitment could carry this HTLC
        with pytest.raises(ValueError):
            ch.add_htlc(alice, 100, HashFnId.SHA256, b"h" * size, 50)
    assert ch.state == CommitmentState(0, 10_000, 5_000, ())
    with pytest.raises(ValueError):  # nor can a directly proposed state hold one
        Htlc(1, "a", -5, HashFnId.SHA256, b"h" * 32, 50)
    hid, secret = add(ch, alice, 100)
    with pytest.raises(BadPreimage):
        ch.fulfill_htlc(hid, b"wrong" * 8)
    with pytest.raises(UnknownHtlc):
        ch.fulfill_htlc(999, secret)
    with pytest.raises(PendingHtlcs):
        ch.cooperative_close()


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
    assert ch.closed_by == "a"
    close_height = ch.closed_height
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
    close_height = ch.closed_height
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
    breach_height = ch.closed_height
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
    breach_height = ch.closed_height
    assert submit_when_mature(ledger, ch, ch.build_delayed_sweep, alice) == breach_height + csv - 1
    mine_and_watch(ledger, ch)
    assert ch.phase is ChannelPhase.SETTLED
    with pytest.raises(WindowExpired):
        ch.punish_breach(bob)


def test_crash_between_update_phases_strands_nothing(rng):
    # Sign-new happened, reveal-old did not: both states broadcastable,
    # neither punishable.
    ledger, ch, alice, bob = make_world(rng)
    hid, secret = add(ch, alice, 1_000)
    ch.fulfill_htlc(hid, secret)  # state 2
    n = ch.commitment_number
    new_state = CommitmentState(
        commitment_number=n + 1,
        balance_a=ch.state.balance_a - 500,
        balance_b=ch.state.balance_b + 500,
        htlcs=(),
    )
    ch.propose_update(new_state)  # phase one only; "crash" here
    assert ch.revealed_key("a", n) is None
    assert ch.revealed_key("b", n) is None
    # broadcasting the newer, signed state works and is not a breach
    ch.unilateral_close(bob, commitment_number=n + 1)
    mine_and_watch(ledger, ch)
    assert ch.phase is ChannelPhase.UNILATERAL_CLOSED
    with pytest.raises(StalePhase):
        ch.punish_breach(alice)


def test_current_keys_never_revealed_across_random_history(rng):
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
        n = ch.commitment_number
        assert ch.revealed_key("a", n) is None
        assert ch.revealed_key("b", n) is None
        for m in range(n):
            assert ch.revealed_key("a", m) is not None
            assert ch.revealed_key("b", m) is not None
        total = ch.state.balance_a + ch.state.balance_b + sum(
            h.amount for h in ch.pending_htlcs
        )
        assert total == ch.capacity


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
            if ch.balance_of(offerer) < amount:
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
    assert (ch.closed_by, ch.closed_commitment) == (side, n)
    expected = []
    if mine - fee > 0:
        expected.append(("delayed", side, mine - fee, None))
    if theirs > 0:
        expected.append(("direct", ch.side_of(honest), theirs, None))
    expected += [("htlc", h.offerer_side, h.amount, h) for h in state.htlcs]
    assert [(o.kind, o.owner_side, o.amount, o.htlc) for o in ch.closed_outputs] == expected
    for o in ch.closed_outputs:
        assert ledger.utxo(o.outpoint).amount == o.amount

    justice = txid(ch.punish_breach(honest))
    block, = ledger.mine_blocks(1)
    ch.process_block(block)
    revocable = [o for o in ch.closed_outputs if o.kind != "direct"]
    assert revocable
    assert block.spent == tuple((o.outpoint, justice) for o in revocable)
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
    # Oracle: the commitment builder itself, which propose_update does not run.
    # The fee is drawn around the capacity, where refusals start.
    fee = max(0, fund_a + fund_b + fee_over_capacity)
    _, ch, _, _ = make_world(random.Random(0x5161), fee=fee, fund_a=fund_a, fund_b=fund_b)
    payment_hash = hash_digest(HashFnId.SHA256, b"s" * 32)
    next_id = 0

    def propose(state):
        refused = refused_by_builder(ch, state)
        try:
            ch.propose_update(state)
        except ChannelError:
            assert refused
            assert ch.commitment_number == state.commitment_number - 1
            return
        assert not refused
        ch.commit_update()
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
            propose(CommitmentState(
                s.commitment_number + 1,
                s.balance_a - (amount if by_a else 0),
                s.balance_b - (0 if by_a else amount),
                s.htlcs + (h,),
            ))
        elif s.htlcs:
            h = s.htlcs[pick % len(s.htlcs)]
            to_a = (h.offerer_side == "a") == (kind == "fail")
            propose(CommitmentState(
                s.commitment_number + 1,
                s.balance_a + (h.amount if to_a else 0),
                s.balance_b + (0 if to_a else h.amount),
                tuple(x for x in s.htlcs if x is not h),
            ))
    s = ch.state
    htlcs = s.htlcs if keep_htlcs else ()
    pool = ch.capacity - sum(h.amount for h in htlcs)
    to_a = data.draw(st.sampled_from([0, pool]) | st.integers(0, pool), label="final balance_a")
    propose(CommitmentState(s.commitment_number + 1, to_a, pool - to_a, htlcs))
