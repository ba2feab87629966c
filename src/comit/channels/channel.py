"""Payment channel state machine.

One Channel object holds the shared view of both parties; operations take
the acting party where it matters. State advances through numbered
commitments. For each number n two transactions exist, one per party, and
each one:

  * pays the broadcaster's balance to Or(TimeLockRel(csv_delay, self),
    HashLock(rev_hash_n, other)): delayed if honest, forfeit if revoked,
  * pays the counterparty's balance directly to its key,
  * carries one output per pending HTLC: Or(HtlcScript(...), HashLock(
    rev_hash_n, other)). Justice can take a revoked state's HTLC outputs,
    but the HTLC branches carry no CSV, so a cheater who submits its claim
    or refund of one first keeps it (the strict xfail
    test_cheater_cannot_outrun_justice_on_a_revoked_htlc, ROADMAP item 5).

An update is one step: `update` records state n+1 once both commitments
of it would have an output and makes it current, which reveals both
parties' invalidation keys for n. Both parties share this one object and
the engine's faults act between events, so no half-updated state is kept.

The per-state invalidation key is the keyed BLAKE2b of n under the party's
revocation seed (BLAKE2's MAC mode, RFC 7693); its hash goes into the
revocation branches of that party's commitment n. Keys for the current
state are never revealed, and every key below it is.

A Channel retains the current state, the record of every signed state
(which breach handling needs) and its one `Close`, from the close's
broadcast to its settlement. The record keeps per commitment number n
only what n's state cannot derive: its `balance_a`, in one `array("Q")`,
and its HTLC tuple, in one list. n is the index, and `balance_b` is the
capacity less `balance_a` and the HTLC amounts, as `update` enforces;
`recorded_states` and `unilateral_close` rebuild a `CommitmentState` from
them on demand. A balance never exceeds the capacity, which the funding
output, like every output, holds to the ledger's MAX_AMOUNT (2**64 - 1),
so every recorded balance fits the array.

Of a confirmed commitment a Channel keeps only the outputs a party may
still spend, after BOLT #5: the broadcaster's delayed output and the
HTLC outputs. The counterparty's direct output pays a bare key, so the
commitment itself resolves it. A Channel keeps no record of what is
spent: it reads that from its ledger, and it knows its close by the txid
of the close it submitted. So process_block must see each block that
confirms one of the channel's transactions, right after that block is
mined; a block that confirms none of them changes nothing on the
channel. A transaction is built and signed only when it is broadcast:
signing is a deterministic keyed-BLAKE2b MAC and the ledger checks
signatures on submission, so building commitment n from state n in
unilateral_close gives the transaction both parties agreed on.

`respond` is the honest on-chain policy, after BOLT #5
(https://github.com/lightning/bolts/blob/master/05-onchain.md): from the
channel, its ledger's height and what a party knows, it names the spends
that party makes now. Each one is a bound builder above and its arguments.
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Mapping, Optional, Sequence

from ..chainlab import (
    DIGEST_SIZE,
    HashFnId,
    HashLock,
    HtlcScript,
    KeyPair,
    Ledger,
    Multisig2of2,
    Or,
    Outpoint,
    PayToKey,
    TimeLockRel,
    Transaction,
    TxIn,
    TxOut,
    Witness,
    hash_digest,
    txid,
    txid_of,
)
from ..chainlab.ledger import BlockSummary


class ChannelError(Exception):
    pass


class InsufficientFunds(ChannelError):
    """Party cannot fund its side of the channel from its on-chain coins."""


class InsufficientBalance(ChannelError):
    """Offered HTLC exceeds the offerer's channel balance."""


class UnsupportedHashFunction(ChannelError):
    """The channel's chain cannot evaluate the requested hash function."""


class StalePhase(ChannelError):
    """Operation requires a phase the channel is no longer in."""


class BadPreimage(ChannelError):
    pass


class UnknownHtlc(ChannelError):
    pass


class PendingHtlcs(ChannelError):
    """Cooperative close requires all HTLCs resolved first."""


class WindowExpired(ChannelError):
    """The cheater's delayed output was already swept; too late to punish."""


class AmountBelowDust(ChannelError):
    pass


class ChannelPhase(Enum):
    OPEN = "open"
    COOPERATIVE_CLOSING = "cooperative-closing"
    UNILATERAL_CLOSED = "unilateral-closed"
    BREACHED = "breached"
    SETTLED = "settled"


# Phases of a channel closed on-chain whose outputs are not all resolved.
CLOSED_ON_CHAIN = (ChannelPhase.UNILATERAL_CLOSED, ChannelPhase.BREACHED)


@dataclass(frozen=True, slots=True)
class ChannelParty:
    keypair: KeyPair
    revocation_seed: bytes = field(repr=False)  # secret: kept out of reprs

    def __post_init__(self) -> None:
        if len(self.revocation_seed) != 32:
            raise ValueError("revocation seed must be 32 bytes")

    @property
    def pubkey(self) -> bytes:
        return self.keypair.pubkey

    @classmethod
    def generate(cls, rng) -> "ChannelParty":
        return cls(KeyPair.generate(rng), rng.randbytes(32))


@dataclass(frozen=True, slots=True)
class Htlc:
    htlc_id: int
    offerer_side: str  # "a" or "b"
    amount: int
    hash_fn: HashFnId
    payment_hash: bytes
    expiry_height: int

    def __post_init__(self) -> None:
        # Refuse what no commitment output could carry, so a channel never
        # records an HTLC it could not close on.
        if len(self.payment_hash) != DIGEST_SIZE:
            raise ValueError("payment_hash must be 32 bytes")
        if self.amount < 0 or self.expiry_height < 0:
            raise ValueError("htlc amount and expiry must be >= 0")


@dataclass(frozen=True, slots=True)
class CommitmentState:
    commitment_number: int
    balance_a: int
    balance_b: int
    htlcs: tuple[Htlc, ...]


@dataclass(frozen=True, slots=True)
class ClosedOutput:
    """An output of a confirmed commitment that a party may still spend:
    the broadcaster's delayed output when `htlc` is None, else `htlc`'s.
    The counterparty's direct output is not one: the commitment resolves
    it (BOLT #5)."""

    outpoint: Outpoint
    amount: int
    htlc: Optional[Htlc]


@dataclass(slots=True)
class Close:
    """The one close a channel submits. `side` is the broadcaster's, None for
    the cooperative close, which has no `outputs` and charges (party_a,
    party_b) `fees`. The confirming block stamps its `height`."""

    txid: bytes
    side: Optional[str]
    commitment: int
    outputs: list[ClosedOutput]
    fees: Optional[tuple[int, int]] = None
    height: Optional[int] = None


def empty_commitment(balance_a: int, balance_b: int, tx_fee: int, htlcs: tuple = ()) -> bool:
    """Whether a commitment would have no output: with no HTLCs and one balance
    at 0, its fee and a trimmed delayed output take up to two fees."""
    return not htlcs and min(balance_a, balance_b) == 0 and max(balance_a, balance_b) <= 2 * tx_fee


def _signed(
    outpoints, outputs, keys, preimages=(), branch: Optional[int] = None
) -> Transaction:
    """The transaction spending `outpoints` into `outputs`, every input
    carrying one witness: each key's signature over the txid, the
    preimages and the Or branch."""
    outputs = tuple(outputs)
    digest = txid_of(outpoints, outputs)
    witness = Witness(
        signatures=tuple(key.sign(digest) for key in keys),
        preimages=tuple(preimages),
        branch_selector=branch,
    )
    tx = Transaction(inputs=tuple(TxIn(op, witness) for op in outpoints), outputs=outputs)
    # witnesses are outside the txid, so the signed digest is the transaction's
    object.__setattr__(tx, "_txid", digest)
    return tx


def open_channel(
    ledger: Ledger,
    party_a: ChannelParty,
    party_b: ChannelParty,
    fund_a: int,
    fund_b: int,
    csv_delay: int = 6,
    dust_limit: int = 0,
) -> "Channel":
    """Fund and open a channel. The funding fee is paid by party_a.

    One block is mined, so the channel comes back with its funding
    confirmed.
    """
    if csv_delay < 1:
        raise ValueError("csv_delay must be >= 1")
    if fund_a < 0 or fund_b < 0 or fund_a + fund_b <= 0:
        raise ValueError("funding amounts must be non-negative and positive in total")
    if party_a.pubkey == party_b.pubkey:
        raise ValueError("channel parties must be distinct")
    fee = ledger.params.tx_fee

    def select(party: ChannelParty, needed: int):
        picked, total = [], 0
        for op, amount in ledger.spendable_by(party.pubkey):
            if total >= needed:
                break
            picked.append((op, amount))
            total += amount
        if total < needed:
            raise InsufficientFunds(
                f"need {needed}, have {total} spendable for {party.pubkey.hex()[:8]}"
            )
        return picked, total

    coins_a, total_a = select(party_a, fund_a + fee)
    coins_b, total_b = select(party_b, fund_b) if fund_b else ([], 0)

    outputs = [TxOut(fund_a + fund_b, Multisig2of2(party_a.pubkey, party_b.pubkey))]
    change_a = total_a - fund_a - fee
    change_b = total_b - fund_b
    if change_a > 0:
        outputs.append(TxOut(change_a, PayToKey(party_a.pubkey)))
    if change_b > 0:
        outputs.append(TxOut(change_b, PayToKey(party_b.pubkey)))
    funders = [party_a.keypair] + ([party_b.keypair] if coins_b else [])
    funding = _signed([op for op, _ in coins_a + coins_b], outputs, funders)

    channel = Channel(
        ledger=ledger,
        party_a=party_a,
        party_b=party_b,
        funding_outpoint=Outpoint(txid(funding), 0),
        csv_delay=csv_delay,
        dust_limit=dust_limit,
        initial_balance_a=fund_a,
        initial_balance_b=fund_b,
    )
    # Commitment 0 is recorded (or refused) before the funding tx goes
    # anywhere near the chain, so neither party can strand the other's
    # deposit and a refused channel moves no coin.
    ledger.submit_tx(funding)
    ledger.mine_blocks(1)
    return channel


class Channel:
    __slots__ = ("ledger", "party_a", "party_b", "funding_outpoint", "capacity", "csv_delay",
                 "dust_limit", "phase", "revocation_fn", "state", "_balances_a", "_htlc_sets",
                 "close")

    def __init__(
        self,
        ledger: Ledger,
        party_a: ChannelParty,
        party_b: ChannelParty,
        funding_outpoint: Outpoint,
        csv_delay: int,
        dust_limit: int,
        initial_balance_a: int,
        initial_balance_b: int,
    ):
        self.ledger = ledger
        self.party_a = party_a
        self.party_b = party_b
        self.funding_outpoint = funding_outpoint
        self.capacity = initial_balance_a + initial_balance_b
        self.csv_delay = csv_delay
        self.dust_limit = dust_limit
        self.phase = ChannelPhase.OPEN
        # Revocation hashes use one fixed function of the chain's set.
        self.revocation_fn = sorted(ledger.params.hash_fns, key=lambda f: f.value)[0]
        self.state = CommitmentState(0, initial_balance_a, initial_balance_b, ())
        # balance_a and the HTLC tuple of every recorded state, indexed by
        # its commitment number (see `_recorded`)
        self._balances_a = array("Q")
        self._htlc_sets: list[tuple[Htlc, ...]] = []
        # only the channel spends its funding outpoint
        self.close: Optional[Close] = None
        self._record_state(self.state)

    # --- identity helpers ----------------------------------------------------

    def side_of(self, party: ChannelParty) -> str:
        if party.pubkey == self.party_a.pubkey:
            return "a"
        if party.pubkey == self.party_b.pubkey:
            return "b"
        raise ValueError("not a channel party")

    def party(self, side: str) -> ChannelParty:
        return self.party_a if side == "a" else self.party_b

    def other(self, side: str) -> ChannelParty:
        return self.party_b if side == "a" else self.party_a

    def balance_of(self, party: ChannelParty) -> int:
        return self.state.balance_a if self.side_of(party) == "a" else self.state.balance_b

    @property
    def commitment_number(self) -> int:
        return self.state.commitment_number

    @property
    def pending_htlcs(self) -> tuple[Htlc, ...]:
        return self.state.htlcs

    def htlc(self, htlc_id: int) -> Htlc:
        for h in self.state.htlcs:
            if h.htlc_id == htlc_id:
                return h
        raise UnknownHtlc(f"htlc {htlc_id}")

    def recorded_states(self) -> tuple[CommitmentState, ...]:
        """Every commitment state this channel has signed, indexed by number,
        each rebuilt from its recorded balance and HTLC tuple: equal to the
        state passed to `update`, holding the same `Htlc` objects.

        States below the current commitment number are revoked; broadcasting
        one of them is a breach the counterparty can punish."""
        return tuple(map(self._recorded, range(len(self._htlc_sets))))

    def revoked_balances(self, side: str) -> Sequence[int]:
        """`side`'s balance in each revoked state, indexed by number: the
        balances of `recorded_states()[:commitment_number]`, read from the
        record without rebuilding a state."""
        n = self.commitment_number
        if side == "a":
            return self._balances_a[:n]
        return [self.capacity - balance_a - sum(h.amount for h in htlcs)
                for balance_a, htlcs in zip(self._balances_a[:n], self._htlc_sets)]

    def _recorded(self, n: int) -> CommitmentState:
        """Recorded state n: balance_b is what capacity leaves."""
        balance_a, htlcs = self._balances_a[n], self._htlc_sets[n]
        return CommitmentState(
            n, balance_a, self.capacity - balance_a - sum(h.amount for h in htlcs), htlcs
        )

    # --- revocation keys -------------------------------------------------------

    def revocation_key(self, side: str, n: int) -> bytes:
        seed = self.party(side).revocation_seed
        return hashlib.blake2b(n.to_bytes(8, "little"), key=seed, digest_size=32).digest()

    def revocation_hash(self, side: str, n: int) -> bytes:
        return hash_digest(self.revocation_fn, self.revocation_key(side, n))

    # --- commitment construction ------------------------------------------------

    def _commitment(
        self, side: str, state: CommitmentState
    ) -> tuple[Transaction, list[ClosedOutput]]:
        """`side`'s signed commitment for `state`, and its outputs a party
        may still spend once it confirms, in output order."""
        other = self.other(side)
        my_balance = state.balance_a if side == "a" else state.balance_b
        other_balance = state.balance_b if side == "a" else state.balance_a
        # Broadcaster pays the mining fee out of its own delayed output,
        # clipped so a poor broadcaster can still build (the ledger will
        # refuse an underpaying broadcast instead). A delayed output no
        # larger than the fee could never pay for its own sweep, so it is
        # trimmed into the commitment's fee (BOLT #3's trimmed outputs).
        fee = min(self.ledger.params.tx_fee, my_balance)
        rev_hash = self.revocation_hash(side, state.commitment_number)
        revoke = HashLock(self.revocation_fn, rev_hash, other.pubkey)
        outputs: list[TxOut] = []
        kept: list[tuple[int, Optional[Htlc]]] = []  # output index, htlc
        if my_balance - fee > self.ledger.params.tx_fee:
            delayed = Or(TimeLockRel(self.csv_delay, self.party(side).pubkey), revoke)
            kept.append((len(outputs), None))
            outputs.append(TxOut(my_balance - fee, delayed))
        if other_balance > 0:
            outputs.append(TxOut(other_balance, PayToKey(other.pubkey)))
        for h in sorted(state.htlcs, key=lambda h: h.htlc_id):
            receiver, offerer = self.other(h.offerer_side), self.party(h.offerer_side)
            script = HtlcScript(
                h.hash_fn, h.payment_hash, receiver.pubkey, offerer.pubkey, h.expiry_height
            )
            kept.append((len(outputs), h))
            outputs.append(TxOut(h.amount, Or(script, revoke)))
        if not outputs:
            raise ChannelError("commitment would have no outputs")
        tx = _signed(
            (self.funding_outpoint,), outputs, (self.party_a.keypair, self.party_b.keypair)
        )
        tx_id = txid(tx)
        return tx, [ClosedOutput(Outpoint(tx_id, i), outputs[i].amount, h) for i, h in kept]

    def _record_state(self, state: CommitmentState) -> None:
        """Refuse `state` exactly when `_commitment` would for either side
        (`empty_commitment`), then record it; nothing is built or signed.
        Numbers advance by one, so `state` is the next entry of the
        record."""
        if empty_commitment(state.balance_a, state.balance_b, self.ledger.params.tx_fee,
                            state.htlcs):
            raise ChannelError("commitment would have no outputs")
        self._balances_a.append(state.balance_a)
        self._htlc_sets.append(state.htlcs)

    # --- update ---------------------------------------------------------------

    def update(self, new_state: CommitmentState) -> None:
        """Both parties sign the next commitment and reveal their
        invalidation keys for the one it replaces, which is now revoked."""
        self._require_open()
        if new_state.commitment_number != self.state.commitment_number + 1:
            raise ValueError("commitment numbers must advance by exactly 1")
        total = (
            new_state.balance_a
            + new_state.balance_b
            + sum(h.amount for h in new_state.htlcs)
        )
        if total != self.capacity:
            raise ValueError("state does not conserve channel capacity")
        if new_state.balance_a < 0 or new_state.balance_b < 0:
            raise ValueError("negative balance")
        self._record_state(new_state)
        self.state = new_state

    def _update(self, side: str, amount: int, htlcs: tuple[Htlc, ...]) -> None:
        """`update` to the next state: `amount` moved into `side`'s balance
        (out of it if negative), holding `htlcs`."""
        st = self.state
        self.update(CommitmentState(
            commitment_number=st.commitment_number + 1,
            balance_a=st.balance_a + (amount if side == "a" else 0),
            balance_b=st.balance_b + (amount if side == "b" else 0),
            htlcs=htlcs,
        ))

    def _require_open(self) -> None:
        # every phase but OPEN follows a close
        if self.close is not None:
            raise StalePhase(f"channel is {self.phase.value}")

    # --- HTLC operations -------------------------------------------------------

    def add_htlc(
        self,
        offerer: ChannelParty,
        amount: int,
        hash_fn: HashFnId,
        payment_hash: bytes,
        expiry_height: int,
    ) -> int:
        self._require_open()
        if hash_fn not in self.ledger.params.hash_fns:
            raise UnsupportedHashFunction(hash_fn.value)
        if amount < 1:
            raise ValueError("htlc amount must be >= 1")
        if amount < self.dust_limit:
            raise AmountBelowDust(f"{amount} < dust limit {self.dust_limit}")
        if amount <= self.ledger.params.tx_fee:
            raise AmountBelowDust(f"{amount} <= tx_fee {self.ledger.params.tx_fee}")
        if expiry_height <= self.ledger.height:
            raise ValueError("expiry_height must be above the current height")
        side = self.side_of(offerer)
        balance = self.state.balance_a if side == "a" else self.state.balance_b
        if balance < amount:
            raise InsufficientBalance(f"balance {balance} < htlc {amount}")
        # the number of the commitment adding it: unique, and rising in
        # commitment output order
        h = Htlc(
            htlc_id=self.state.commitment_number + 1,
            offerer_side=side,
            amount=amount,
            hash_fn=hash_fn,
            payment_hash=payment_hash,
            expiry_height=expiry_height,
        )
        self._update(side, -amount, self.state.htlcs + (h,))
        return h.htlc_id

    def fulfill_htlc(self, htlc_id: int, preimage: bytes) -> None:
        self._require_open()
        h = self.htlc(htlc_id)
        if hash_digest(h.hash_fn, preimage) != h.payment_hash:
            raise BadPreimage(f"htlc {htlc_id}")
        receiver_side = "b" if h.offerer_side == "a" else "a"
        self._update(receiver_side, h.amount, tuple(x for x in self.state.htlcs if x is not h))

    def fail_htlc(self, htlc_id: int) -> None:
        self._require_open()
        h = self.htlc(htlc_id)
        self._update(h.offerer_side, h.amount, tuple(x for x in self.state.htlcs if x is not h))

    # --- closing ------------------------------------------------------------

    def cooperative_close(self) -> Transaction:
        self._require_open()
        if self.state.htlcs:
            raise PendingHtlcs(f"{len(self.state.htlcs)} HTLCs pending")
        fee = self.ledger.params.tx_fee
        fee_a = min(fee, self.state.balance_a)
        fee_b = fee - fee_a
        outputs = []
        if self.state.balance_a - fee_a > 0:
            outputs.append(TxOut(self.state.balance_a - fee_a, PayToKey(self.party_a.pubkey)))
        if self.state.balance_b - fee_b > 0:
            outputs.append(TxOut(self.state.balance_b - fee_b, PayToKey(self.party_b.pubkey)))
        if not outputs:
            raise ChannelError("close would have no outputs")
        tx = _signed(
            (self.funding_outpoint,), outputs, (self.party_a.keypair, self.party_b.keypair)
        )
        self.ledger.submit_tx(tx)
        self.close = Close(txid(tx), None, self.state.commitment_number, [], (fee_a, fee_b))
        self.phase = ChannelPhase.COOPERATIVE_CLOSING
        return tx

    def unilateral_close(
        self, party: ChannelParty, commitment_number: Optional[int] = None
    ) -> Transaction:
        """Broadcast `party`'s commitment. Passing an old commitment_number is
        how a cheat is staged; honest callers leave it at the latest."""
        side = self.side_of(party)
        n = self.state.commitment_number if commitment_number is None else commitment_number
        if not 0 <= n < len(self._htlc_sets):
            raise ValueError(f"no commitment {n} for side {side}")
        tx, outs = self._commitment(side, self._recorded(n))
        self.ledger.submit_tx(tx)
        self.close = Close(txid(tx), side, n, outs)
        return tx

    # --- on-chain observation -------------------------------------------------

    def process_block(self, summary: BlockSummary) -> None:
        """Advance channel phase from what this block confirmed. Every close
        of the channel is built and submitted by it, one at a time, and
        confirms in the next block, so the close in flight is the one spend
        of the funding outpoint a block can hold."""
        close = self.close
        if close is not None and close.txid in summary.txids:
            close.height = summary.height
            if close.side is None:
                self.phase = ChannelPhase.SETTLED
            elif close.commitment < self.state.commitment_number:
                self.phase = ChannelPhase.BREACHED
            else:
                self.phase = ChannelPhase.UNILATERAL_CLOSED

        # Mining empties the mempool, so right after a block every unspent
        # output is spendable.
        if self.phase in CLOSED_ON_CHAIN and not self._spendable_outputs():
            self.phase = ChannelPhase.SETTLED

    def _spendable_outputs(self) -> list[ClosedOutput]:
        """The close's outputs the ledger still offers as spendable."""
        return [o for o in self.close.outputs if self.ledger.is_spendable(o.outpoint)]

    # --- post-close spends ------------------------------------------------------

    def _closed_output(self, htlc_id: Optional[int] = None) -> ClosedOutput:
        """The confirmed commitment's output of HTLC `htlc_id`, or its
        delayed output when `htlc_id` is None."""
        if self.phase not in (*CLOSED_ON_CHAIN, ChannelPhase.SETTLED):
            raise StalePhase(self.phase.value)
        for o in self.close.outputs:
            if (None if o.htlc is None else o.htlc.htlc_id) == htlc_id:
                return o
        kind = "delayed" if htlc_id is None else "htlc"
        raise ChannelError(f"no {kind} output on the confirmed commitment")

    def _claim(
        self,
        party: ChannelParty,
        outs: list[ClosedOutput],
        preimages: tuple[bytes, ...] = (),
        branch: int = 0,
    ) -> Transaction:
        """Spend `outs` to `party`'s key in one transaction paying one fee."""
        total = sum(o.amount for o in outs)
        fee = self.ledger.params.tx_fee
        if total <= fee:
            raise ChannelError(f"output {total} cannot pay fee {fee}")
        tx = _signed(
            [o.outpoint for o in outs],
            (TxOut(total - fee, PayToKey(party.pubkey)),),
            (party.keypair,),
            preimages,
            branch,
        )
        self.ledger.submit_tx(tx)
        return tx

    def build_delayed_sweep(self, party: ChannelParty) -> Transaction:
        """Closer sweeps its own delayed output. It can confirm no earlier
        than csv_delay blocks after the commitment; the ledger refuses it as
        premature until then."""
        out = self._closed_output()
        if self.side_of(party) != self.close.side:
            raise ChannelError("only the broadcaster has a delayed output")
        return self._claim(party, [out])

    def build_htlc_claim(
        self, party: ChannelParty, htlc_id: int, preimage: bytes
    ) -> Transaction:
        """HTLC receiver claims an on-chain HTLC output with the preimage."""
        out = self._closed_output(htlc_id)
        h = out.htlc
        if self.side_of(party) == h.offerer_side:
            raise ChannelError("offerer cannot claim; use the refund branch")
        if hash_digest(h.hash_fn, preimage) != h.payment_hash:
            raise BadPreimage(f"htlc {htlc_id}")
        return self._claim(party, [out], (preimage,))

    def build_htlc_refund(self, party: ChannelParty, htlc_id: int) -> Transaction:
        """HTLC offerer takes the refund branch. It can confirm no earlier
        than the HTLC's expiry height; the ledger refuses it as premature
        until then."""
        out = self._closed_output(htlc_id)
        if self.side_of(party) != out.htlc.offerer_side:
            raise ChannelError("only the offerer can refund")
        return self._claim(party, [out])

    def punish_breach(self, honest_party: ChannelParty) -> Transaction:
        """Claim every revocable output of the cheater's stale commitment
        (their delayed balance plus all HTLC outputs) in one justice tx."""
        close = self.close
        if self.phase is not ChannelPhase.BREACHED:
            if self.phase is ChannelPhase.SETTLED and close.commitment < self.commitment_number:
                raise WindowExpired("revocable outputs already swept")
            raise StalePhase(self.phase.value)
        if self.side_of(honest_party) == close.side:
            raise ChannelError("the cheater cannot punish itself")
        targets = self._spendable_outputs()
        if not targets:
            raise WindowExpired("revocable outputs already swept")
        key = self.revocation_key(close.side, close.commitment)
        return self._claim(honest_party, targets, (key,), branch=1)


# An HTLC this close to expiry (in blocks) goes on-chain.
URGENT_BLOCKS = 2


def urgent_height(expiry_height: int) -> int:
    """The height from which `respond` force-closes for an open HTLC."""
    return expiry_height - URGENT_BLOCKS


def _maturity(channel: Channel, out: ClosedOutput) -> int:
    """The height from which `respond` spends a closed output with no
    preimage: delayed, csv_delay blocks after the close; HTLC, its expiry."""
    return channel.close.height + channel.csv_delay if out.htlc is None else out.htlc.expiry_height


def wake_heights(channel: Channel) -> list[int]:
    """The `_maturity` of each output of a confirmed close: the heights at
    which `respond` may first name a spend on a closed channel for height
    alone."""
    if channel.phase is ChannelPhase.OPEN:  # no close has confirmed
        return []
    return [_maturity(channel, o) for o in channel.close.outputs]


def may_respond(channel: Channel, height: int) -> bool:
    """Whether `respond` may name a spend on `channel` at `height` for either
    party: the channel is closed on-chain and not settled, or open with an
    HTLC at or past its `urgent_height`. Looser than `respond`, it ignores
    who offered the HTLC, who knows its preimage and any close in flight."""
    if channel.phase is not ChannelPhase.OPEN:
        return channel.phase in CLOSED_ON_CHAIN
    return any(height >= urgent_height(h.expiry_height) for h in channel.pending_htlcs)


@dataclass(frozen=True, slots=True)
class Spend:
    """Any transaction a party puts on chain: `build(*args)` builds and submits it."""

    kind: str  # "close" | "justice" | "sweep" | "claim" | "refund" | "cooperative" | "breach"
    build: Callable[..., Transaction]
    args: tuple
    htlc: Optional[Htlc] = None


def respond(
    channel: Channel, party: ChannelParty, secrets: Mapping[bytes, bytes]
) -> list[Spend]:
    """The spends an honest `party`, knowing the preimages `secrets` (by
    payment hash), makes on `channel` at its ledger's height.

    On an open channel with no close in flight, it force-closes once an HTLC
    it offered, or can claim, is within URGENT_BLOCKS of expiry. After a
    breach by the other side, it punishes while a revocable output is
    spendable. Otherwise it spends each spendable closed output it can: its
    own delayed output once csv_delay blocks have passed since the close,
    every HTLC it can claim, and every HTLC it offered once expired (the
    heights of `urgent_height` and `_maturity`, as in `wake_heights`)."""
    side = channel.side_of(party)
    height = channel.ledger.height
    if channel.phase is ChannelPhase.OPEN:
        if channel.close is None and any(
            height >= urgent_height(h.expiry_height)
            and (h.offerer_side == side or h.payment_hash in secrets)
            for h in channel.pending_htlcs
        ):
            return [Spend("close", channel.unilateral_close, (party,))]
        return []
    outputs = channel._spendable_outputs()
    if channel.phase is ChannelPhase.BREACHED and side != channel.close.side:
        return [Spend("justice", channel.punish_breach, (party,))] if outputs else []
    spends = []
    for out in outputs:
        h = out.htlc
        if h is None:  # the broadcaster's delayed output
            if side == channel.close.side and height >= _maturity(channel, out):
                spends.append(Spend("sweep", channel.build_delayed_sweep, (party,)))
        elif h.offerer_side != side and h.payment_hash in secrets:
            preimage = secrets[h.payment_hash]
            spends.append(Spend("claim", channel.build_htlc_claim, (party, h.htlc_id, preimage), h))
        elif h.offerer_side == side and height >= _maturity(channel, out):
            spends.append(Spend("refund", channel.build_htlc_refund, (party, h.htlc_id), h))
    return spends
