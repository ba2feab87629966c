"""Deterministic discrete-event execution of scenario files.

Time is a single global tick counter. Each chain mines one block every
`block_interval` ticks; every protocol message (HTLC offer, fulfill, fail)
takes one tick to cross a channel. Events are processed in (tick, insertion
order), actors are visited in sorted name order, chains in sorted id order,
so a scenario plus its seed pins the entire run.

Actors follow the protocol honestly unless a fault says otherwise:

- crash:             offline for a window; events that need the actor wait
                     for recovery. It still learns every preimage a claim
                     reveals on chain, and acts on it once back.
- refuse-forward:    declines to forward payments during the window (fails
                     them back cooperatively).
- stall-secret:      refuses every cooperative channel update during the
                     window, forcing counterparties on-chain.
- drop-gossip:       neither sends nor merges adverts during the window.
- broadcast-revoked: broadcasts the revoked commitment that most raises
                     its balance.

Honest actors protect themselves without any global coordination. On each
tick a channel is due, every online party of it runs the channel
layer's `respond` policy, and that layer's `may_respond` and
`wake_heights` say when the policy can act. The engine decides only which
channels to visit, who is online and when a stalling party withholds a
claim. No timelocked sweep or refund can squat on a contested outpoint
ahead of a justice transaction: the ledger refuses a spend the next block
cannot confirm.

Every broadcast is a `Spend` (`respond`'s, a cooperative close or a
breach) and goes on chain through `_broadcast`; what is spent is read from
the ledger alone. A close or breach that meets a close in flight (its
funding outpoint no longer spendable) or that the chain refuses is a no-op.
`pending_txs` maps the txid of each broadcast still in the mempool to its
broadcaster (None for a cooperative close, whose fee each party pays the
share `Channel.cooperative_close` charged it), its channel and its spend.
The block that confirms it credits the fee the ledger burned for it to
whoever paid it and passes the spend to `_spent_on_chain`, the one path
from a confirmed spend to its hops: a claim puts its preimage in `public`,
which every actor knows, in that block and settles its hop, a refund ends
its hop, and a justice transaction ends every hop of its channel. Then a
channel that settled in that block refunds each hop still unresolved on it
(`UNPUNISHED`).

A payment retires once it is terminal and every hop of it is resolved:
`_cascade` drops it from `live`, and it lets go of its `HopLive` records
(keeping their count, which the report prints) and of its `Invoice`, as does
a payment that ends before going live. Nothing reads them again: a retired
payment offers no hop, and a settle or fail still queued for one of its hops
is a no-op. A run ends once `queue`, `pending_txs`, `closed` and `live`
are empty and gossip has converged or run out of time (`_outstanding`).

LP adverts are issued once, at tick 0. Each executed tick ends with a gossip
round over every channel in index order (`GossipState.exchange`) until every
actor holds every LP's advert; after that no store changes, and gossip
leaves the tick loop. State ends with its last reader: at convergence every
actor's gossip state drops its memo of the last exchange with each peer
(`GossipState.forget_peers`), since no exchange runs after that, and once
the tick loop ends `run` empties the route-graph cache `graphs`, whose one
reader is `_ev_payment_start`.

The clock jumps. After each tick it executes, `run` moves the clock to the
next tick at which anything can happen (`_next_tick`): the queue head, the
head of the due index (a channel where `may_respond` holds at that tick),
the next block of a chain whose mempool holds a transaction, the next start
or end of a fault window, and the next tick while the last gossip round
left news for a channel it had passed or conservation fails. Heights are a
fixed function of the tick, so a chain crosses the gap by
`Ledger.advance_to`. Every tick it skips would change nothing: no event, no
block that confirms anything, no spend, no gossip exchange and no change of
who is online or faulty. The one exception is the per-tick fault counters.
A withheld claim counts one hit on every tick, and `_advance` adds those
for the skipped ticks at once. A dropping gossip end of a channel whose
ends are online counts one on every tick from 1 to the last one run; the
fault windows alone decide that, so `_count_drops` sums it once after the
run. So a run costs what happens in it, not its `max_ticks`, with three
exceptions that queue themselves for the next tick for as many blocks as
it takes: a close (`_ev_close`) of a channel that holds HTLCs, until they
resolve, and a settle whose stall outlasts the run or that meets a close
still in the mempool (`_cascade` requeues both), until the channel closes
on chain; `_queue_hop` queues nothing for a closed channel.
"""

from __future__ import annotations

import bisect
import hashlib
import heapq
import random
from collections import ChainMap
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..chainlab import (
    ChainParams,
    HashFnId,
    KeyPair,
    Ledger,
    TxRejected,
    txid,
)
from ..channels import (
    Channel,
    ChannelError,
    ChannelParty,
    ChannelPhase,
    CLOSED_ON_CHAIN,
    Htlc,
    Spend,
    may_respond,
    open_channel,
    respond,
    urgent_height,
    wake_heights,
)
from ..crp import (
    ChannelEndpoint,
    ChannelGraph,
    Edge,
    GossipState,
    LpAdvert,
    NoRouteFound,
    NodeKey,
    OnionPacket,
    RateQuote,
    find_route,
    make_advert,
    onion_peel,
)
from ..crp.onion import OnionError
from ..swap import (
    SETTLED,
    ForwardRejected,
    Invoice,
    check_delivery,
    check_forward,
    make_invoice,
    prepare_attempt,
    upstream,
)
from .scenario import PaymentSpec, Scenario

# The metric a broadcast of each kind of spend notes.
SPEND_METRICS = {"close": "urgent_closes", "justice": "justice_txs", "sweep": "",
                 "claim": "onchain_claims", "refund": "onchain_refunds",
                 "cooperative": "", "breach": "breach_broadcasts"}
# How a confirmed spend of each kind ends the hops it spends: (outcome,
# reason); a refund's reason is its payment's fail reason, else "expired".
HOP_ENDS = {"claim": ("claimed", "claimed-on-chain"), "refund": ("refunded", ""),
            "justice": ("justice", "breach-punished")}
# How a hop still unresolved when its channel settles on chain ends: its HTLC has
# no output in the confirmed commitment, a revoked one nobody punished (BOLT #5).
UNPUNISHED = ("refunded", "breach-unpunished")


def derived_rng(seed: int, *parts) -> random.Random:
    """Independent stream for a labelled purpose; stable under unrelated
    scenario edits because the label, not draw order, selects the stream."""
    material = "/".join([str(seed), *map(str, parts)]).encode()
    return random.Random(int.from_bytes(hashlib.sha256(material).digest(), "big"))


@dataclass(slots=True)
class ActorState:
    kind: str
    node_key: NodeKey
    gossip: GossipState
    wallet: dict[str, KeyPair] = field(default_factory=dict)  # chain -> key
    # payment hash -> preimage, of its own invoices and off-chain fulfils
    secrets: dict[bytes, bytes] = field(default_factory=dict)
    settled_in: dict[str, int] = field(default_factory=dict)
    settled_out: dict[str, int] = field(default_factory=dict)
    fees: dict[str, int] = field(default_factory=dict)  # asset -> fees authorized
    channels: list[ChanRt] = field(default_factory=list)  # in channel-index order
    # fault kind -> indices into Scenario.faults
    faults: dict[str, list[int]] = field(default_factory=dict)
    invoice_rng: Optional[random.Random] = None  # made on the actor's first invoice

    def bump(self, counter: dict[str, int], asset: str, amount: int) -> None:
        counter[asset] = counter.get(asset, 0) + amount


@dataclass(slots=True)
class ChanRt:
    idx: int
    chain_id: str
    names: tuple[str, str]  # (party_a actor, party_b actor)
    channel: Channel

    def peer(self, name: str) -> str:
        return self.names[0] if self.names[1] == name else self.names[1]

    def party(self, name: str) -> ChannelParty:
        """Actor `name`'s side of the channel."""
        return self.channel.party_a if name == self.names[0] else self.channel.party_b


@dataclass(slots=True)
class HopLive:
    """One HTLC of a payment: `htlc` is its channel's own record, which
    holds the hop's amount, expiry and offering side."""

    chan: ChanRt
    htlc: Htlc
    resolved: str = ""  # fulfilled|failed|claimed|refunded|justice
    scheduled: bool = False

    @property
    def offerer(self) -> str:
        return self.chan.names[0 if self.htlc.offerer_side == "a" else 1]

    @property
    def receiver(self) -> str:
        return self.chan.names[1 if self.htlc.offerer_side == "a" else 0]


@dataclass(slots=True)
class PayRt:
    """One payment's run: `hops[i]` is its i-th HTLC, offered by the
    receiver of hop i - 1. When it retires (terminal, every hop resolved),
    `_retire` empties `hops` and drops `invoice`; `hop_count` keeps how
    many hops it offered."""

    idx: int
    spec: PaymentSpec
    status: str = "pending"
    reason: str = ""
    fail_reason: str = ""
    cost: int = 0
    invoice: Optional[Invoice] = None
    hops: list[HopLive] = field(default_factory=list)
    hop_count: int = 0
    started_tick: int = -1
    resolved_tick: int = -1


class Engine:
    """One scenario run. Construct, call run(), read the report."""

    def __init__(self, scenario: Scenario):
        self.sc = scenario
        self.tick = 0
        self._seq = 0
        # (tick, seq, handler, args); the unique seq keeps insertion order
        # within a tick, so the heap never compares handlers
        self.queue: list[tuple[int, int, Callable, tuple]] = []
        self.violations: list[str] = []
        self.metrics: dict[str, int] = {}
        self.fault_hits: dict[int, int] = {i: 0 for i in range(len(scenario.faults))}
        # txid -> (broadcaster, None for a cooperative close; channel index;
        # the spend it is)
        self.pending_txs: dict[bytes, tuple[Optional[str], int, Spend]] = {}
        self.gossip_converged_tick = -1
        # Until this tick, gossip that has not converged keeps the run going.
        self.gossip_end = 3 * len(scenario.actors) + 3
        # the origin pubkeys of an advert set -> its ChannelGraph; see _graph.
        # `run` empties it once the tick loop ends.
        self.graphs: dict[tuple[bytes, ...], ChannelGraph] = {}
        # The channels closed on-chain and not yet settled.
        self.closed: set[int] = set()
        # The due index, a heap of (tick, channel index): the channel is
        # visited by `_on_chain` at that tick (see `_housekeeping`).
        self.due: list[tuple[int, int]] = []
        # The channels on which a stalling party withheld a claim this tick.
        self.withholding: set[int] = set()
        # Whether the last conservation check passed.
        self.balanced = True
        self.public: dict[bytes, bytes] = {}  # hash -> preimage, of each claim on chain
        self._build_world()

    # --- construction -------------------------------------------------------

    def _build_world(self) -> None:
        sc = self.sc
        self.ledgers: dict[str, Ledger] = {}  # in chain-id order
        self.actors: dict[str, ActorState] = {}
        self.actor_by_pub: dict[bytes, str] = {}

        for a in sc.actors:
            key_rng = derived_rng(sc.seed, "actor", a.name, "keys")
            node_key = NodeKey.generate(key_rng)
            actor = ActorState(
                kind=a.kind,
                node_key=node_key,
                gossip=GossipState(node_key.pubkey),
            )
            for c in sc.chains:
                actor.wallet[c.chain_id] = KeyPair.generate(key_rng)
            self.actors[a.name] = actor
            self.actor_by_pub[node_key.pubkey] = a.name

        for c in sorted(sc.chains, key=lambda c: c.chain_id):
            params = ChainParams(
                chain_id=c.chain_id,
                asset_id=c.asset,
                hash_fns=frozenset(c.hash_fns),
                block_interval=c.mining_interval,
                tx_fee=c.tx_fee,
            )
            coins = [(self.actors[name].wallet[c.chain_id].pubkey, amount)
                     for name, amount in c.genesis]
            self.ledgers[c.chain_id] = Ledger(params, coins)
        # chain id -> its channels, in index order; only `_check_conservation`
        # scans it (`_mine` shows a block only to the channels it spends from)
        self.chans_on: dict[str, list[ChanRt]] = {cid: [] for cid in self.ledgers}

        self.quote_table: dict[str, dict[tuple[str, str], RateQuote]] = {}
        for q in sc.quotes:
            quote = RateQuote(
                asset_in=q.asset_in,
                asset_out=q.asset_out,
                rate_num=q.rate_num,
                rate_den=q.rate_den,
                base_fee=q.base_fee,
                fee_ppm=q.fee_ppm,
            )
            self.quote_table.setdefault(q.node, {})[(q.asset_in, q.asset_out)] = quote

        self.channels: list[ChanRt] = []
        self.chan_between: dict[tuple[str, str, str], ChanRt] = {}
        for idx, spec in enumerate(sc.channels):
            # Channel parties reuse the actor's per-chain wallet key so that
            # genesis coins fund channels directly and every close output
            # lands back in the wallet; only the revocation seed is fresh
            # per channel.
            pa = ChannelParty(
                keypair=self.actors[spec.party_a].wallet[spec.chain_id],
                revocation_seed=derived_rng(sc.seed, "chan", idx, spec.party_a).randbytes(32),
            )
            pb = ChannelParty(
                keypair=self.actors[spec.party_b].wallet[spec.chain_id],
                revocation_seed=derived_rng(sc.seed, "chan", idx, spec.party_b).randbytes(32),
            )
            ledger = self.ledgers[spec.chain_id]
            channel = open_channel(
                ledger, pa, pb, spec.fund_a, spec.fund_b,
                csv_delay=spec.csv_delay, dust_limit=spec.dust_limit,
            )
            rt = ChanRt(
                idx=idx,
                chain_id=spec.chain_id,
                names=(spec.party_a, spec.party_b),
                channel=channel,
            )
            self.channels.append(rt)
            self.chans_on[spec.chain_id].append(rt)
            self.actors[spec.party_a].channels.append(rt)
            self.actors[spec.party_b].channels.append(rt)
            a, b = sorted((spec.party_a, spec.party_b))
            self.chan_between[(spec.chain_id, a, b)] = rt
            # the funding tx fee is authorized by party_a
            self.actors[spec.party_a].bump(
                self.actors[spec.party_a].fees, ledger.params.asset_id, ledger.params.tx_fee
            )
        self.start_heights = self._heights()
        for i, f in enumerate(sc.faults):
            self.actors[f.actor].faults.setdefault(f.kind, []).append(i)
        # Every tick at which a crash or window fault starts or ends.
        self.boundaries = sorted({t for f in sc.faults if f.kind != "broadcast-revoked"
                                  for t in (f.at_tick, f.until_tick)})
        # Whether the last round left news for a channel it had passed.
        self.gossip_moving = True

        self.payments = [PayRt(idx=i, spec=p) for i, p in enumerate(sc.payments)]
        # The payments _cascade may still act on, by payment hash (each
        # invoice draws a fresh secret). One enters with its first hop and
        # retires once terminal with every hop resolved (no hop is added to
        # a payment that is not pending), so after housekeeping each has a
        # hop still to end (`_outstanding`). Only _offer adds an HTLC, and an
        # off-chain fulfil or fail resolves its hop at once, so a channel's
        # last state holds the `htlc` record of each unresolved hop on it,
        # and while OPEN (no channel reopens) no other one.
        self.live: dict[bytes, PayRt] = {}

    # --- shared machinery -----------------------------------------------------

    def _schedule(self, tick: int, handler: Callable, *args) -> None:
        heapq.heappush(self.queue, (max(tick, self.tick + 1), self._seq, handler, args))
        self._seq += 1

    def _note(self, metric: str, n: int = 1) -> None:
        self.metrics[metric] = self.metrics.get(metric, 0) + n

    def _active(self, name: str, kind: str, tick: Optional[int] = None) -> list[int]:
        """Indices of `name`'s `kind` faults whose window holds `tick` (now)."""
        mine = self.actors[name].faults.get(kind)
        if not mine:
            return []
        t = self.tick if tick is None else tick
        faults = self.sc.faults
        return [i for i in mine if faults[i].at_tick <= t < faults[i].until_tick]

    def _hit_faults(self, name: str, kind: str) -> None:
        for i in self._active(name, kind):
            self.fault_hits[i] += 1

    def _online(self, name: str, tick: Optional[int] = None) -> bool:
        return not self._active(name, "crash", tick)

    def _recovery(self, name: str) -> int:
        t = self.tick
        while crashes := self._active(name, "crash", t):
            t = max(self.sc.faults[i].until_tick for i in crashes)
        return t

    def _gate(self, *names: str) -> Optional[int]:
        """Can these actors exchange messages right now?

        None: yes. An int: requeue then (crash recovery). Stalling actors
        are NOT gated here: withholding secrets still leaves them able to
        take HTLCs, forward, fail back, and sign closes."""
        retry = None
        for n in names:
            if not self._online(n):
                self._hit_faults(n, "crash")
                self._note("crash_requeues")
                retry = max(retry or 0, self._recovery(n))
        return retry

    def _settle_gate(self, *names: str) -> Optional[int]:
        """Gate for steps that move a preimage between the two parties.

        Like _gate but also held up by stall-secret windows. -1 means the
        stall outlasts the run; the caller should give up and let the
        on-chain protection path resolve things."""
        retry = self._gate(*names)
        if retry is not None:
            return retry
        for n in names:
            stalls = self._active(n, "stall-secret")
            if stalls:
                self._hit_faults(n, "stall-secret")
                self._note("stall_blocks")
                until = min(self.sc.faults[i].until_tick for i in stalls)
                if until >= self.sc.max_ticks:
                    return -1
                retry = max(retry or 0, until)
        return retry

    def _chan(self, chain_id: str, x: str, y: str) -> Optional[ChanRt]:
        a, b = sorted((x, y))
        return self.chan_between.get((chain_id, a, b))

    def _heights(self) -> dict[str, int]:
        return {cid: self.ledgers[cid].height for cid in self.ledgers}

    def _height_at(self, cid: str, tick: int) -> int:
        """Chain `cid`'s height at `tick`: the blocks that opened its
        channels, then one every `block_interval` ticks."""
        return self.start_heights[cid] + tick // self.ledgers[cid].params.block_interval

    def _tick_of(self, cid: str, height: int) -> int:
        """The first tick at which chain `cid` is at `height` or above."""
        return max(0, height - self.start_heights[cid]) * self.ledgers[cid].params.block_interval

    def _broadcast(self, rt: ChanRt, actor: Optional[str], spend: Spend) -> bool:
        """`actor`, or both parties of a cooperative close when None, puts
        `spend`, a transaction of channel `rt`, on chain and notes its
        kind's metric. The block that confirms it hands `spend` to
        `_spent_on_chain`. Returns False, noting and tracking nothing, when
        the channel or the ledger refuses it."""
        try:
            tx = spend.build(*spend.args)
        except (ChannelError, TxRejected, ValueError):
            return False
        if SPEND_METRICS[spend.kind]:
            self._note(SPEND_METRICS[spend.kind])
        self.pending_txs[txid(tx)] = (actor, rt.idx, spend)
        return True

    def _finish(self, p: PayRt, status: str, reason: str) -> None:
        p.status = status
        p.reason = reason
        p.resolved_tick = self.tick

    def _resolve_hop(self, p: PayRt, i: int, outcome: str, reason: str) -> None:
        """Record how hop i ended. A fulfilled or claimed hop moves its
        amount from offerer to receiver; hop 0 ends the payment."""
        hop = p.hops[i]
        hop.resolved = outcome
        settled = outcome in SETTLED
        if settled:
            asset = self.ledgers[hop.chan.chain_id].params.asset_id
            recv, off = self.actors[hop.receiver], self.actors[hop.offerer]
            recv.bump(recv.settled_in, asset, hop.htlc.amount)
            off.bump(off.settled_out, asset, hop.htlc.amount)
        if i == 0:
            self._finish(p, "settled" if settled else "refunded", reason)

    # --- run loop ---------------------------------------------------------------

    def run(self) -> None:
        sc = self.sc
        self._bootstrap_gossip()
        for i, p in enumerate(sc.payments):
            self._schedule(p.at_tick, self._ev_payment_start, i)
        for i, f in enumerate(sc.faults):
            if f.kind == "broadcast-revoked":
                self._schedule(f.at_tick, self._ev_breach, i)
        for i, c in enumerate(sc.closes):
            self._schedule(c.at_tick, self._ev_close, i)
        self._check_conservation("setup")

        while self.tick < sc.max_ticks and self._outstanding():
            self._advance(self._next_tick())
            self._mine()
            self._drain_events()
            self._housekeeping()
            self._gossip_round()
            self._check_conservation(f"tick {self.tick}")
        self.graphs.clear()  # no payment starts after the loop
        self._count_drops()
        if self._outstanding():
            self.violations.append(
                f"non-termination: run still active at max_ticks={sc.max_ticks}"
            )
        for p in self.payments:
            if p.status == "pending":
                self.violations.append(f"payment {p.idx} never reached a terminal state")

    def _outstanding(self) -> bool:
        """Whether an event, a transaction, a channel or a payment may still
        act: each index says so by being non-empty. It is read only before
        the first tick and after a tick's housekeeping, and by then
        `_cascade` has retired every payment whose hops have all ended. So
        each payment in `live` has a hop still to end, and that hop's HTLC
        is on an OPEN channel, in a close in flight (`pending_txs`) or on a
        channel closed and not settled (`closed`): a channel that settles
        ends its hops in the same block (`UNPUNISHED`)."""
        if self.queue or self.pending_txs or self.closed or self.live:
            return True
        return self.gossip_converged_tick < 0 and self.tick < self.gossip_end

    def _next_tick(self) -> int:
        """The next tick at which anything can happen, at most max_ticks.

        Each tick before it would be a no-op (see the module docstring):
        no event is queued, no channel is due, no chain has a block to
        confirm, no fault window opens or closes, gossip has nothing left
        to exchange that no fault blocks, and conservation held. While
        gossip has not converged, `_outstanding` depends on the tick
        itself, so the tick at which that term ends is a wake too."""
        nxt = self.tick + 1
        if self.gossip_moving or not self.balanced:
            return nxt
        end = self.sc.max_ticks
        wake = min(self.queue[0][0], end) if self.queue else end
        due = self.due
        while due and due[0][0] < wake and not self._may_act(due[0][1], due[0][0]):
            heapq.heappop(due)
        if due:
            wake = min(wake, due[0][0])
        if wake <= nxt:
            return nxt
        for cid, led in self.ledgers.items():
            if not led.mempool_empty():
                wake = min(wake, self._tick_of(cid, led.height + 1))
        b = bisect.bisect_right(self.boundaries, self.tick)
        if b < len(self.boundaries):
            wake = min(wake, self.boundaries[b])
        if self.gossip_converged_tick < 0 and self.tick < self.gossip_end:
            wake = min(wake, self.gossip_end)
        return max(nxt, wake)

    def _advance(self, tick: int) -> None:
        """Move the clock to `tick`, adding the stall-secret hits of each
        tick skipped on the way. No fault window opens or closes in the gap
        and nothing else changes, so every skipped tick counts what the
        first one would in `_respond`: one hit per window for each claim a
        stalling party withholds. A claim is withheld only on a channel in
        `withholding`, which is due again at `tick`."""
        skipped = tick - self.tick - 1
        if skipped and self.withholding:
            self._count_skipped(skipped)
        for idx in self.withholding:
            self._due_at(idx, tick)
        self.withholding = set()
        self.tick = tick

    def _count_skipped(self, skipped: int) -> None:
        """Add the stall-secret hits each of `skipped` ticks after this one
        counts (see `_advance`)."""
        t = self.tick + 1
        for idx in self.withholding:
            rt = self.channels[idx]
            for n in rt.names:
                stalls = self._active(n, "stall-secret", t) if self._online(n, t) else []
                if not stalls:
                    continue
                spends = respond(rt.channel, rt.party(n), self._knows(n))
                claims = sum(s.kind == "claim" for s in spends)
                for i in stalls:
                    self.fault_hits[i] += claims * skipped

    def _count_drops(self) -> None:
        """Add the drop-gossip counts of every tick from 1 to the last one
        run: on each, a channel whose ends are online counts one
        `gossip_drops` for each dropping end and one hit for each of its
        drop windows. That depends on the fault windows alone, so it is
        constant between two `boundaries` and counted once per stretch."""
        chans = {rt.idx: rt.names for a in self.actors.values() if "drop-gossip" in a.faults
                 for rt in a.channels}
        stops = [b for b in self.boundaries if 1 < b <= self.tick] + [self.tick + 1]
        drops, t = 0, 1
        for stop in stops:
            for names in chans.values():
                if not all(self._online(n, t) for n in names):
                    continue
                for n in names:
                    dropping = self._active(n, "drop-gossip", t)
                    drops += (stop - t) * bool(dropping)
                    for i in dropping:
                        self.fault_hits[i] += stop - t
            t = stop
        if drops:
            self._note("gossip_drops", drops)

    # --- gossip ----------------------------------------------------------------

    def _bootstrap_gossip(self) -> None:
        for name in sorted(self.actors):
            actor = self.actors[name]
            if actor.kind != "lp":
                continue
            endpoints = [
                ChannelEndpoint(
                    chain_id=rt.chain_id,
                    peer=self.actors[rt.peer(name)].node_key.pubkey,
                    capacity=rt.channel.balance_of(rt.party(name)),
                )
                for rt in actor.channels
            ]
            quotes = [
                self.quote_table[name][pair]
                for pair in sorted(self.quote_table.get(name, {}))
            ]
            advert = make_advert(actor.node_key, endpoints, quotes, timestamp=0)
            actor.gossip.insert_local(advert)

    def _gossip_round(self) -> None:
        """`_gossip_channel` on every channel in channel-index order until
        gossip converges. Adverts are issued once, at tick 0, so a converged
        store never changes again, and the round is a no-op from then on
        (`_count_drops` counts the drops). An exchange that moves the
        version of an end with an earlier channel leaves news for a channel
        this round has passed."""
        self.gossip_moving = False
        if self.gossip_converged_tick >= 0:
            return
        for rt in self.channels:
            ends = [self.actors[n] for n in rt.names]
            before = [a.gossip.version for a in ends]
            self._gossip_channel(rt)
            if any(a.gossip.version != v and a.channels[0] is not rt
                   for a, v in zip(ends, before)):
                self.gossip_moving = True
        self._note_convergence()

    def _gossip_channel(self, rt: ChanRt) -> None:
        """One gossip exchange between the channel's parties, unless one is
        offline or dropping gossip."""
        a, b = rt.names
        if all(self._online(n) and not self._active(n, "drop-gossip") for n in rt.names):
            self.actors[a].gossip.exchange(self.actors[b].gossip)

    def _note_convergence(self) -> None:
        """Every LP's advert is issued at timestamp 0 and installed once, so
        gossip has converged when every actor has installed one per LP. No
        exchange runs after that, so each actor then drops its per-peer
        exchange memo."""
        lps = sum(a.kind == "lp" for a in self.actors.values())
        if all(a.gossip.version == lps for a in self.actors.values()):
            self.gossip_converged_tick = self.tick
            for a in self.actors.values():
                a.gossip.forget_peers()

    # --- mining and confirmation tracking ----------------------------------------

    def _mine(self) -> None:
        """Bring each chain to its height at this tick, one block every
        `block_interval` ticks. A chain whose mempool is empty gets there by
        `advance_to`: its blocks confirm nothing. A chain with a
        transaction waiting has its next block due at this tick or later
        (`_next_tick` stops at it); that block is mined and shown, in index
        order, to each channel it confirms a broadcast of, which is then
        due; if that settled it, its hops still unresolved end (`UNPUNISHED`).
        No other channel is shown the block: `process_block` of a block that
        confirms none of a channel's transactions changes nothing on it.
        Each confirmed txid is in `pending_txs`: `_broadcast` is the one
        submitter in a run, and `open_channel` mines its funding before."""
        for cid, led in self.ledgers.items():
            height = self._height_at(cid, self.tick)
            if led.mempool_empty():
                led.advance_to(height)
                continue
            if led.height == height:
                continue  # no block due at this tick
            led.advance_to(height - 1)  # raises if a block with a transaction was skipped
            summary = led.mine_blocks(1)[0]
            entries = [self.pending_txs.pop(tx_id) for tx_id in summary.txids]
            spent = sorted({entry[1] for entry in entries})
            for idx in spent:
                rt = self.channels[idx]
                rt.channel.process_block(summary)
                # process_block is the only place these phases are set
                if rt.channel.phase not in CLOSED_ON_CHAIN:
                    self.closed.discard(idx)
                elif idx not in self.closed:
                    self._closed_on_chain(rt)
            for entry, fee in zip(entries, summary.fees):
                self._due_at(entry[1], self.tick)
                self._confirmed(cid, fee, *entry)
            for idx in spent:
                if self.channels[idx].channel.phase is ChannelPhase.SETTLED:
                    self._end_hops(idx, None, *UNPUNISHED)

    def _closed_on_chain(self, rt: ChanRt) -> None:
        """`rt` was just closed on-chain: it is in `closed` until settled,
        and due again at each of its `wake_heights`."""
        self.closed.add(rt.idx)
        for height in wake_heights(rt.channel):
            self._due_at(rt.idx, self._tick_of(rt.chain_id, height))

    def _confirmed(self, cid: str, fee: int, name: Optional[str], chan_idx: int,
                   spend: Spend) -> None:
        """Credit a broadcast confirmed on `cid` the fee it burned: its
        broadcaster `name` paid it all, or each party of a cooperative close
        (`name` None) the share the channel charged it. End the hops its
        spend ends."""
        if name is None:
            rt = self.channels[chan_idx]
            shares = zip(rt.names, rt.channel.close_fees)
        else:
            shares = ((name, fee),)
        for payer, share in shares:
            if share:
                actor = self.actors[payer]
                actor.bump(actor.fees, self.ledgers[cid].params.asset_id, share)
        self._spent_on_chain(chan_idx, spend)

    def _spent_on_chain(self, chan_idx: int, spend: Spend) -> None:
        """A spend on channel `chan_idx` confirmed. A claim makes its
        preimage public and settles the hop of its HTLC, a refund ends that
        hop, and justice ends every unresolved hop of the channel; any other
        kind ends none (HOP_ENDS)."""
        if spend.kind not in HOP_ENDS:
            return
        if spend.kind == "claim":
            self._reveal(spend.htlc.payment_hash, spend.args[2])
        self._end_hops(chan_idx, spend.htlc, *HOP_ENDS[spend.kind])

    def _end_hops(self, chan_idx: int, htlc: Optional[Htlc], outcome: str, reason: str) -> None:
        """End as `outcome` the unresolved hop, found in `live`, of `htlc`,
        or when None of each HTLC channel `chan_idx`'s last state holds (see
        `live`). Its reason is `reason`, else its payment's fail reason, else
        "expired"; the order in which hops end moves no counter."""
        ch = self.channels[chan_idx].channel
        for h in ch.pending_htlcs if htlc is None else (htlc,):
            p = self.live.get(h.payment_hash)
            for i, hop in enumerate(p.hops if p else ()):
                if hop.htlc is h and not hop.resolved:
                    self._resolve_hop(p, i, outcome, reason or p.fail_reason or "expired")

    def _reveal(self, payment_hash: bytes, preimage: bytes) -> None:
        """A claimed preimage goes in `public`, once. A party may now use it
        on any channel closed on-chain (a revoked state there may hold a
        retired payment's HTLC) or force-close on its payment's: all are due."""
        self.public.setdefault(payment_hash, preimage)
        for idx in self.closed:
            self._due_at(idx, self.tick)
        if payment_hash in self.live:
            self._hops_due(self.live[payment_hash])

    def _knows(self, name: str) -> ChainMap:
        """The preimages actor `name` knows: its own, then the public ones."""
        return ChainMap(self.actors[name].secrets, self.public)

    def _hops_due(self, p: PayRt) -> None:
        """The channels of `p`'s hops are due now."""
        for hop in p.hops:
            self._due_at(hop.chan.idx, self.tick)

    def _due_at(self, idx: int, tick: int) -> None:
        """Channel `idx` is due at `tick`, or now if that has passed. An
        entry for now is kept only where `respond` may name a spend now:
        until this tick's `_on_chain`, only an entry of its own makes a
        channel urgent or closed."""
        if tick > self.tick:
            if tick <= self.sc.max_ticks:
                heapq.heappush(self.due, (tick, idx))
        elif self._may_act(idx, self.tick):
            heapq.heappush(self.due, (self.tick, idx))

    def _may_act(self, idx: int, tick: int) -> bool:
        """Whether `respond` may name a spend on channel `idx` at `tick`."""
        rt = self.channels[idx]
        return may_respond(rt.channel, self._height_at(rt.chain_id, tick))

    # --- event handlers -----------------------------------------------------------

    def _drain_events(self) -> None:
        while self.queue and self.queue[0][0] <= self.tick:
            _, _, handler, args = heapq.heappop(self.queue)
            handler(*args)

    def _default_hash_fn(self, asset: str) -> HashFnId:
        sets = [led.params.hash_fns for led in self.ledgers.values()
                if led.params.asset_id == asset]
        common = frozenset.intersection(*sets) if sets else frozenset()
        pool = common or frozenset().union(*sets)
        return min(pool, key=lambda f: f.value)

    def _ev_payment_start(self, pidx: int) -> None:
        """Invoice, route and offer payment `pidx`. `find_route` ends its route at
        the invoice's recipient and asset, so `prepare_attempt` never refuses it."""
        p = self.payments[pidx]
        spec = p.spec
        sender = self.actors[spec.sender]
        recipient = self.actors[spec.recipient]
        for name in (spec.sender, spec.recipient):
            if not self._online(name):
                self._hit_faults(name, "crash")
                self._schedule(self._recovery(name), self._ev_payment_start, pidx)
                return
        p.started_tick = self.tick

        fn = spec.hash_fn or self._default_hash_fn(spec.asset)
        if recipient.invoice_rng is None:
            recipient.invoice_rng = derived_rng(self.sc.seed, "actor", spec.recipient, "invoices")
        invoice, secret = make_invoice(
            recipient.invoice_rng, recipient.node_key.pubkey, spec.amount, spec.asset, fn
        )
        recipient.secrets[invoice.payment_hash] = secret

        own_edges = [
            Edge(
                src=sender.node_key.pubkey,
                dst=self.actors[rt.peer(spec.sender)].node_key.pubkey,
                chain_id=rt.chain_id,
                asset=self.ledgers[rt.chain_id].params.asset_id,
                capacity=rt.channel.balance_of(rt.party(spec.sender)),
            )
            for rt in sender.channels
            if rt.channel.phase is ChannelPhase.OPEN
        ]
        try:
            route = find_route(
                self._graph(sender.gossip.advert_set()),
                sender.node_key.pubkey,
                recipient.node_key.pubkey,
                spec.amount,
                spec.asset,
                own_edges,
                required_hash_fn=fn,
            )
        except NoRouteFound:
            self._finish(p, "refunded", "no-route")
            return

        first_hop_actor = self.actor_by_pub[route.hops[0].node]
        if sender.kind == "user" and self.actors[first_hop_actor].kind != "lp":
            self.violations.append(
                f"role-constraint: payment {pidx} from user {spec.sender!r} "
                f"first hop is {first_hop_actor!r}, not a liquidity provider"
            )

        attempt = prepare_attempt(
            invoice, route, self._heights(), derived_rng(self.sc.seed, "payment", pidx)
        )
        p.cost = attempt.cost
        p.invoice = invoice
        reason = self._offer(
            p, spec.sender, first_hop_actor, route.hops[0].chain_id,
            attempt.cost, attempt.expiry, attempt.packet,
        )
        if reason is not None:
            self._finish(p, "refunded", reason)
            p.invoice = None  # it never went live

    def _graph(self, adverts: list[LpAdvert]) -> ChannelGraph:
        """The public graph of an advert set, built once and shared by every
        sender holding that set. Keyed on the adverts' origins: each LP
        issues its one advert at tick 0, so the origins name the set."""
        key = tuple(a.node_pubkey for a in adverts)
        if key not in self.graphs:
            self.graphs[key] = ChannelGraph.from_adverts(
                adverts, {cid: led.params.hash_fns for cid, led in self.ledgers.items()},
                {cid: led.params.asset_id for cid, led in self.ledgers.items()})
        return self.graphs[key]

    def _ev_hop_offer(self, pidx: int, i: int, packet: OnionPacket) -> None:
        p = self.payments[pidx]
        if p.status != "pending" or p.hops[i].resolved:
            return
        hop = p.hops[i]
        if hop.chan.channel.phase is not ChannelPhase.OPEN:
            return  # on-chain resolution has taken over
        if not self._online(hop.receiver):
            self._hit_faults(hop.receiver, "crash")
            self._schedule(self._recovery(hop.receiver), self._ev_hop_offer, pidx, i, packet)
            return
        recv = self.actors[hop.receiver]
        height = self.ledgers[hop.chan.chain_id].height
        try:
            payload, next_packet = onion_peel(packet, recv.node_key)
            if next_packet is None:  # the MAC chain, not the payload, marks the last hop
                # only the payment's recipient made an invoice for its hash
                invoice = p.invoice if hop.receiver == p.spec.recipient else None
                check_delivery(payload, invoice, hop.htlc.amount, hop.htlc.expiry_height, height)
                self._queue_hop(p, i, True, self.tick + 1)
                return
            # forward
            if self._active(hop.receiver, "refuse-forward"):
                self._hit_faults(hop.receiver, "refuse-forward")
                self._note("refusals")
                raise ForwardRejected("refused-forward")
            next_name = self.actor_by_pub.get(payload.next_node)
            if next_name is None:
                raise ForwardRejected("unknown-next-node")
            quote = self.quote_table.get(hop.receiver, {}).get(
                (self.ledgers[hop.chan.chain_id].params.asset_id, payload.asset))
            expiry = check_forward(payload, hop.htlc.amount, hop.htlc.expiry_height, height,
                                   quote, self.ledgers[payload.chain_id].height)
        except OnionError:
            self._start_fail(p, i, "bad-onion")
            return
        except ForwardRejected as exc:
            self._start_fail(p, i, exc.reason)
            return
        reason = self._offer(p, hop.receiver, next_name, payload.chain_id,
                             payload.amount_to_forward, expiry, next_packet)
        if reason is not None:
            self._start_fail(p, i, reason)

    def _offer(
        self, p: PayRt, offerer: str, receiver: str, chain_id: str,
        amount: int, expiry: int, packet: OnionPacket,
    ) -> Optional[str]:
        """Add the payment's next HTLC and send `packet` along with it.

        Returns why the offer could not be made, or None once the receiver's
        hop-offer is scheduled."""
        i = len(p.hops)
        rt = self._chan(chain_id, offerer, receiver)
        if rt is None or rt.channel.phase is not ChannelPhase.OPEN:
            return "no-channel"
        if self._gate(receiver) is not None:
            return "peer-unavailable"
        try:
            htlc_id = rt.channel.add_htlc(
                rt.party(offerer), amount, p.invoice.hash_fn,
                p.invoice.payment_hash, expiry,
            )
        except (ChannelError, ValueError) as exc:
            return f"{'first-hop' if i == 0 else 'forward'}: {exc}"
        # due now if an HTLC of it is urgent, and when this one turns urgent
        self._due_at(rt.idx, self.tick)
        self._due_at(rt.idx, self._tick_of(chain_id, urgent_height(expiry)))
        p.hops.append(HopLive(chan=rt, htlc=rt.channel.htlc(htlc_id)))
        p.hop_count += 1
        self.live[p.invoice.payment_hash] = p
        self._schedule(self.tick + 1, self._ev_hop_offer, p.idx, i, packet)
        return None

    def _queue_hop(self, p: PayRt, i: int, settle: bool, tick: int) -> None:
        """Queue hop i's off-chain settle (or, if not `settle`, fail) for
        `tick`, unless its channel has left OPEN, to which no phase returns."""
        hop = p.hops[i]
        if hop.chan.channel.phase is ChannelPhase.OPEN:
            hop.scheduled = True
            self._schedule(tick, self._ev_settle_or_fail, p.idx, i, settle)

    def _start_fail(self, p: PayRt, i: int, reason: str) -> None:
        p.fail_reason = p.fail_reason or reason
        self._queue_hop(p, i, False, self.tick + 1)

    def _ev_settle_or_fail(self, pidx: int, i: int, settle: bool) -> None:
        """Fulfil (settle) or fail hop i's HTLC off-chain. A settle moves a
        preimage, so a stall holds it up as well as a crash."""
        p = self.payments[pidx]
        if not p.hops:
            return  # retired: every hop of it is resolved
        hop = p.hops[i]
        hop.scheduled = False
        if hop.resolved or hop.chan.channel.phase is not ChannelPhase.OPEN:
            return
        gate = (self._settle_gate if settle else self._gate)(hop.receiver, hop.offerer)
        if gate is not None:
            if gate >= 0:
                self._queue_hop(p, i, settle, gate)
            return
        try:
            if settle:
                # Whoever schedules a settle knows the preimage, and an
                # unresolved hop on an open channel is an HTLC of that channel.
                preimage = self._knows(hop.receiver)[p.invoice.payment_hash]
                hop.chan.channel.fulfill_htlc(hop.htlc.htlc_id, preimage)
            else:
                hop.chan.channel.fail_htlc(hop.htlc.htlc_id)
        except ChannelError:
            return
        if settle:
            self.actors[hop.offerer].secrets[p.invoice.payment_hash] = preimage
            self._hops_due(p)  # the offerer may claim or force-close with it upstream
            self._resolve_hop(p, i, "fulfilled", "fulfilled")
        else:
            self._due_at(hop.chan.idx, self.tick)
            self._resolve_hop(p, i, "failed", p.fail_reason or "failed")

    def _ev_close(self, cidx: int) -> None:
        spec = self.sc.closes[cidx]
        rt = self.channels[spec.channel]
        if rt.channel.phase is not ChannelPhase.OPEN:
            return
        gate = self._gate(*rt.names)
        if gate is not None:
            self._schedule(gate, self._ev_close, cidx)
            return
        if rt.channel.pending_htlcs:
            self._schedule(self.tick + 1, self._ev_close, cidx)
            return
        self._broadcast(rt, None, Spend("cooperative", rt.channel.cooperative_close, ()))

    def _ev_breach(self, fidx: int) -> None:
        fault = self.sc.faults[fidx]
        cheater = fault.actor
        if not self._online(cheater):
            self._schedule(self._recovery(cheater), self._ev_breach, fidx)
            return
        mine = self.actors[cheater].channels
        candidates = mine if fault.channel is None else [self.channels[fault.channel]]
        best: Optional[tuple[int, ChanRt, int]] = None
        for rt in candidates:
            if rt.channel.closing:
                continue
            revoked = rt.channel.revoked_balances(rt.channel.side_of(rt.party(cheater)))
            top = max(revoked, default=0)
            gain = top - rt.channel.balance_of(rt.party(cheater))
            if gain > 0 and (best is None or gain > best[0]):
                best = (gain, rt, revoked.index(top))  # the earliest best state
        if best is not None:
            _, rt, n = best
            spend = Spend("breach", rt.channel.unilateral_close, (rt.party(cheater), n))
            if self._broadcast(rt, cheater, spend):
                self.fault_hits[fidx] += 1
                return
        self._note("breach_noops")

    # --- per-tick housekeeping -----------------------------------------------------

    def _housekeeping(self) -> None:
        """Cascade hop resolutions and go on chain.

        Each step keeps the rule of a scan over every actor and channel,
        but visits only what an index says may act. Both act only for online
        actors, which already know every preimage claimed on chain so far
        (`_reveal` puts it in `public` in the block that confirms a claim):

        - `_cascade` reads `live`, the payments with an HTLC out.
        - `_on_chain` visits the channels the due index names for this tick.
          A visit acts only where `respond` names a spend that the ledger
          admits or that a stall withholds, and what it names changes only
          with the channel, the heights, what its parties know and who is
          online or stalling. So a channel is due at the tick each of these
          may change: whenever its HTLCs, its balances or its outputs change
          (an offer, a settle or fail, a block confirming its broadcast);
          at the `urgent_height` of each HTLC it holds open (`_offer`) and
          at its `wake_heights` once closed on-chain (`_closed_on_chain`);
          when a party of it learns a preimage (`_reveal`,
          `_ev_settle_or_fail`); when an offline party recovers; and on
          each executed tick while a claim on it is withheld (`_advance`).
          A spend every visit names and the ledger refuses (a close its
          broadcaster cannot pay the fee for) is refused again on every
          tick nothing changes. `_may_act` drops an entry for a channel
          where `may_respond` fails. Spends on different channels spend
          different outputs, so their order is free.
        """
        self._cascade()
        self._on_chain()

    def _cascade(self) -> None:
        """Propagate hop resolutions upstream, whatever mix of cooperative
        and on-chain steps produced them, by payment index: payments go live
        in start order (`at_tick`, crash requeues), not index order."""
        for p in sorted(self.live.values(), key=lambda p: p.idx):
            if p.status != "pending" and all(h.resolved for h in p.hops):
                self._retire(p)
                continue
            for i in range(len(p.hops) - 1):
                hop, down = p.hops[i], p.hops[i + 1]
                if (hop.resolved or hop.scheduled or not down.resolved
                        or not self._online(hop.receiver)):
                    continue
                step = upstream(down.resolved, p.invoice.payment_hash in self._knows(hop.receiver))
                if step == "settle":
                    self._queue_hop(p, i, True, self.tick + 1)
                elif step is not None:
                    self._start_fail(p, i, step)

    def _retire(self, p: PayRt) -> None:
        """`p` is terminal with every hop resolved: drop it from `live` and
        release its hops and its invoice."""
        del self.live[p.invoice.payment_hash]
        p.hops.clear()
        p.invoice = None

    def _on_chain(self) -> None:
        """Each online party of each channel due now (see `_housekeeping`),
        in channel-index order and then name order, makes its spends there.
        An offline party's channel is due again when it recovers."""
        if not self.due or self.due[0][0] > self.tick:
            return
        due = set()
        while self.due and self.due[0][0] <= self.tick:
            due.add(heapq.heappop(self.due)[1])
        for idx in sorted(due):
            if not self._may_act(idx, self.tick):
                continue
            rt = self.channels[idx]
            for name in sorted(rt.names):
                if self._online(name):
                    self._respond(name, rt)
                else:
                    self._due_at(idx, self._recovery(name))

    def _respond(self, name: str, rt: ChanRt) -> None:
        """`name` broadcasts the spends `respond` names on channel `rt`,
        except that it withholds each HTLC claim while it stalls, one
        `stall-secret` hit per claim withheld."""
        for spend in respond(rt.channel, rt.party(name), self._knows(name)):
            if spend.kind == "claim" and self._active(name, "stall-secret"):
                self._hit_faults(name, "stall-secret")
                self.withholding.add(rt.idx)
                continue
            self._broadcast(rt, name, spend)

    # --- invariants ------------------------------------------------------------------

    def _check_conservation(self, where: str) -> None:
        """Append a violation for each chain or channel whose coins do not
        add up; `balanced` says whether none did."""
        found = len(self.violations)
        for cid, led in self.ledgers.items():
            if led.total_utxo_value() + led.burned != led.genesis_total:
                self.violations.append(
                    f"conservation: chain {cid!r} at {where}: utxos {led.total_utxo_value()} "
                    f"+ burned {led.burned} != genesis {led.genesis_total}"
                )
            funding_value = 0
            channel_value = 0
            for rt in self.chans_on[cid]:
                ch = rt.channel
                if not led.is_unspent(ch.funding_outpoint):
                    continue
                st = ch.state
                in_channel = st.balance_a + st.balance_b + sum(h.amount for h in st.htlcs)
                if in_channel != ch.capacity:
                    self.violations.append(
                        f"conservation: channel {rt.idx} at {where}: balances {in_channel} "
                        f"!= capacity {ch.capacity}"
                    )
                funding_value += ch.capacity
                channel_value += in_channel
            onchain = led.total_utxo_value() - funding_value
            if onchain + channel_value + led.burned != led.genesis_total:
                self.violations.append(
                    f"conservation: chain {cid!r} at {where}: on-chain {onchain} + "
                    f"channels {channel_value} + burned {led.burned} != genesis {led.genesis_total}"
                )
        self.balanced = len(self.violations) == found

    # --- final accounting ---------------------------------------------------------

    def final_balances(self, name: str) -> dict[str, int]:
        """On-chain spendable plus open-channel claims, by asset."""
        actor = self.actors[name]
        totals: dict[str, int] = {}

        def add(asset: str, amount: int) -> None:
            if amount:
                totals[asset] = totals.get(asset, 0) + amount

        for cid, led in self.ledgers.items():
            add(led.params.asset_id,
                sum(a for _, a in led.spendable_by(actor.wallet[cid].pubkey)))
        for rt in actor.channels:
            led = self.ledgers[rt.chain_id]
            asset = led.params.asset_id
            if led.is_unspent(rt.channel.funding_outpoint):
                add(asset, rt.channel.balance_of(rt.party(name)))
                side = rt.channel.side_of(rt.party(name))
                add(asset, sum(h.amount for h in rt.channel.pending_htlcs
                               if h.offerer_side == side))
        return totals


def run_scenario(scenario: Scenario) -> dict:
    """Execute a scenario and build its canonical report."""
    from .report import build_report

    engine = Engine(scenario)
    engine.run()
    return build_report(engine)
