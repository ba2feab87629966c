"""Payment terms, the hop admission rules, and payments priced by them.

The HTLCs of a payment are driven by the simulator, so the end-to-end cases
here run small line scenarios through `comit.simnet`."""

import random
from dataclasses import replace

import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from comit.chainlab import ChainParams, HashFnId, Ledger, hash_digest, txid
from comit.channels import ChannelParty, ChannelPhase, open_channel, respond
from comit.crp import (
    ChannelGraph,
    Edge,
    NodeKey,
    RateQuote,
    backward_apply,
    find_route,
    onion_peel,
)
from comit.simnet import run_scenario, validate_scenario
from comit.swap import (
    HOP_DELTA,
    Invoice,
    SETTLED,
    ForwardRejected,
    RouteMismatch,
    check_delivery,
    check_forward,
    make_invoice,
    offer_expiry,
    prepare_attempt,
    upstream,
)

S256 = HashFnId.SHA256
S3 = HashFnId.SHA3_256


class Line:
    """A sender's view of a path of nodes joined by one channel per hop.

    hops: list of (chain_id, asset, quote-for-receiving-node-or-None).
    Node 0 is the sender; node i receives hop i. Every chain is at height 0.
    """

    def __init__(self, rng, hops, fund=300_000, fns=frozenset({S256, S3})):
        self.rng = rng
        self.ids = [NodeKey.generate(rng).pubkey for _ in range(len(hops) + 1)]
        self.graph = ChannelGraph(
            {chain_id: fns for chain_id, _, _ in hops},
            [
                Edge(self.ids[i], self.ids[i + 1], chain_id, asset, fund)
                for i, (chain_id, asset, _) in enumerate(hops)
            ],
            [(self.ids[i + 1], quote)
             for i, (_, _, quote) in enumerate(hops) if quote is not None],
        )

    @property
    def sender(self):
        return self.ids[0]

    @property
    def recipient(self):
        return self.ids[-1]

    def heights(self):
        return {chain_id: 0 for chain_id in self.graph.chain_fns}


def run_line(fees, amount, self_fee=None):
    """Pay `amount` coin from user ann to rey along a line of channels on one
    chain, as a scenario. fees[k] is the flat coin->coin fee of forwarding
    LP k + 1. With self_fee, rey is an LP quoting coin->coin to itself at
    that flat fee; otherwise rey is a business."""
    lps = [f"lp{k + 1}" for k in range(len(fees))]
    names = ["ann", *lps, "rey"]
    fee_of = dict(zip(lps, fees))
    if self_fee is not None:
        fee_of["rey"] = self_fee
    doc = {
        "seed": 5,
        "max_ticks": 80,
        "chains": [
            {"chain_id": "main", "asset": "coin", "hash_fns": ["SHA256"],
             "genesis": {name: 250_000 for name in names}}
        ],
        "actors": [
            {"name": "ann", "kind": "user"},
            *({"name": lp, "kind": "lp"} for lp in lps),
            {"name": "rey", "kind": "business" if self_fee is None else "lp"},
        ],
        "channels": [
            {"chain_id": "main", "party_a": a, "party_b": b,
             "fund_a": 100_000, "fund_b": 100_000}
            for a, b in zip(names, names[1:])
        ],
        "quotes": [
            {"node": node, "asset_in": "coin", "asset_out": "coin",
             "rate_num": 1, "rate_den": 1, "base_fee": fee, "fee_ppm": 0}
            for node, fee in fee_of.items()
        ],
        "payments": [
            {"at_tick": 10, "sender": "ann", "recipient": "rey",
             "amount": amount, "asset": "coin"}
        ],
        "faults": [],
    }
    scenario, errors = validate_scenario(doc)
    assert errors == [], errors
    report = run_scenario(scenario)
    assert report["violations"] == []
    return report


def net_flows(report):
    """Per actor: (settled in, settled out) in coin."""
    return {
        name: (info["settled_in"].get("coin", 0), info["settled_out"].get("coin", 0))
        for name, info in report["actors"].items()
    }


def flat(base_fee):
    return RateQuote("coin", "coin", 1, 1, base_fee=base_fee)


@pytest.mark.parametrize("fields, match", [
    (dict(recipient=bytes(31)), "recipient"),
    (dict(amount=0), "amount"),
    (dict(payment_hash=bytes(31)), "payment_hash"),
    (dict(asset=""), "asset"),
], ids=["recipient-length", "amount-0", "hash-length", "empty-asset"])
def test_invoice_refuses_malformed_fields(fields, match):
    """Each check of `Invoice` refuses with ValueError."""
    good = dict(recipient=bytes(32), amount=1, asset="coin", hash_fn=S256,
                payment_hash=bytes(32))
    with pytest.raises(ValueError, match=match) as e:
        Invoice(**{**good, **fields})
    assert e.type is ValueError


def test_make_invoice_binds_secret(rng):
    recipient = NodeKey.generate(rng).pubkey
    invoice, secret = make_invoice(rng, recipient, 5000, "coin", S3)
    assert invoice.payment_hash == hash_digest(S3, secret)
    assert invoice.payment_hash != hash_digest(S256, secret)


def test_prepare_attempt_reads_each_hops_own_chain_height(rng):
    line = Line(
        rng,
        [
            ("x", "xc", RateQuote("xc", "yc", 1, 1)),
            ("y", "yc", RateQuote("yc", "zc", 1, 1)),
            ("z", "zc", None),
        ],
    )
    invoice, _ = make_invoice(rng, line.recipient, 100, "zc", S256)
    route = find_route(line.graph, line.sender, line.recipient, 100, "zc")
    heights = {"x": 40, "y": 90, "z": 100}
    attempt = prepare_attempt(invoice, route, heights, line.rng)
    # the first HTLC takes the top step over its own chain's height, plus
    # one block of propagation allowance
    assert attempt.expiry == offer_expiry(40, 18) == 59
    # each forwarder offers its step over the height of the chain it pays on
    offered = [
        offer_expiry(heights[p.chain_id], p.expiry_delta) for p in attempt.payloads[:-1]
    ]
    assert offered == [90 + 12 + 1, 100 + 6 + 1]
    with pytest.raises(KeyError):
        prepare_attempt(invoice, route, {"y": 90, "z": 100}, line.rng)


def test_three_hops_pay_each_forwarder_its_fee():
    report = run_line([5, 5], 1000)
    pay = report["payments"][0]
    assert pay["status"] == "settled" and pay["hops"] == 3
    assert pay["cost"] == 1010
    flows = net_flows(report)
    assert flows == {
        "ann": (0, 1010), "lp1": (1010, 1005), "lp2": (1005, 1000), "rey": (1000, 0)
    }
    # with free transactions the balances move by exactly the settled flows
    for name, info in report["actors"].items():
        gained = flows[name][0] - flows[name][1]
        assert info["final"]["coin"] - info["initial"]["coin"] == gained


def test_prepare_rejects_wrong_route(rng):
    line = Line(rng, [("main", "coin", None)])
    other = NodeKey.generate(rng).pubkey
    invoice, _ = make_invoice(rng, other, 500, "coin", S256)
    route = find_route(line.graph, line.sender, line.recipient, 500, "coin")
    with pytest.raises(RouteMismatch):
        prepare_attempt(invoice, route, line.heights(), line.rng)
    invoice2, _ = make_invoice(rng, line.recipient, 500, "btc", S256)
    with pytest.raises(RouteMismatch):
        prepare_attempt(invoice2, route, line.heights(), line.rng)


def test_recipient_self_quote_margin_lands_with_recipient():
    report = run_line([3], 1000, self_fee=7)
    pay = report["payments"][0]
    assert pay["status"] == "settled" and pay["cost"] == 1010
    # the hop into rey carries the invoice amount plus rey's own margin
    assert net_flows(report)["rey"] == (1007, 0)
    rey = report["actors"]["rey"]
    assert rey["final"]["coin"] - rey["initial"]["coin"] == 1007


def test_random_lines_settle_and_conserve(rng):
    for trial in range(6):
        fees = [rng.randint(0, 9) for _ in range(rng.randint(1, 3))]
        amount = rng.randint(100, 50_000)
        report = run_line(fees, amount)
        pay = report["payments"][0]
        assert pay["status"] == "settled", (trial, pay["reason"])
        assert pay["cost"] == amount + sum(fees)
        flows = net_flows(report)
        for name, info in report["actors"].items():
            gained = flows[name][0] - flows[name][1]
            assert info["final"]["coin"] - info["initial"]["coin"] == gained
        # sender pays exactly the quoted cost, the payee gains the amount
        assert flows["ann"] == (0, pay["cost"])
        assert flows["rey"] == (amount, 0)


def cross_chain_attempt(rng, quote, amount):
    """A fresh attempt paying `amount` ycoin through one LP converting xcoin
    on chain x to ycoin on chain y with `quote`."""
    line = Line(rng, [("x", "xcoin", quote), ("y", "ycoin", None)])
    invoice, _ = make_invoice(rng, line.recipient, amount, "ycoin", S256)
    route = find_route(line.graph, line.sender, line.recipient, amount, "ycoin")
    return prepare_attempt(invoice, route, line.heights(), line.rng)


def test_requoted_forwarder_rejects(rng):
    quote = RateQuote("xcoin", "ycoin", 10, 1, fee_ppm=10_000)
    attempt = cross_chain_attempt(rng, quote, 10_000)
    forward = attempt.payloads[0]
    incoming = attempt.route.hops[0].amount
    expiry = attempt.expiry
    # accepted, it names the expiry of the HTLC it offers on the next chain
    assert check_forward(forward, incoming, expiry, 0, quote, 30) == offer_expiry(30, 6) == 37
    # the LP re-prices after the route was built: stale pricing is refused
    requoted = RateQuote("xcoin", "ycoin", 10, 1, fee_ppm=20_000)
    with pytest.raises(ForwardRejected, match="quote-mismatch"):
        check_forward(forward, incoming, expiry, 0, requoted, 30)


def test_stale_expiry_headroom_rejected(rng):
    quote = RateQuote("xcoin", "ycoin", 10, 1)
    attempt = cross_chain_attempt(rng, quote, 1000)
    forward = attempt.payloads[0]
    incoming = attempt.route.hops[0].amount
    expiry = attempt.expiry
    # the propagation pad absorbs the one block mined while the offer travels
    check_forward(forward, incoming, expiry, 1, quote, 0)
    # expiries age past the propagation pad while the attempt waits
    with pytest.raises(ForwardRejected, match="expiry-too-tight"):
        check_forward(forward, incoming, expiry, 2, quote, 0)


def test_check_helpers_reject_misuse(rng):
    quote = flat(5)
    line = Line(rng, [("main", "coin", quote), ("main", "coin", None)])
    invoice, _ = make_invoice(rng, line.recipient, 1000, "coin", S256)
    route = find_route(line.graph, line.sender, line.recipient, 1000, "coin")
    attempt = prepare_attempt(invoice, route, line.heights(), line.rng)
    forward, terminal = attempt.payloads
    due, _ = backward_apply(quote, forward.amount_to_forward)
    need = forward.expiry_delta + HOP_DELTA
    # priced with the forwarder's quote, margin covered, one ladder step spare
    assert check_forward(forward, due, 1 + need, 1, quote, 5) == offer_expiry(5, 6)
    with pytest.raises(ForwardRejected, match="not-a-forward"):
        check_forward(terminal, 1000, 50, 1, RateQuote.identity("coin"), 1)
    with pytest.raises(ForwardRejected, match="quote-mismatch"):
        check_forward(forward, due, 50, 1, None, 1)
    with pytest.raises(ForwardRejected, match="insufficient-margin"):
        check_forward(forward, due - 1, 50, 1, quote, 1)
    with pytest.raises(ForwardRejected, match="amount-mismatch"):
        check_delivery(terminal, replace(invoice, amount=2000), 2000, 50, 1)
    with pytest.raises(ForwardRejected, match="wrong-asset"):
        check_delivery(terminal, replace(invoice, asset="btc"), 1000, 50, 1)
    with pytest.raises(ForwardRejected, match="insufficient-margin"):
        check_delivery(terminal, invoice, 999, 50, 1)
    with pytest.raises(ForwardRejected, match="expiry-too-tight"):
        check_delivery(terminal, invoice, 1000, 5, 9)
    # a non-terminal payload must not be accepted as delivery
    nonterminal = replace(terminal, next_node=b"\x07" * 32)
    with pytest.raises(ForwardRejected, match="not-terminal"):
        check_delivery(nonterminal, invoice, 1000, 50, 1)
    # a payee that made no invoice for the hash refuses first
    for payload in (terminal, nonterminal):
        with pytest.raises(ForwardRejected, match="unknown-payment"):
            check_delivery(payload, None, 1000, 50, 1)


def test_upstream_settles_only_what_was_paid_and_fails_back_the_rest():
    assert SETTLED == {"fulfilled", "claimed"}
    for outcome in SETTLED:
        assert upstream(outcome, True) == "settle"
        assert upstream(outcome, False) is None  # paid, but the preimage is not known yet
    for outcome in ("failed", "refunded", "justice"):
        for knows in (True, False):
            assert upstream(outcome, knows) == "downstream-" + outcome


# ------------------------------------------------------------------ route machine


class HonestLoss(AssertionError):
    """An honest forwarder's outgoing hop settled, and its incoming hop
    ended neither settled nor in justice."""


FUND = 30_000  # each side of each channel: every balance stays at 100 or more
FAULTS = ("crash", "stall", "slow")
MAX_FAULTS = 1  # crash, stall or slow steps per run


class RouteHop:
    """One HTLC of the payment: hop i is on channel i, offered by actor i
    to actor i + 1."""

    def __init__(self, htlc_id, amount, expiry, payload, next_packet):
        self.htlc_id, self.amount, self.expiry = htlc_id, amount, expiry
        # what the receiver's onion layer tells it, and the onion for the next hop
        self.payload, self.next_packet = payload, next_packet
        self.inspected = False  # the receiver has checked the offer
        self.decision = None  # "settle" (the payee) or a fail reason, taken when inspected
        self.outcome = ""  # fulfilled | failed | claimed | refunded | justice


class RouteMachine(RuleBasedStateMachine):
    """One payment along a line of 3 or 4 actors, each channel on one of 2
    or 3 chains with its own block interval, driven by `comit.swap`'s rules
    and the channel layer's `respond`, with no engine.

    One tick counter: a chain mines when `tick % block_interval == 0`. The
    sender starts the payment at tick 0 (`find_route`, `prepare_attempt`).
    A forwarder is prompt, or lazy: it forwards at the last block at which
    `check_forward` still accepts, so the rule must be safe at its bound.
    The payee may be slow for its first blocks. Each step then advances the
    clock, or makes one actor crash, stall or be slow for a window of
    ticks. On each tick, after the blocks, each online actor that is not
    slow takes its next off-chain step, payee first: it checks the hop
    offered to it (`check_delivery` at the payee; `check_forward` at a
    forwarder, which then offers the next hop at the expiry it returns),
    or else settles or fails that hop: the payee settles what it accepted,
    and a forwarder does what `upstream` says once its outgoing hop has
    ended. Then, and after every step, every online party makes the spends
    `respond` names on each of its channels, and the ledger must admit
    each one. A stalling party settles nothing off-chain and withholds its
    claims; a slow one takes no off-chain step but still acts on chain, as
    an honest party whose messages are late would. A confirmed claim makes
    its preimage public. The channel machine's allowances for ROADMAP item
    5 hold: every balance stays at 100 or more, and nobody broadcasts a
    revoked state.

    Invariants: value is conserved on every chain and in every open
    channel; and an honest forwarder (never crashed or stalled; slow or
    lazy is honest) whose outgoing chain mines no slower than its incoming
    one is never paid out downstream while its incoming hop ends unpaid.
    At teardown the clock runs until every HTLC is resolved, and the
    invariants hold then too. `HonestRouteMachine` holds every honest
    forwarder to the check, whatever its chains' intervals: ROADMAP item 1.
    """

    every_forwarder = False

    @initialize(
        intervals=st.lists(st.integers(1, 10), min_size=2, max_size=3),
        chains=st.lists(st.integers(0, 2), min_size=2, max_size=3),
        fees=st.lists(st.integers(0, 5), min_size=2, max_size=2),
        tx_fee=st.integers(0, 2),
        amount=st.integers(100, 10_000),
        prompt=st.lists(st.booleans(), min_size=2, max_size=2),
        payee_lag=st.integers(0, 40),
    )
    def open(self, intervals, chains, fees, tx_fee, amount, prompt, payee_lag):
        """Build the line, make forwarder k lazy unless prompt[k - 1] and the
        payee slow for its first `payee_lag` blocks, and start the payment."""
        self.build(intervals, chains, fees, tx_fee, amount)
        n = len(self.keys)
        self.lazy = {k for k in range(1, n - 1) if not prompt[k - 1]}
        if payee_lag:
            self.faults.append((n - 1, "slow", 0, payee_lag * self._interval(n - 2)))
        self.start()

    def build(self, intervals, chains, fees, tx_fee, amount):
        """Channel k joins actors k and k + 1 on chain (k + chains[k]) mod
        len(intervals), so equal draws put neighbouring channels on
        different chains; forwarder k quotes 1:1 between its two chains'
        assets at base fee fees[k - 1]; the sender will pay `amount`."""
        rng = random.Random(0xC0211)
        self.tick, self.amount = 0, amount
        self.cids = [f"c{(k + c) % len(intervals)}" for k, c in enumerate(chains)]
        n = len(chains) + 1
        self.keys = [NodeKey.generate(rng) for _ in range(n)]
        # parties[k] = (actor k's party, actor k + 1's party) on channel k
        self.parties = [(ChannelParty.generate(rng), ChannelParty.generate(rng)) for _ in chains]
        self.ledgers = {}
        for c, interval in enumerate(intervals):
            cid = f"c{c}"
            params = ChainParams(cid, f"a{c}", frozenset({S256}), interval, tx_fee)
            genesis = [(party.pubkey, FUND + 10 * tx_fee)
                       for k, pair in enumerate(self.parties) if self.cids[k] == cid
                       for party in pair]
            self.ledgers[cid] = Ledger(params, genesis)
        self.channels = [open_channel(self.ledgers[cid], a, b, FUND, FUND)
                         for cid, (a, b) in zip(self.cids, self.parties)]
        self.quotes = {k: RateQuote(self._asset(k - 1), self._asset(k), 1, 1, base_fee=fees[k - 1])
                       for k in range(1, n - 1)}
        self.secrets = [{} for _ in range(n)]  # per actor: payment hash -> preimage
        self.faults = []  # (actor, kind, from tick, to tick)
        self.injected = 0  # fault steps taken
        self.lazy = set()  # the forwarders that forward as late as the rule allows
        self.pending = {}  # txid -> (channel index, Spend)
        self.hops = []

    def start(self):
        """The sender pays the payee along the line: `find_route`, then
        `prepare_attempt` gives the first hop's expiry and the onion."""
        n = len(self.keys)
        ids = [k.pubkey for k in self.keys]
        graph = ChannelGraph(
            {cid: frozenset({S256}) for cid in self.ledgers},
            [Edge(ids[k], ids[k + 1], self.cids[k], self._asset(k), FUND) for k in range(n - 1)],
            [(ids[k], quote) for k, quote in self.quotes.items()],
        )
        asset = self._asset(n - 2)
        self.invoice, secret = make_invoice(random.Random(1), ids[-1], self.amount, asset, S256)
        self.secrets[-1][self.invoice.payment_hash] = secret
        route = find_route(graph, ids[0], ids[-1], self.amount, asset)
        heights = {cid: led.height for cid, led in self.ledgers.items()}
        attempt = prepare_attempt(self.invoice, route, heights, random.Random(2))
        self._add(0, attempt.cost, attempt.expiry, attempt.packet)
        self._respond_all()

    def _asset(self, k):
        return self.ledgers[self.cids[k]].params.asset_id

    def _interval(self, k):
        return self.ledgers[self.cids[k]].params.block_interval

    def _faulted(self, who, kind):
        return any(w == who and f == kind and start <= self.tick < end
                   for w, f, start, end in self.faults)

    def _online(self, who):
        return not self._faulted(who, "crash")

    def _resolved(self):
        return all(h.outcome for h in self.hops)

    def _open(self, k):
        ch = self.channels[k]
        return ch.phase is ChannelPhase.OPEN and not ch.closing

    def _add(self, k, amount, expiry, packet):
        """Actor k offers the payment's HTLC on channel k; actor k + 1 peels
        the onion that comes with it."""
        htlc_id = self.channels[k].add_htlc(
            self.parties[k][0], amount, S256, self.invoice.payment_hash, expiry
        )
        self.hops.append(RouteHop(htlc_id, amount, expiry, *onion_peel(packet, self.keys[k + 1])))

    # --- rules ----------------------------------------------------------------

    @rule(chain=st.integers(0, 2), blocks=st.integers(1, 8))
    def advance(self, chain, blocks):
        """Run the clock until chain `chain` has mined `blocks` more blocks,
        or every HTLC is resolved."""
        led = self.ledgers[f"c{chain % len(self.ledgers)}"]
        target = led.height + blocks
        while led.height < target and not self._resolved():
            self._tick()

    @precondition(lambda self: self.injected < MAX_FAULTS)
    @rule(who=st.integers(0, 11), ticks=st.integers(1, 60), kind=st.sampled_from(FAULTS))
    def fault(self, who, ticks, kind):
        """Actor `who` (counted back from the payee, whose lateness every
        forwarder must survive) crashes, stalls or is slow for `ticks` ticks
        from now."""
        n = len(self.keys)
        self.faults.append((n - 1 - who % n, kind, self.tick, self.tick + ticks))
        self.injected += 1

    def _act(self, k):
        """Actor k checks the hop offered to it, or else settles or fails it."""
        i = k - 1  # the hop actor k receives
        if not (0 <= i < len(self.hops)) or self._faulted(k, "slow"):
            return
        if self.hops[i].inspected:
            self._settle_or_fail(i)
        elif not (k in self.lazy and self._forward_can_wait(i)):
            self._inspect(i)

    def _check_forward(self, i, height):
        """`check_forward` of hop i's onion payload at incoming `height`."""
        hop, recv = self.hops[i], i + 1
        return check_forward(hop.payload, hop.amount, hop.expiry, height,
                             self.quotes.get(recv), self.channels[recv].ledger.height)

    def _forward_can_wait(self, i):
        """Whether a lazy forwarder may leave hop i for a block: its channel
        is open and `check_forward` would still accept it then. It forwards
        at the last height the rule accepts, which must be safe too."""
        if not self._open(i):
            return False
        try:
            self._check_forward(i, self.channels[i].ledger.height + 1)
        except ForwardRejected:
            return False
        return True

    def _inspect(self, i):
        """The receiver of hop i peels and checks it: the payee accepts it or
        not; a forwarder offers the next hop at the expiry `check_forward`
        returns, or fails this one."""
        hop, recv = self.hops[i], i + 1
        hop.inspected = True
        if not self._open(i):
            return  # on chain now
        payload = hop.payload
        height = self.channels[i].ledger.height
        try:
            if payload.next_node is None:
                mine = self.channels[i].htlc(hop.htlc_id).payment_hash in self.secrets[recv]
                check_delivery(payload, self.invoice if mine else None,
                               hop.amount, hop.expiry, height)
                hop.decision = "settle"
                return
            expiry = self._check_forward(i, height)
        except ForwardRejected as exc:
            hop.decision = exc.reason
            return
        if not (self._open(recv) and self._online(recv + 1)):
            hop.decision = "peer-unavailable"
            return
        self._add(recv, payload.amount_to_forward, expiry, hop.next_packet)
        self._respond_all()

    def _step(self, i):
        """What the receiver of hop i does with it off-chain: "settle", a
        fail reason, or None (nothing, or nothing yet)."""
        hop = self.hops[i]
        if hop.outcome:
            return None
        if hop.decision is not None:
            return hop.decision
        if i + 1 < len(self.hops) and self.hops[i + 1].outcome:
            knows = self.invoice.payment_hash in self.secrets[i + 1]
            return upstream(self.hops[i + 1].outcome, knows)
        return None

    def _settle_or_fail(self, i):
        """Settle or fail hop i off-chain, if both its parties are online, its
        channel is open and, for a settle, neither party stalls."""
        step = self._step(i)
        if step is None or not self._open(i) or not (self._online(i) and self._online(i + 1)):
            return
        hop, ch, payment_hash = self.hops[i], self.channels[i], self.invoice.payment_hash
        if step != "settle":
            ch.fail_htlc(hop.htlc_id)
            hop.outcome = "failed"
        elif not (self._faulted(i, "stall") or self._faulted(i + 1, "stall")):
            ch.fulfill_htlc(hop.htlc_id, self.secrets[i + 1][payment_hash])
            self.secrets[i][payment_hash] = self.secrets[i + 1][payment_hash]
            hop.outcome = "fulfilled"
        self._respond_all()

    # --- chains -----------------------------------------------------------------

    def _tick(self):
        self.tick += 1
        for cid in sorted(self.ledgers):
            led = self.ledgers[cid]
            if self.tick % led.params.block_interval:
                continue
            block, = led.mine_blocks(1)
            for k, ch in enumerate(self.channels):
                if self.cids[k] == cid:
                    ch.process_block(block)
            for tx_id in block.txids:
                if tx_id in self.pending:
                    self._confirmed(*self.pending.pop(tx_id))
        for k in reversed(range(1, len(self.keys))):
            if self._online(k):
                self._act(k)
        self._respond_all()

    def _confirmed(self, k, spend):
        """A `respond` spend on channel k confirmed: a claim makes its
        preimage public and settles hop k, a refund ends it, and justice
        ends it too."""
        hop = self.hops[k]
        if spend.kind == "claim":
            for known in self.secrets:
                known.setdefault(spend.htlc.payment_hash, spend.args[2])
        outcome = {"claim": "claimed", "refund": "refunded", "justice": "justice"}.get(spend.kind)
        if outcome and not hop.outcome:
            assert spend.htlc is None or spend.htlc.htlc_id == hop.htlc_id
            hop.outcome = outcome

    def _respond_all(self):
        for k, ch in enumerate(self.channels):
            for who, party in ((k, self.parties[k][0]), (k + 1, self.parties[k][1])):
                if not self._online(who):
                    continue
                for spend in respond(ch, party, self.secrets[who]):
                    if spend.kind == "claim" and self._faulted(who, "stall"):
                        continue  # withheld
                    self.pending[txid(spend.build(*spend.args))] = (k, spend)

    # --- checks -------------------------------------------------------------------

    @invariant()
    def value_is_conserved(self):
        for led in self.ledgers.values():
            assert led.total_utxo_value() + led.burned == led.genesis_total
        for ch in self.channels:
            if ch.phase is ChannelPhase.OPEN:
                s = ch.state
                assert s.balance_a + s.balance_b + sum(h.amount for h in s.htlcs) == ch.capacity

    def _checked(self, k):
        """Whether forwarder k is held to the honest-loss check."""
        honest = all(w != k or kind == "slow" for w, kind, *_ in self.faults)
        return honest and (self.every_forwarder or self._interval(k) <= self._interval(k - 1))

    @invariant()
    def no_honest_forwarder_pays_unpaid(self):
        for k in range(1, len(self.hops)):
            paid_out, paid_in = self.hops[k].outcome, self.hops[k - 1].outcome
            if (self._checked(k) and paid_out in SETTLED and paid_in
                    and paid_in not in SETTLED | {"justice"}):
                raise HonestLoss(
                    f"forwarder {k}: outgoing {paid_out} on {self.cids[k]} (interval "
                    f"{self._interval(k)}), incoming {paid_in} on {self.cids[k - 1]} "
                    f"(interval {self._interval(k - 1)})"
                )

    def teardown(self):
        if not hasattr(self, "hops"):
            return
        for _ in range(2_000):
            if self._resolved():
                break
            self._tick()
        assert self._resolved(), [h.outcome for h in self.hops]
        assert all(not ch.pending_htlcs for ch in self.channels if ch.phase is ChannelPhase.OPEN)
        self.value_is_conserved()
        self.no_honest_forwarder_pays_unpaid()


RouteMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=10, derandomize=True, deadline=None
)
TestRouteMachine = RouteMachine.TestCase


class HonestRouteMachine(RouteMachine):
    """RouteMachine, holding every honest forwarder to the honest-loss check."""

    every_forwarder = True


HonestRouteMachine.TestCase.settings = settings(
    max_examples=500, stateful_step_count=10, derandomize=True, deadline=None,
    phases=(Phase.explicit, Phase.generate), report_multiple_bugs=False,
)
TestHonestRouteMachine = pytest.mark.xfail(
    strict=True, raises=HonestLoss,
    reason="ROADMAP item 1: the expiry ladder counts blocks of each hop's own chain, so a "
    "slower outgoing chain lets the outgoing HTLC outlive the incoming one",
)(HonestRouteMachine.TestCase)


@pytest.mark.xfail(strict=True, raises=HonestLoss, reason="ROADMAP item 1: lp's outgoing HTLC "
                   "on the slow chain outlives its incoming one on the fast chain")
def test_two_chain_forwarder_is_paid_what_it_pays():
    """ROADMAP item 1's two-chain case, driven step by step through the
    route machine's rules: alpha mines every tick and beta every 10, ana
    pays bo 10,000 through lp, which converts 1:1 at a base fee of 2, and bo
    stalls over ticks 0-40. ana force-closes and refunds on alpha before
    bo's stall ends; bo then settles with lp off-chain."""
    m = HonestRouteMachine()
    m.open(intervals=[1, 10], chains=[0, 0], fees=[2, 0], tx_fee=0, amount=10_000,
           prompt=[True, True], payee_lag=0)
    assert [m.cids, m.hops[0].amount] == [["c0", "c1"], 10_002]
    m.fault(0, 40, "stall")  # bo, the payee
    m.advance(0, 20)  # 20 alpha blocks: lp forwards on beta, bo accepts
    assert m.tick == 20 and [h.decision for h in m.hops] == [None, "settle"]
    # lp's incoming HTLC expired at alpha height 14 (tick 13); its outgoing one
    # expires at beta height 8, at tick 70
    assert (m.hops[0].expiry, m.hops[1].expiry) == (14, 8)
    assert [h.outcome for h in m.hops] == ["refunded", ""]
    m.value_is_conserved()
    m.no_honest_forwarder_pays_unpaid()
    m.advance(1, 2)  # tick 40: bo's stall ends, and it settles with lp
    assert [h.outcome for h in m.hops] == ["refunded", "fulfilled"]
    m.no_honest_forwarder_pays_unpaid()
