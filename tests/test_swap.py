"""Payment terms, the hop admission rules, and payments priced by them.

The HTLCs of a payment are driven by the simulator, so the end-to-end cases
here run small line scenarios through `comit.simnet`."""

from dataclasses import replace

import pytest

from comit.chainlab import HashFnId, hash_digest
from comit.crp import (
    ChannelGraph,
    Edge,
    NodeKey,
    RateQuote,
    backward_apply,
    find_route,
)
from comit.simnet import run_scenario, validate_scenario
from comit.swap import (
    HOP_DELTA,
    ForwardRejected,
    RouteMismatch,
    check_delivery,
    check_forward,
    make_invoice,
    offer_expiry,
    prepare_attempt,
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
        )
        for i, (_, _, quote) in enumerate(hops):
            if quote is not None:
                self.graph.add_quote(self.ids[i + 1], quote)

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


def test_make_invoice_binds_secret(rng):
    recipient = NodeKey.generate(rng).pubkey
    invoice, secret = make_invoice(rng, recipient, 5000, "coin", S3)
    assert invoice.payment_hash == hash_digest(S3, secret)
    assert invoice.payment_hash != hash_digest(S256, secret)


def test_stack_expiries_uses_each_hops_chain_height(rng):
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
    check_forward(forward, incoming, expiry, 0, quote)
    # the LP re-prices after the route was built: stale pricing is refused
    requoted = RateQuote("xcoin", "ycoin", 10, 1, fee_ppm=20_000)
    with pytest.raises(ForwardRejected, match="quote-mismatch"):
        check_forward(forward, incoming, expiry, 0, requoted)


def test_stale_expiry_headroom_rejected(rng):
    quote = RateQuote("xcoin", "ycoin", 10, 1)
    attempt = cross_chain_attempt(rng, quote, 1000)
    forward = attempt.payloads[0]
    incoming = attempt.route.hops[0].amount
    expiry = attempt.expiry
    # the propagation pad absorbs the one block mined while the offer travels
    check_forward(forward, incoming, expiry, 1, quote)
    # expiries age past the propagation pad while the attempt waits
    with pytest.raises(ForwardRejected, match="expiry-too-tight"):
        check_forward(forward, incoming, expiry, 2, quote)


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
    check_forward(forward, due, 1 + need, 1, quote)
    with pytest.raises(ForwardRejected, match="not-a-forward"):
        check_forward(terminal, 1000, 50, 1, RateQuote.identity("coin"))
    with pytest.raises(ForwardRejected, match="quote-mismatch"):
        check_forward(forward, due, 50, 1, None)
    with pytest.raises(ForwardRejected, match="insufficient-margin"):
        check_forward(forward, due - 1, 50, 1, quote)
    with pytest.raises(ForwardRejected, match="amount-mismatch"):
        check_delivery(terminal, replace(invoice, amount=2000), 2000, 50, 1)
    with pytest.raises(ForwardRejected, match="wrong-asset"):
        check_delivery(terminal, replace(invoice, asset="btc"), 1000, 50, 1)
    with pytest.raises(ForwardRejected, match="insufficient-margin"):
        check_delivery(terminal, invoice, 999, 50, 1)
    with pytest.raises(ForwardRejected, match="expiry-too-tight"):
        check_delivery(terminal, invoice, 1000, 5, 9)
    # a non-terminal payload must not be accepted as delivery
    with pytest.raises(ForwardRejected, match="not-terminal"):
        nonterminal = replace(terminal, next_node=b"\x07" * 32)
        check_delivery(nonterminal, invoice, 1000, 50, 1)
