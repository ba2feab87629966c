"""Hash-locked payments across channels and chains.

An invoice pins a payment hash under one hash function. The routing layer
finds a path and prices each hop; this layer sets every HTLC's terms and
decides each hop's off-chain steps. The sender turns a found route into
the first HTLC's absolute expiry and an onion of forwarding instructions,
each carrying the forward's amount and its step of the expiry ladder
(FINAL_DELTA for the payee, one HOP_DELTA more per hop before it).
offer_expiry is the one rule that turns a step into an absolute expiry on
the offering chain, for the first hop and, returned by check_forward, for
every forward. check_forward / check_delivery are the rules by which a hop
accepts an HTLC, and upstream says whether a forwarder settles or fails
back its incoming HTLC once the outgoing one has ended. The simulator
(`comit.simnet`) drives the HTLCs: settlement is the reveal of the invoice
secret rippling back along the hops, and any refusal fails the HTLCs back
in order. Every hop is hash-locked under the same secret, but the ladder
counts each step in blocks of the hop's own chain. When the outgoing chain
mines slower, a forwarder's outgoing HTLC can outlive its incoming one,
and a payee that settles after the sender's refund leaves an honest
forwarder out of pocket (ROADMAP item 1, and the strict xfail
`tests/test_swap.py::test_two_chain_forwarder_is_paid_what_it_pays`).
"""

from .invoice import Invoice, make_invoice
from .payment import (
    FINAL_DELTA,
    HOP_DELTA,
    SETTLED,
    ForwardRejected,
    PaymentAttempt,
    PaymentError,
    RouteMismatch,
    check_delivery,
    check_forward,
    ladder_delta,
    offer_expiry,
    payloads_for_route,
    prepare_attempt,
    upstream,
)

__all__ = [
    "Invoice",
    "make_invoice",
    "PaymentAttempt",
    "PaymentError",
    "RouteMismatch",
    "ForwardRejected",
    "FINAL_DELTA",
    "HOP_DELTA",
    "SETTLED",
    "ladder_delta",
    "offer_expiry",
    "payloads_for_route",
    "prepare_attempt",
    "check_forward",
    "check_delivery",
    "upstream",
]
