"""Hash-locked payments across channels and chains.

An invoice pins a payment hash under one hash function. The routing layer
finds a path and prices each hop; this layer sets every HTLC's terms. The
sender turns a found route into the first HTLC's absolute expiry and an
onion of forwarding instructions, each carrying the forward's amount and
its step of the expiry ladder (FINAL_DELTA for the payee, one HOP_DELTA
more per hop before it). offer_expiry is the one rule that turns a step
into an absolute expiry on the offering chain, for the first hop and for
every forward. check_forward / check_delivery are the rules by which a
hop accepts an HTLC. The simulator (`comit.simnet`) drives the HTLCs:
settlement is the reveal of the invoice secret rippling back along the
hops, any refusal fails the HTLCs back in order, and because every hop is
hash-locked under the same secret no honest forwarder can end up out of
pocket.
"""

from .invoice import Invoice, make_invoice
from .payment import (
    FINAL_DELTA,
    HOP_DELTA,
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
    "ladder_delta",
    "offer_expiry",
    "payloads_for_route",
    "prepare_attempt",
    "check_forward",
    "check_delivery",
]
