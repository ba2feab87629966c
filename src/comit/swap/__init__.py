"""Hash-locked payments across channels and chains.

An invoice pins a payment hash under one hash function; the sender turns
a found route into per-hop HTLC terms (amounts from the quoted rates,
absolute expiries stacked per chain) and an onion of forwarding
instructions, and check_forward / check_delivery are the rules by which a
hop accepts an HTLC. The simulator (`comit.simnet`) drives the HTLCs:
settlement is the reveal of the invoice secret rippling back along the
hops, any refusal fails the HTLCs back in order, and because every hop is
hash-locked under the same secret no honest forwarder can end up out of
pocket.
"""

from .invoice import Invoice, make_invoice
from .payment import (
    ForwardRejected,
    PaymentAttempt,
    PaymentError,
    RouteMismatch,
    check_delivery,
    check_forward,
    prepare_attempt,
    stack_expiries,
)

__all__ = [
    "Invoice",
    "make_invoice",
    "PaymentAttempt",
    "PaymentError",
    "RouteMismatch",
    "ForwardRejected",
    "prepare_attempt",
    "stack_expiries",
    "check_forward",
    "check_delivery",
]
