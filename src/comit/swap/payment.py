"""Turning a route into hop-by-hop HTLC terms, and the per-hop rules.

The routing layer (`comit.crp`) finds the path and prices every hop; this
module sets the timelocks. prepare_attempt fixes a payment attempt's first
HTLC expiry and its onion, whose payloads carry each forward's amount from
the route and its step of the expiry ladder; check_forward and
check_delivery decide whether a node accepts an HTLC, and upstream how a
forwarder then resolves it. The HTLCs themselves are offered, settled and
failed by the event-driven simulator (`comit.simnet`), which calls these
rules at every hop and offers each forward at the expiry check_forward
returns. A forwarding node accepts an HTLC only if the sender priced it
with the node's own advertised quote, the incoming amount covers the
outgoing amount plus the node's margin, and the incoming expiry leaves at
least one HOP_DELTA step more headroom than the outgoing one. Expiries are
absolute block heights on each hop's own chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from ..crp import (
    HopPayload,
    OnionPacket,
    QuoteEcho,
    RateQuote,
    Route,
    backward_apply,
    onion_create,
)
from .invoice import Invoice

# Expiry ladder, in blocks: the payee gets FINAL_DELTA blocks of safety
# margin and every forwarder one HOP_DELTA step between its incoming and
# outgoing HTLC.
FINAL_DELTA = 6
HOP_DELTA = 6
# How a hop that paid its receiver ended: off-chain or claimed on chain.
SETTLED = frozenset({"fulfilled", "claimed"})


def ladder_delta(hops_after: int) -> int:
    """The ladder step of an HTLC that `hops_after` more hops follow to the payee."""
    return FINAL_DELTA + hops_after * HOP_DELTA


def offer_expiry(height: int, expiry_delta: int) -> int:
    """The absolute expiry of an HTLC offered at chain height `height`.

    One block of propagation allowance rides on the ladder step: the
    receiver inspects the HTLC a tick later, after its chain may have mined
    once more, and must still see the whole step as headroom."""
    return height + expiry_delta + 1


class PaymentError(Exception):
    pass


class RouteMismatch(PaymentError):
    """The route does not deliver what the invoice asks for."""


class ForwardRejected(PaymentError):
    """A hop (or the payee) refused the HTLC. `reason` is a short code."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason


def payloads_for_route(route: Route, amount_out: int) -> list[HopPayload]:
    """Per-hop instructions: each node learns only its successor, what to
    forward, the ladder step of the HTLC it offers (of its own HTLC, at the
    payee), and the quote it was priced at. A forward carries the amount
    the route priced its next hop at, so the route must be one found for
    `amount_out`."""
    hops = route.hops
    payloads = []
    for i, hop in enumerate(hops[:-1]):
        nxt = hops[i + 1]
        payloads.append(HopPayload(
            next_node=nxt.node, chain_id=nxt.chain_id, asset=nxt.asset,
            amount_to_forward=nxt.amount, expiry_delta=ladder_delta(len(hops) - 2 - i),
            echo=QuoteEcho.of(hop.quote),
        ))
    last = hops[-1]
    payloads.append(HopPayload(
        next_node=None, chain_id=last.chain_id, asset=last.asset,
        amount_to_forward=amount_out, expiry_delta=ladder_delta(0),
        echo=QuoteEcho.of(last.quote),
    ))
    return payloads


@dataclass(frozen=True, slots=True)
class PaymentAttempt:
    route: Route
    expiry: int  # of the first hop's HTLC, on its chain
    payloads: tuple[HopPayload, ...]
    packet: OnionPacket

    @property
    def cost(self) -> int:
        return self.route.cost


def prepare_attempt(
    invoice: Invoice,
    route: Route,
    chain_heights: Mapping[str, int],
    hop_secrets: Sequence[bytes],
) -> PaymentAttempt:
    """The attempt that pays `invoice` along `route`: its first HTLC's
    expiry on the first hop's chain, at that chain's height in
    `chain_heights`, and its onion, built with one fresh 32-byte ephemeral
    secret per hop (`hop_secrets`, in route order)."""
    if route.recipient != invoice.recipient:
        raise RouteMismatch("route does not end at the invoice recipient")
    if route.hops[-1].asset != invoice.asset:
        raise RouteMismatch(
            f"route delivers {route.hops[-1].asset}, invoice wants {invoice.asset}"
        )
    payloads = payloads_for_route(route, invoice.amount)
    return PaymentAttempt(
        route=route,
        expiry=offer_expiry(
            chain_heights[route.hops[0].chain_id], ladder_delta(len(route.hops) - 1)
        ),
        payloads=tuple(payloads),
        packet=onion_create(route.nodes(), hop_secrets, payloads),
    )


def check_forward(
    payload: HopPayload,
    incoming_amount: int,
    incoming_expiry: int,
    incoming_height: int,
    quote: Optional[RateQuote],
    outgoing_height: int,
) -> int:
    """Would an honest forwarder accept this? Raises ForwardRejected if not,
    else returns the expiry of the HTLC to offer at `outgoing_height`."""
    if payload.next_node is None:
        raise ForwardRejected("not-a-forward", "terminal payload at a forwarding hop")
    if quote is None or not payload.echo.matches(quote):
        raise ForwardRejected("quote-mismatch", "not priced with this node's quote")
    due, _ = backward_apply(quote, payload.amount_to_forward)
    if incoming_amount < due:
        raise ForwardRejected(
            "insufficient-margin", f"incoming {incoming_amount} < due {due}"
        )
    headroom = incoming_expiry - incoming_height
    need = payload.expiry_delta + HOP_DELTA
    if headroom < need:
        raise ForwardRejected("expiry-too-tight", f"{headroom} blocks left, need {need}")
    return offer_expiry(outgoing_height, payload.expiry_delta)


def check_delivery(
    payload: HopPayload,
    invoice: Optional[Invoice],
    incoming_amount: int,
    incoming_expiry: int,
    incoming_height: int,
) -> None:
    """Would the payee accept this HTLC as paying `invoice`, the invoice it
    made for the HTLC's payment hash (None if it made none)?"""
    if invoice is None:
        raise ForwardRejected("unknown-payment", "no invoice for this hash")
    if payload.next_node is not None:
        raise ForwardRejected("not-terminal", "onion does not end here")
    if payload.asset != invoice.asset:
        raise ForwardRejected(
            "wrong-asset", f"{payload.asset} instead of {invoice.asset}"
        )
    if payload.amount_to_forward != invoice.amount:
        raise ForwardRejected(
            "amount-mismatch",
            f"{payload.amount_to_forward} instead of {invoice.amount}",
        )
    if incoming_amount < invoice.amount:
        raise ForwardRejected(
            "insufficient-margin", f"htlc {incoming_amount} < {invoice.amount}"
        )
    if incoming_expiry <= incoming_height:
        raise ForwardRejected("expiry-too-tight", "already expired")


def upstream(down_outcome: str, knows_preimage: bool) -> Optional[str]:
    """What a forwarder does with its incoming HTLC once its outgoing one
    ended as `down_outcome`: "settle" if that paid and the forwarder knows
    the preimage, the reason to fail back if it ended unpaid, else None."""
    if down_outcome not in SETTLED:
        return "downstream-" + down_outcome
    return "settle" if knows_preimage else None
