"""Turning a route into hop-by-hop HTLC terms, and the per-hop admission rules.

prepare_attempt fixes a payment attempt's expiries and onion and takes its
amounts from the route, which find_route priced for the invoice amount;
check_forward and check_delivery decide whether a node accepts an HTLC.
The HTLCs themselves are offered, settled and failed by the event-driven
simulator (`comit.simnet`), which calls these rules at every hop. A
forwarding node accepts an HTLC only if the sender priced it with the
node's own advertised quote, the incoming amount covers the outgoing amount
plus the node's margin, and the incoming expiry leaves at least one
HOP_DELTA step more headroom than the outgoing one. Expiries are absolute
block heights on each hop's own chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from ..crp import (
    HOP_DELTA,
    HopPayload,
    OnionPacket,
    RateQuote,
    Route,
    backward_apply,
    onion_create,
    payloads_for_route,
)
from .invoice import Invoice


class PaymentError(Exception):
    pass


class RouteMismatch(PaymentError):
    """The route does not deliver what the invoice asks for."""


class ForwardRejected(PaymentError):
    """A hop (or the payee) refused the HTLC. `reason` is a short code."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason
        self.detail = detail


def stack_expiries(route: Route, chain_heights: Mapping[str, int]) -> list[int]:
    """Absolute expiry height per hop, on that hop's own chain.

    Each hop is padded by one block per step of distance from the sender:
    hop i is only inspected after the HTLC chain has propagated i+1 steps,
    and up to one block can be mined per step.  Without the pad a forwarder
    checking headroom against its own delta would see the ladder already
    eroded and reject an honest, fresh attempt.
    """
    out = []
    for i, hop in enumerate(route.hops):
        if hop.chain_id not in chain_heights:
            raise RouteMismatch(f"no height known for chain {hop.chain_id}")
        out.append(chain_heights[hop.chain_id] + hop.expiry_delta + i + 1)
    return out


@dataclass(frozen=True)
class PaymentAttempt:
    invoice: Invoice
    route: Route
    amounts: tuple[tuple[int, int], ...]  # per hop (amount, fee)
    expiries: tuple[int, ...]
    payloads: tuple[HopPayload, ...]
    packet: OnionPacket

    @property
    def cost(self) -> int:
        return self.amounts[0][0]


def prepare_attempt(
    invoice: Invoice,
    route: Route,
    chain_heights: Mapping[str, int],
    session_rng,
) -> PaymentAttempt:
    if route.recipient != invoice.recipient:
        raise RouteMismatch("route does not end at the invoice recipient")
    if route.hops[-1].asset != invoice.asset:
        raise RouteMismatch(
            f"route delivers {route.hops[-1].asset}, invoice wants {invoice.asset}"
        )
    payloads = payloads_for_route(route, invoice.amount)
    return PaymentAttempt(
        invoice=invoice,
        route=route,
        amounts=tuple((hop.amount, hop.fee) for hop in route.hops),
        expiries=tuple(stack_expiries(route, chain_heights)),
        payloads=tuple(payloads),
        packet=onion_create(route, session_rng, payloads),
    )


def check_forward(
    payload: HopPayload,
    incoming_amount: int,
    incoming_expiry: int,
    incoming_height: int,
    quote: Optional[RateQuote],
) -> None:
    """Would an honest forwarder accept this? Raises ForwardRejected if not."""
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


def check_delivery(
    payload: HopPayload,
    invoice: Invoice,
    incoming_amount: int,
    incoming_expiry: int,
    incoming_height: int,
) -> None:
    """Would the payee accept this HTLC as paying `invoice`?"""
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
