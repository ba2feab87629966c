"""Routing layer: liquidity-provider gossip, source route finding over
advertised channels and rate quotes, and the layered per-hop onion that
carries forwarding instructions without revealing the route."""

from .quotes import AmountOverflow, RateQuote, backward_apply
from .identity import NodeKey
from .gossip import ChannelEndpoint, GossipState, LpAdvert, make_advert, verify_advert
from .graph import (
    ChannelGraph,
    Edge,
    HopSpec,
    NoRouteFound,
    Route,
    RouteTooLong,
    compute_hop_amounts,
    find_route,
)
from .onion import (
    HmacFailure,
    HopPayload,
    InvalidPacket,
    OnionError,
    OnionPacket,
    PACKET_SIZE,
    PayloadOverflow,
    QuoteEcho,
    onion_create,
    onion_peel,
)

__all__ = [
    "RateQuote",
    "backward_apply",
    "AmountOverflow",
    "NodeKey",
    "LpAdvert",
    "ChannelEndpoint",
    "GossipState",
    "make_advert",
    "verify_advert",
    "ChannelGraph",
    "Edge",
    "Route",
    "HopSpec",
    "find_route",
    "compute_hop_amounts",
    "NoRouteFound",
    "RouteTooLong",
    "HopPayload",
    "QuoteEcho",
    "OnionPacket",
    "onion_create",
    "onion_peel",
    "OnionError",
    "HmacFailure",
    "InvalidPacket",
    "PayloadOverflow",
    "PACKET_SIZE",
]
