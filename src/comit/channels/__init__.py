"""Trustless two-party payment channels over the simulated ledger.

Off-chain updates are asymmetric commitment transactions: each party holds
its own pre-signed version whose own payout is delayed and revocable, so
broadcasting a stale state hands the counterparty everything via the
revealed invalidation key. `respond` is the honest party's on-chain
policy: the spends it makes on a channel at the current height.
"""

from .channel import (
    AmountBelowDust,
    BadPreimage,
    Channel,
    ChannelError,
    ChannelParty,
    ChannelPhase,
    Htlc,
    InsufficientBalance,
    InsufficientFunds,
    PendingHtlcs,
    Spend,
    StalePhase,
    UnknownHtlc,
    UnsupportedHashFunction,
    URGENT_BLOCKS,
    WindowExpired,
    open_channel,
    respond,
)

__all__ = [
    "Channel",
    "ChannelParty",
    "ChannelPhase",
    "Htlc",
    "open_channel",
    "respond",
    "Spend",
    "URGENT_BLOCKS",
    "ChannelError",
    "InsufficientFunds",
    "InsufficientBalance",
    "UnsupportedHashFunction",
    "StalePhase",
    "BadPreimage",
    "UnknownHtlc",
    "PendingHtlcs",
    "WindowExpired",
    "AmountBelowDust",
]
