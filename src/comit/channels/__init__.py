"""Trustless two-party payment channels over the simulated ledger.

Off-chain updates are asymmetric commitment transactions: each party holds
its own pre-signed version whose own payout is delayed and revocable, so
broadcasting a stale state hands the counterparty the broadcaster's balance
via the revealed invalidation key, and each HTLC output the broadcaster
does not claim or refund first. `respond` is the honest party's on-chain
policy: the spends it makes on a channel at the current height. It names
one only where `may_respond` holds, and one waiting for height alone first
at an `urgent_height` or one of `wake_heights`: its wake contract.
"""

from .channel import (
    AmountBelowDust,
    BadPreimage,
    Channel,
    ChannelError,
    ChannelParty,
    ChannelPhase,
    CLOSED_ON_CHAIN,
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
    empty_commitment,
    may_respond,
    open_channel,
    respond,
    urgent_height,
    wake_heights,
)

__all__ = [
    "Channel",
    "ChannelParty",
    "ChannelPhase",
    "Htlc",
    "open_channel",
    "empty_commitment",
    "respond",
    "may_respond",
    "urgent_height",
    "wake_heights",
    "Spend",
    "URGENT_BLOCKS",
    "CLOSED_ON_CHAIN",
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
