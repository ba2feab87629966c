"""Rate quotes and the integer fee/conversion arithmetic.

All amounts are integers and all intermediate math is exact; rounding is
always up (ceiling) in the direction that favors the forwarding node, so a
quoted amount_in is always sufficient. Amounts are capped at 2**64 - 1.

A quote converts one unit of asset_in into rate_num/rate_den units of
asset_out. Applying a quote backward (from the amount the next hop must
receive to the amount this hop must carry):

    pre       = ceil(amount_out * rate_den / rate_num)
    fee       = base_fee + ceil(pre * fee_ppm / 1_000_000)
    amount_in = pre + fee
"""

from __future__ import annotations

from dataclasses import dataclass

from ..chainlab import MAX_AMOUNT

PPM = 1_000_000


class AmountOverflow(ArithmeticError):
    """An amount left the 64-bit range during quote application."""


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


@dataclass(frozen=True, slots=True)
class RateQuote:
    asset_in: str
    asset_out: str
    rate_num: int
    rate_den: int
    base_fee: int = 0
    fee_ppm: int = 0

    def __post_init__(self) -> None:
        if self.rate_num < 1 or self.rate_den < 1:
            raise ValueError("rate numerator and denominator must be >= 1")
        if self.base_fee < 0:
            raise ValueError("base_fee must be >= 0")
        if not 0 <= self.fee_ppm < PPM:
            raise ValueError("fee_ppm must be in [0, 1_000_000)")
        if not self.asset_in or not self.asset_out:
            raise ValueError("asset ids must be non-empty")

    @classmethod
    def identity(cls, asset: str) -> "RateQuote":
        """Free 1:1 self-quote; what delivery to a non-LP costs."""
        return cls(asset_in=asset, asset_out=asset, rate_num=1, rate_den=1)


def backward_apply(quote: RateQuote, amount_out: int) -> tuple[int, int]:
    """Amount the hop must carry so that `amount_out` can be forwarded.

    Returns (amount_in, fee). Raises AmountOverflow past the 64-bit cap.
    """
    if amount_out < 1:
        raise ValueError("amount_out must be >= 1")
    if amount_out > MAX_AMOUNT:
        raise AmountOverflow(str(amount_out))
    pre = ceil_div(amount_out * quote.rate_den, quote.rate_num)
    fee = quote.base_fee + ceil_div(pre * quote.fee_ppm, PPM)
    amount_in = pre + fee
    if amount_in > MAX_AMOUNT:
        raise AmountOverflow(str(amount_in))
    return amount_in, fee
