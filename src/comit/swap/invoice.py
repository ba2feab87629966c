"""Payment requests."""

from __future__ import annotations

from dataclasses import dataclass

from ..chainlab import DIGEST_SIZE, HashFnId, hash_digest


@dataclass(frozen=True, slots=True)
class Invoice:
    recipient: bytes  # routing pubkey of the payee
    amount: int
    asset: str
    hash_fn: HashFnId
    payment_hash: bytes

    def __post_init__(self) -> None:
        if len(self.recipient) != 32:
            raise ValueError("recipient must be a 32-byte routing pubkey")
        if self.amount < 1:
            raise ValueError("invoice amount must be >= 1")
        if len(self.payment_hash) != DIGEST_SIZE:
            raise ValueError("payment_hash must be 32 bytes")
        if not self.asset:
            raise ValueError("asset must be non-empty")


def make_invoice(
    rng, recipient: bytes, amount: int, asset: str, hash_fn: HashFnId
) -> tuple[Invoice, bytes]:
    """Returns (invoice, secret). Only the payee should hold the secret."""
    secret = rng.randbytes(32)
    invoice = Invoice(
        recipient=recipient,
        amount=amount,
        asset=asset,
        hash_fn=hash_fn,
        payment_hash=hash_digest(hash_fn, secret),
    )
    return invoice, secret
