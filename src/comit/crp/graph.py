"""Source routing over the gossiped channel graph.

Costs are computed backward from the recipient: each hop is priced by the
quote of the node *receiving* the HTLC on that hop (converting the hop's
asset into the next hop's asset), and the final hop applies the
recipient's self-pair quote when it advertises one, an identity/zero-fee
quote otherwise.

Because conversion rates can shrink an amount as a path grows, path cost
is not monotone in path length and shortest-path relaxations are unsound
here. find_route therefore enumerates simple paths depth-first from the
recipient with exact pruning (hash-function intersection emptiness, edge
capacity, the 64-bit amount cap, the hop cap) and returns the admissible
path minimizing (cost, hop count, lexicographic node ids).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from ..chainlab import HashFnId
from .gossip import LpAdvert
from .quotes import AmountOverflow, RateQuote, backward_apply


class NoRouteFound(Exception):
    pass


class RouteTooLong(Exception):
    pass


MAX_ROUTE_HOPS = 20

# Expiry ladder, in blocks: the payee gets FINAL_DELTA blocks of safety
# margin and every forwarder one HOP_DELTA step between its incoming and
# outgoing HTLC.
FINAL_DELTA = 6
HOP_DELTA = 6


@dataclass(frozen=True)
class Edge:
    src: bytes
    dst: bytes
    chain_id: str
    asset: str
    capacity: int


@dataclass(frozen=True)
class HopSpec:
    """One hop of a found route.

    node is the party receiving the HTLC; amount is what the HTLC carries;
    fee is the margin the receiving node keeps under its quote; quote is
    the quote the sender priced this hop against.
    """

    node: bytes
    chain_id: str
    asset: str
    amount: int
    fee: int
    expiry_delta: int
    quote: RateQuote


@dataclass(frozen=True)
class Route:
    sender: bytes
    hops: tuple[HopSpec, ...]

    def __post_init__(self) -> None:
        if not self.hops:
            raise ValueError("route needs at least one hop")

    @property
    def recipient(self) -> bytes:
        return self.hops[-1].node

    @property
    def cost(self) -> int:
        return self.hops[0].amount

    def nodes(self) -> tuple[bytes, ...]:
        return tuple(h.node for h in self.hops)


class ChannelGraph:
    def __init__(
        self,
        chain_fns: Mapping[str, frozenset[HashFnId]],
        edges: Sequence[Edge] = (),
        quotes: Optional[Mapping[bytes, Mapping[tuple[str, str], RateQuote]]] = None,
    ):
        self.chain_fns = dict(chain_fns)
        self._edges: dict[tuple[bytes, bytes, str], Edge] = {}
        self.quotes: dict[bytes, dict[tuple[str, str], RateQuote]] = {}
        if quotes:
            for node in quotes:
                self.quotes[node] = dict(quotes[node])
        for e in edges:
            self.add_edge(e)

    def add_edge(self, edge: Edge) -> None:
        """Insert or replace the edge for (src, dst, chain)."""
        self._edges[(edge.src, edge.dst, edge.chain_id)] = edge

    def add_quote(self, node: bytes, quote: RateQuote) -> None:
        self.quotes.setdefault(node, {})[(quote.asset_in, quote.asset_out)] = quote

    def edges_into(self, node: bytes) -> list[Edge]:
        found = [e for e in self._edges.values() if e.dst == node]
        found.sort(key=lambda e: (e.src, e.chain_id, e.asset))
        return found

    def node_quote(self, node: bytes, asset_in: str, asset_out: str) -> Optional[RateQuote]:
        return self.quotes.get(node, {}).get((asset_in, asset_out))

    @classmethod
    def from_adverts(
        cls,
        adverts: Sequence[LpAdvert],
        chain_fns: Mapping[str, frozenset[HashFnId]],
        chain_assets: Mapping[str, str],
    ) -> "ChannelGraph":
        """Build the public view. Each advertised endpoint contributes both
        directions; when both ends advertise the same channel, each
        direction keeps the capacity hint from its own tail node."""
        graph = cls(chain_fns)
        advertisers = {a.node_pubkey for a in adverts}
        for advert in sorted(adverts, key=lambda a: a.node_pubkey):
            for ep in advert.endpoints:
                asset = chain_assets.get(ep.chain_id)
                if asset is None:
                    continue
                out_edge = Edge(advert.node_pubkey, ep.peer, ep.chain_id, asset, ep.capacity)
                graph.add_edge(out_edge)
                # reverse direction: only fill in when the peer won't
                # advertise its own view of this channel
                key = (ep.peer, advert.node_pubkey, ep.chain_id)
                if ep.peer not in advertisers and key not in graph._edges:
                    graph.add_edge(Edge(ep.peer, advert.node_pubkey, ep.chain_id, asset, ep.capacity))
            for q in advert.quotes:
                graph.add_quote(advert.node_pubkey, q)
        return graph


def find_route(
    graph: ChannelGraph,
    sender: bytes,
    recipient: bytes,
    amount_out: int,
    asset_out: str,
    *,
    required_hash_fn: Optional[HashFnId] = None,
    max_hops: int = MAX_ROUTE_HOPS,
) -> Route:
    if amount_out < 1:
        raise ValueError("amount_out must be >= 1")
    if sender == recipient:
        raise ValueError("sender and recipient must differ")
    if not 1 <= max_hops <= MAX_ROUTE_HOPS:
        raise ValueError(f"max_hops must be in 1..{MAX_ROUTE_HOPS}")

    self_quote = graph.node_quote(recipient, asset_out, asset_out) or RateQuote.identity(
        asset_out
    )
    best: Optional[tuple] = None

    def consider(path, amounts, fees, quotes_used):
        nonlocal best
        key = (amounts[0], len(path), tuple(e.dst for e in path))
        if best is None or key < best[0]:
            best = (key, tuple(path), tuple(amounts), tuple(fees), tuple(quotes_used))

    def extend(head, path, amounts, fees, quotes_used, fn_set, visited):
        if head == sender:
            consider(path, amounts, fees, quotes_used)
            return
        if len(path) >= max_hops:
            return
        first_asset = path[0].asset
        for edge in graph.edges_into(head):
            if edge.src in visited:
                continue
            quote = graph.node_quote(head, edge.asset, first_asset)
            if quote is None:
                continue
            fns = fn_set & graph.chain_fns.get(edge.chain_id, frozenset())
            if not fns or (required_hash_fn is not None and required_hash_fn not in fns):
                continue
            try:
                amount, fee = backward_apply(quote, amounts[0])
            except AmountOverflow:
                continue
            if amount > edge.capacity:
                continue
            extend(
                edge.src,
                [edge] + path,
                [amount] + amounts,
                [fee] + fees,
                [quote] + quotes_used,
                fns,
                visited | {edge.src},
            )

    for edge in graph.edges_into(recipient):
        if edge.asset != asset_out:
            continue
        fns = graph.chain_fns.get(edge.chain_id, frozenset())
        if not fns or (required_hash_fn is not None and required_hash_fn not in fns):
            continue
        try:
            amount, fee = backward_apply(self_quote, amount_out)
        except AmountOverflow:
            continue
        if amount > edge.capacity:
            continue
        extend(
            edge.src,
            [edge],
            [amount],
            [fee],
            [self_quote],
            fns,
            {recipient, edge.src},
        )

    if best is None:
        raise NoRouteFound(
            f"no admissible path delivering {amount_out} {asset_out}"
        )
    _, path, amounts, fees, quotes_used = best
    count = len(path)
    hops = tuple(
        HopSpec(
            node=edge.dst,
            chain_id=edge.chain_id,
            asset=edge.asset,
            amount=amounts[i],
            fee=fees[i],
            expiry_delta=FINAL_DELTA + (count - 1 - i) * HOP_DELTA,
            quote=quotes_used[i],
        )
        for i, edge in enumerate(path)
    )
    return Route(sender=sender, hops=hops)


def compute_hop_amounts(route: Route, amount_out: int) -> list[tuple[int, int]]:
    """Per-hop (amount, fee), folded backward from the delivered amount.

    Raises AmountOverflow if any amount leaves the 64-bit range.
    """
    if amount_out < 1:
        raise ValueError("amount_out must be >= 1")
    result: list[tuple[int, int]] = []
    need = amount_out
    for hop in reversed(route.hops):
        amount, fee = backward_apply(hop.quote, need)
        result.append((amount, fee))
        need = amount
    result.reverse()
    return result
