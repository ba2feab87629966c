"""Source routing over the gossiped channel graph.

Costs are computed backward from the recipient: each hop is priced by the
quote of the node *receiving* the HTLC on that hop (converting the hop's
asset into the next hop's asset), and the final hop applies the
recipient's self-pair quote when it advertises one, an identity/zero-fee
quote otherwise.

A path is admissible when every forwarder quotes its conversion, the hash
functions of its chains intersect (and hold required_hash_fn, if given),
no amount leaves the 64-bit range or exceeds its edge's capacity, and it
has at most max_hops hops. find_route returns the admissible simple path
least in the total order (cost, hop count, receiving nodes from the first
hop on, chain ids read from the recipient back). The last component only
orders paths through the same nodes over parallel channels; it is the
order in which a depth-first walk back from the recipient over the sorted
edges_into lists would meet them.

A conversion rate can shrink an amount, so cost is not monotone in path
length and shortest-path relaxation is unsound. The search is best-first
instead: it grows partial paths backward from the recipient, takes them in
order of a lower bound on the (cost, hops) of any completion, and stops
once that bound passes the best complete path. The bound prices assets.
Given prices p > 0 with rate_num/rate_den <= p_in/p_out for every quote in
the graph, backward_apply never lowers amount * p: the exact conversion
keeps it and the ceilings and fees only raise it. A partial path whose
first hop carries `amount` of `asset` therefore completes at a cost of at
least amount * p(asset) / max(p). price_vector finds such prices exactly;
they exist unless a cycle of quotes multiplies an amount by more than 1.
Without them the bound is 0 and the same loop takes every admissible path.

The graph is the sender's public view, shared by every sender that holds
the same adverts; find_route never changes it. The sender's own channels
come in as `own_edges`, a read-only overlay applied by add_edge's rule: an
own edge replaces the graph's edge for its (sender, dst, chain), and a graph
edge from the sender with no own edge stays. A path that reaches the sender
is complete, so the overlay only ever supplies first hops: an expansion at
`head` looks up the sender's edges into it by key instead of scanning.

Each expansion prices one more hop once per asset: the quote and
backward_apply depend only on `head`, the asset and the path's amount, not
on which edge carries the hop. The sender's edges are taken first, since
each completes a route and may lower the best one. Every other edge in an
asset grows a partial path with that same amount and one more hop, so all
of them share one bound, (ceil(amount * p(asset)), length + 2). Once that
bound passes the best route, none of them could be pushed, and the whole
asset is skipped without pricing or growing a path. This is the same test
the push makes, taken once per asset rather than once per edge. The graph
also indexes the edges into each node by asset, so every asset's bound is
settled before any edge is scanned, and when no asset admits a hop the
edges into `head` are not scanned at all: a hub's hundreds of edges cost
nothing once the best route is found. An asset is priced only where a
scan would price it, when the sender's edges carry it or some edge of it
comes from a node the path may still take.
"""

from __future__ import annotations

import heapq
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from ..chainlab import HashFnId
from .gossip import LpAdvert
from .quotes import AmountOverflow, RateQuote, backward_apply, ceil_div


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


def _edge_order(edge: Edge) -> tuple[bytes, str, str]:
    return (edge.src, edge.chain_id, edge.asset)


def price_vector(quotes: Iterable[RateQuote]) -> Optional[dict[str, Fraction]]:
    """Exact prices p, the largest 1, for the assets the quotes name, with
    rate_num/rate_den <= p[asset_in]/p[asset_out] for every quote.

    None when there are none, which is when some cycle of quotes
    multiplies an amount by more than 1. Bellman-Ford over assets, in
    products rather than sums: each quote lets p[asset_out] fall to
    p[asset_in] / rate, and a relaxation still pending after one round per
    asset can only come from such a cycle.
    """
    rates: dict[tuple[str, str], Fraction] = {}
    for q in quotes:
        pair = (q.asset_in, q.asset_out)
        rates[pair] = max(rates.get(pair, 0), Fraction(q.rate_num, q.rate_den))
    prices = {asset: Fraction(1) for pair in rates for asset in pair}
    for _ in range(len(prices) + 1):
        settled = True
        for (asset_in, asset_out), rate in rates.items():
            if prices[asset_out] > prices[asset_in] / rate:
                prices[asset_out] = prices[asset_in] / rate
                settled = False
        if settled:
            top = max(prices.values(), default=Fraction(1))
            return {asset: p / top for asset, p in prices.items()}
    return None


class ChannelGraph:
    def __init__(
        self,
        chain_fns: Mapping[str, frozenset[HashFnId]],
        edges: Sequence[Edge] = (),
        quotes: Optional[Mapping[bytes, Mapping[tuple[str, str], RateQuote]]] = None,
    ):
        self.chain_fns = dict(chain_fns)
        self._edges: dict[tuple[bytes, bytes, str], Edge] = {}
        # dst -> the edges into it, in _edge_order
        self._into: dict[bytes, list[Edge]] = {}
        # dst -> asset -> the edges into dst that carry it, in no order
        self._assets_into: dict[bytes, dict[str, list[Edge]]] = {}
        self.quotes: dict[bytes, dict[tuple[str, str], RateQuote]] = {}
        if quotes:
            for node in quotes:
                self.quotes[node] = dict(quotes[node])
        for e in edges:
            self.add_edge(e)

    def add_edge(self, edge: Edge) -> None:
        """Insert or replace the edge for (src, dst, chain)."""
        key = (edge.src, edge.dst, edge.chain_id)
        into = self._into.setdefault(edge.dst, [])
        assets = self._assets_into.setdefault(edge.dst, {})
        if key in self._edges:
            old = self._edges[key]
            into.remove(old)
            assets[old.asset].remove(old)
        self._edges[key] = edge
        insort(into, edge, key=_edge_order)
        assets.setdefault(edge.asset, []).append(edge)

    def add_quote(self, node: bytes, quote: RateQuote) -> None:
        self.quotes.setdefault(node, {})[(quote.asset_in, quote.asset_out)] = quote

    def edges_into(self, node: bytes) -> list[Edge]:
        """The edges into `node`, sorted by (src, chain_id, asset). The list
        is the graph's own index: read it, do not change it."""
        return self._into.get(node, [])

    def assets_into(self, node: bytes) -> Mapping[str, list[Edge]]:
        """asset -> the edges into `node` that carry it, in no set order.
        An asset may map to no edge once its last edge was replaced. The
        index is the graph's own: read it, do not change it."""
        return self._assets_into.get(node, {})

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


class _Partial(NamedTuple):
    """A path grown backward from the recipient; `edge` is its first hop.

    The root, with no edge, is the empty path at the recipient."""

    head: bytes  # the node the path starts from
    edge: Optional[Edge]
    amount: int  # what the first hop carries
    fee: int
    quote: RateQuote
    fns: frozenset  # hash functions every chain of the path offers
    visited: frozenset
    length: int
    rest: Optional["_Partial"]  # the path after the first hop

    def hops(self) -> list["_Partial"]:
        """The path's hops, first to last, each as the path it starts."""
        out, path = [], self
        while path.edge is not None:
            out.append(path)
            path = path.rest
        return out


def find_route(
    graph: ChannelGraph,
    sender: bytes,
    recipient: bytes,
    amount_out: int,
    asset_out: str,
    own_edges: Iterable[Edge] = (),
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
    # dst -> chain -> the sender's own edge; a later one replaces an earlier
    own: dict[bytes, dict[str, Edge]] = {}
    for edge in own_edges:
        if edge.src != sender:
            raise ValueError("own edges must start at the sender")
        own.setdefault(edge.dst, {})[edge.chain_id] = edge

    self_quote = graph.node_quote(recipient, asset_out, asset_out) or RateQuote.identity(
        asset_out
    )
    prices = price_vector(q for table in graph.quotes.values() for q in table.values())
    # No quote constrains an unquoted asset, so it takes the top price, 1.
    # Without a price vector every price is 0, and so is the bound.
    unquoted = Fraction(0) if prices is None else Fraction(1)
    prices = prices or {}

    def priced(path: _Partial, asset: str) -> Optional[tuple[RateQuote, int, int]]:
        """The quote, amount and fee of one more hop in `asset` in front of
        `path`, or None when no quote or amount admits it."""
        if path.edge is None:
            quote = self_quote if asset == asset_out else None
        else:
            quote = graph.node_quote(path.head, asset, path.edge.asset)
        if quote is None:
            return None
        try:
            amount, fee = backward_apply(quote, path.amount)
        except AmountOverflow:
            return None
        return quote, amount, fee

    def grow(path: _Partial, edge: Edge, step: tuple) -> Optional[_Partial]:
        quote, amount, fee = step
        fns = path.fns & graph.chain_fns.get(edge.chain_id, frozenset())
        if not fns or (required_hash_fn is not None and required_hash_fn not in fns):
            return None
        if amount > edge.capacity:
            return None
        return _Partial(edge.src, edge, amount, fee, quote, fns,
                        path.visited | {path.head, edge.src}, path.length + 1, path)

    best: Optional[tuple] = None
    best_path: Optional[_Partial] = None
    root = _Partial(recipient, None, amount_out, 0, self_quote, frozenset(HashFnId),
                    frozenset(), 0, None)
    heap: list = [((0, 0), 0, root)]
    order = count(1)
    while heap:
        bound, _, path = heapq.heappop(heap)
        if best is not None and bound > best[:2]:
            break
        head = path.head
        steps: dict[str, Optional[tuple]] = {}  # asset -> priced(path, asset)

        # The sender's edges into head: the overlay's, then the graph's on
        # the other chains (an edge on a chain that chain_fns does not name
        # is never admissible). Each completes a route.
        mine = own.get(head, {})
        firsts = list(mine.values())
        for chain_id in graph.chain_fns:
            edge = graph._edges.get((sender, head, chain_id))
            if edge is not None and chain_id not in mine:
                firsts.append(edge)
        for edge in firsts:
            if edge.asset not in steps:
                steps[edge.asset] = priced(path, edge.asset)
            step = steps[edge.asset]
            grown = grow(path, edge, step) if step else None
            if grown is None:
                continue
            hops = grown.hops()
            key = (grown.amount, grown.length, tuple(h.edge.dst for h in hops),
                   tuple(h.edge.chain_id for h in reversed(hops)))
            if best is None or key < best:
                best, best_path = key, grown

        if path.length + 1 >= max_hops:
            continue
        # asset -> (step, bound) of one more hop, for every asset that an
        # edge the path can take carries and whose bound does not pass the
        # best route: best no longer moves below. An asset has at most one
        # edge per chain from each node the path cannot take, so the search
        # for one it can take stops within that many.
        visited = path.visited
        ahead: dict[str, tuple] = {}
        for asset, carriers in graph.assets_into(head).items():
            for edge in carriers:
                if edge.src != sender and edge.src not in visited:
                    break
            else:
                continue
            step = steps[asset] if asset in steps else priced(path, asset)
            if step is not None:
                price = prices.get(asset, unquoted)
                bound = (ceil_div(step[1] * price.numerator, price.denominator),
                         path.length + 2)
                if best is None or bound <= best[:2]:
                    ahead[asset] = (step, bound)
        if not ahead:
            continue
        for edge in graph.edges_into(head):
            if edge.asset in ahead and edge.src != sender and edge.src not in visited:
                step, bound = ahead[edge.asset]
                grown = grow(path, edge, step)
                if grown is not None:
                    heapq.heappush(heap, (bound, next(order), grown))

    if best_path is None:
        raise NoRouteFound(
            f"no admissible path delivering {amount_out} {asset_out}"
        )
    chosen = best_path.hops()
    hops = tuple(
        HopSpec(
            node=h.edge.dst,
            chain_id=h.edge.chain_id,
            asset=h.edge.asset,
            amount=h.amount,
            fee=h.fee,
            expiry_delta=FINAL_DELTA + (len(chosen) - 1 - i) * HOP_DELTA,
            quote=h.quote,
        )
        for i, h in enumerate(chosen)
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
