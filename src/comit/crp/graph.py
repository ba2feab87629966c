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
keeps it and the ceilings and fees only raise it. A forwarder paid a_in of
asset_in to pay a_out of asset_out has a_in * p_in >= a_out * p_out +
fee * p_in, and fee >= base_fee + [fee_ppm > 0] because pre >= 1.
price_vector finds such prices exactly, the largest 1; they exist unless
a cycle of quotes multiplies an amount by more than 1.

The bound also counts what the sender must still pay to reach a path's
head, as A* does (Hart, Nilsson & Raphael 1968). Forwarding through a
quoting node n adds at least delta(n) to amount * p, the least (base_fee +
[fee_ppm > 0]) * p(asset_in) over its quotes. From the sender's first hops
through quoting nodes, one walk finds D(n), the least sum of delta over
the forwarders from the first peer to n inclusive, and another H(n), the
fewest hops; the cheapest path to n may not be the shortest, so H has its
own walk. Every completion of a path of `length` hops whose first hop
carries `amount` of `asset` out of `head` pays through forwarders ending
at head, and max(p) = 1, so it costs at least amount * p(asset) + D(head)
and has at least length + H(head) hops. That is the bound, rounded up. A
head the sender does not reach is never pushed, nor one with length +
H(head) > max_hops. Without prices, p and D are 0 and so is the cost
bound, but reachability and H still prune. A search thus costs what the
sender can reach, not every simple path: on a ring of 24 LPs with +1 and
+2 chords it grows about 30 partial paths a route where the amount alone
grew about 1,600. The graph keeps p, delta and the links among quoting
nodes (forwarders()), integers over the prices' common denominator,
computed once; each search walks from its own sender.

A graph is a value, built once from its edges and quotes; a later edge
for the same (src, dst, chain) replaces an earlier one. Every sender that
holds the same adverts shares it. The sender's own channels come in as
`own_edges`, an overlay by that rule: an own edge replaces the graph's
edge for its (sender, dst, chain), and a graph edge from the sender with no
own edge stays. A path that reaches the sender is complete, so each search
applies the overlay once, to a table of the sender's edges into each
quoting node and into the recipient: the walks for D and H start from it,
and an expansion at `head` completes routes over its edges into head.

Each expansion prices one more hop once per asset: the quote and
backward_apply depend only on `head`, the asset and the path's amount, not
on which edge carries the hop. The sender's edges are taken first, since
each completes a route and may lower the best one. Every other edge in an
asset grows a partial path with that same amount and one more hop, so
none of them is bounded below (ceil(amount * p(asset)), length + 2), the
bound with D at 0 and H at 1. Once that passes the best route, none of
them could be pushed, and the whole asset is skipped without pricing or
growing a path: the push's test, taken once per asset rather than once per
edge. The graph also indexes the edges into each node by asset, so every
asset's bound is settled before any edge is scanned, and when no asset
admits a hop the edges into `head` are not scanned at all: a hub's
hundreds of edges cost nothing once the best route is found. An asset is
priced only where a scan would price it, when the sender's edges carry it
or some edge of it comes from a node the path may still take.
"""

from __future__ import annotations

import heapq
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import lcm
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from ..chainlab import HashFnId
from .gossip import LpAdvert
from .quotes import AmountOverflow, RateQuote, backward_apply, ceil_div


class NoRouteFound(Exception):
    pass


class RouteTooLong(Exception):
    pass


MAX_ROUTE_HOPS = 20
_ALL_FNS = frozenset(HashFnId)


@dataclass(frozen=True, slots=True)
class Edge:
    src: bytes
    dst: bytes
    chain_id: str
    asset: str
    capacity: int


@dataclass(frozen=True, slots=True)
class HopSpec:
    """One hop of a found route.

    node is the party receiving the HTLC; amount is what the HTLC carries;
    fee is the margin the receiving node keeps under its quote; quote is
    the quote the sender priced this hop against. A hop carries no
    expiry: the swap layer (`comit.swap`) sets every HTLC's timelock.
    """

    node: bytes
    chain_id: str
    asset: str
    amount: int
    fee: int
    quote: RateQuote


@dataclass(frozen=True, slots=True)
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


class _Forwarders(NamedTuple):
    """A graph's prices and forwarders, as integers over one denominator."""

    scale: int  # the least common denominator of the prices
    price: dict[str, int]  # asset -> its price * scale
    unquoted: int  # the price * scale of an asset no quote names
    fee: dict[bytes, int]  # quoting node -> delta: the least fee * price it adds
    links: dict[bytes, list[bytes]]  # quoting node -> the quoting nodes it has edges to


class ChannelGraph:
    def __init__(
        self,
        chain_fns: Mapping[str, frozenset[HashFnId]],
        edges: Iterable[Edge] = (),
        quotes: Iterable[tuple[bytes, RateQuote]] = (),
    ):
        self.chain_fns = dict(chain_fns)
        # (src, dst, chain) -> its edge; a later edge replaces an earlier one
        self._edges = {(e.src, e.dst, e.chain_id): e for e in edges}
        # dst -> the edges into it, in _edge_order
        self._into: dict[bytes, list[Edge]] = {}
        # dst -> asset -> the edges into dst that carry it, in no order
        self._assets_into: dict[bytes, dict[str, list[Edge]]] = {}
        for edge in self._edges.values():
            insort(self._into.setdefault(edge.dst, []), edge, key=_edge_order)
            self._assets_into.setdefault(edge.dst, {}).setdefault(edge.asset, []).append(edge)
        # node -> (asset_in, asset_out) -> its quote; a later one replaces an earlier
        self.quotes: dict[bytes, dict[tuple[str, str], RateQuote]] = {}
        for node, quote in quotes:
            self.quotes.setdefault(node, {})[(quote.asset_in, quote.asset_out)] = quote
        self._forwarders: Optional[_Forwarders] = None  # set by forwarders()

    def forwarders(self) -> "_Forwarders":
        """The prices and the forwarders' fees and links find_route bounds
        paths with, computed on the first call."""
        if self._forwarders is None:
            prices = price_vector(q for t in self.quotes.values() for q in t.values())
            # No quote constrains an unquoted asset, so it takes the top
            # price, 1. Without a price vector every price and fee is 0.
            if prices is None:
                scale, price, unquoted = 1, {}, 0
            else:
                scale = lcm(*(p.denominator for p in prices.values()))
                price = {a: p.numerator * (scale // p.denominator) for a, p in prices.items()}
                unquoted = scale
            fee = {
                node: min((q.base_fee + (q.fee_ppm > 0)) * price.get(q.asset_in, 0)
                          for q in table.values())
                for node, table in self.quotes.items()
            }
            links: dict[bytes, list[bytes]] = {}
            for node in fee:
                for edge in self._into.get(node, ()):
                    if edge.src in fee:
                        out = links.setdefault(edge.src, [])
                        if not out or out[-1] != node:  # edges_into lists are sorted by src
                            out.append(node)
            self._forwarders = _Forwarders(scale, price, unquoted, fee, links)
        return self._forwarders

    def edges_into(self, node: bytes) -> list[Edge]:
        """The edges into `node`, sorted by (src, chain_id, asset). The list
        is the graph's own index: read it, do not change it."""
        return self._into.get(node, [])

    def assets_into(self, node: bytes) -> Mapping[str, list[Edge]]:
        """asset -> the edges into `node` that carry it, in no set order.
        The index is the graph's own: read it, do not change it."""
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
        edges: list[Edge] = []
        quotes: list[tuple[bytes, RateQuote]] = []
        filled: set[tuple[bytes, bytes, str]] = set()  # the reverse edges' keys
        advertisers = {a.node_pubkey for a in adverts}
        for advert in sorted(adverts, key=lambda a: a.node_pubkey):
            for ep in advert.endpoints:
                asset = chain_assets.get(ep.chain_id)
                if asset is None:
                    continue
                edges.append(Edge(advert.node_pubkey, ep.peer, ep.chain_id, asset, ep.capacity))
                # reverse direction: only fill in when the peer won't
                # advertise its own view of this channel, and only once
                key = (ep.peer, advert.node_pubkey, ep.chain_id)
                if ep.peer not in advertisers and key not in filled:
                    filled.add(key)
                    edges.append(Edge(*key, asset, ep.capacity))
            quotes += [(advert.node_pubkey, q) for q in advert.quotes]
        return cls(chain_fns, edges, quotes)


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


def _first_hops(
    graph: ChannelGraph, sender: bytes, recipient: bytes, own_edges: Iterable[Edge]
) -> dict[bytes, list[Edge]]:
    """node -> the sender's edges into it, for every quoting node and the
    recipient it has one into: its own edges, then the graph's on the other
    chains (an edge on a chain that chain_fns does not name is never
    admissible)."""
    # dst -> chain -> the sender's own edge; a later one replaces an earlier
    own: dict[bytes, dict[str, Edge]] = {}
    for edge in own_edges:
        if edge.src != sender:
            raise ValueError("own edges must start at the sender")
        own.setdefault(edge.dst, {})[edge.chain_id] = edge
    firsts = {}
    for node in (*graph.quotes, recipient):
        mine = own.get(node, {})
        edges = list(mine.values())
        for chain_id in graph.chain_fns:
            edge = graph._edges.get((sender, node, chain_id))
            if edge is not None and chain_id not in mine:
                edges.append(edge)
        if edges:
            firsts[node] = edges
    return firsts


def _potentials(
    fw: _Forwarders, sender: bytes, firsts: Mapping[bytes, list[Edge]]
) -> tuple[dict[bytes, int], dict[bytes, int]]:
    """H and D of every quoting node the sender reaches from `firsts`
    through quoting nodes: the fewest hops to it, and the least sum of delta
    * scale over the forwarders from the first peer to it inclusive. Two
    walks, as the path with the least D may take more than the fewest hops."""
    peers = firsts.keys() & fw.fee.keys()
    hops_to = {sender: 0}
    level, hops = peers, 1
    while level:
        hops_to.update(dict.fromkeys(level, hops))
        level = {v for u in level for v in fw.links.get(u, ()) if v not in hops_to}
        hops += 1
    if not fw.price:  # every fee is 0
        return hops_to, dict.fromkeys(hops_to, 0)
    fee_to = {sender: 0}
    heap = [(fw.fee[v], v) for v in peers]
    heapq.heapify(heap)
    while heap:
        d, u = heapq.heappop(heap)
        if u in fee_to:
            continue
        fee_to[u] = d
        for v in fw.links.get(u, ()):
            if v not in fee_to:
                heapq.heappush(heap, (d + fw.fee[v], v))
    return hops_to, fee_to


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
    fw = graph.forwarders()
    firsts = _first_hops(graph, sender, recipient, own_edges)
    hops_to, fee_to = _potentials(fw, sender, firsts)

    self_quote = graph.node_quote(recipient, asset_out, asset_out) or RateQuote.identity(
        asset_out
    )

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
    root = _Partial(recipient, None, amount_out, 0, self_quote, _ALL_FNS, frozenset(), 0, None)
    heap: list = [((0, 0), 0, root)]
    order = count(1)
    while heap:
        bound, _, path = heapq.heappop(heap)
        if best is not None and bound > best[:2]:
            break
        head = path.head
        steps: dict[str, Optional[tuple]] = {}  # asset -> priced(path, asset)

        # The sender's edges into head, when it is the recipient or a first
        # peer. Each completes a route.
        for edge in firsts.get(head, ()):
            if edge.asset not in steps:
                steps[edge.asset] = priced(path, edge.asset)
            step = steps[edge.asset]
            grown = grow(path, edge, step) if step else None
            if grown is None or (best is not None and (grown.amount, grown.length) > best[:2]):
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
                worth = step[1] * fw.price.get(asset, fw.unquoted)
                if best is None or (ceil_div(worth, fw.scale), path.length + 2) <= best[:2]:
                    ahead[asset] = (step, worth)
        if not ahead:
            continue
        for edge in graph.edges_into(head):
            src = edge.src
            if (edge.asset in ahead and src != sender and src not in visited
                    and src in hops_to):
                length = path.length + 1 + hops_to[src]
                if length > max_hops:
                    continue
                step, worth = ahead[edge.asset]
                bound = (ceil_div(worth + fee_to[src], fw.scale), length)
                if best is not None and bound > best[:2]:
                    continue
                grown = grow(path, edge, step)
                if grown is not None:
                    heapq.heappush(heap, (bound, next(order), grown))

    if best_path is None:
        raise NoRouteFound(
            f"no admissible path delivering {amount_out} {asset_out}"
        )
    hops = tuple(
        HopSpec(
            node=h.edge.dst,
            chain_id=h.edge.chain_id,
            asset=h.edge.asset,
            amount=h.amount,
            fee=h.fee,
            quote=h.quote,
        )
        for h in best_path.hops()
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
