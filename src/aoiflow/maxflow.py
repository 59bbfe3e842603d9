"""Exact static flow utilities on the physical network.

Used for per-slot sustainable-rate computations (the steady-rate capacity of
a sender/receiver pair), feasibility screening, the successive min-cost
flows behind the quickest flow time of a batch and its temporally repeated
schedules, and decomposing conserving flows into simple paths.
Everything is exact: on integer bandwidths every flow, rate and cost is an
int (Ford and Fulkerson's integrality), otherwise a Fraction, and the
min-cost prefixes hand on their rates, costs and path rates through
`model.exact`.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from functools import lru_cache
import heapq
from typing import NamedTuple

from .model import Link, Network, Rational, exact


def max_flow(
    net: Network,
    source: str,
    sink: str,
    capacity: Mapping[str, Rational] | None = None,
    start: Mapping[str, Rational] | None = None,
) -> tuple[dict[str, Rational], Rational]:
    """Edmonds-Karp with exact capacities; returns per-link flow and value.

    ``capacity`` maps link ids to capacities, and a link missing from it
    carries nothing; without it every link carries its bandwidth.  The
    search augments from ``start`` when one is given: a feasible flow within
    those capacities, by link id, conserving at every node but the source
    and the sink, such as a max flow under capacities no larger.  A max
    flow's value is unique, so the start changes which max flow is
    returned, never its value.  ``start`` itself is not changed, and a
    start outside the capacities raises ValueError.
    """
    if source == sink:
        return {}, 0
    if capacity is None:
        capacity = {link.id: link.bandwidth for link in net.links}
    flow: dict[str, Rational] = {link.id: 0 for link in net.links}
    if start is not None:
        for link_id, amount in start.items():
            if not 0 <= amount <= capacity.get(link_id, 0):
                raise ValueError(f"start flow {amount} on {link_id!r} outside its capacity")
        flow.update(start)
    outgoing, incoming = net.out_links, net.in_links

    value = sum(flow[link.id] for link in outgoing[source]) - sum(
        flow[link.id] for link in incoming[source]
    )
    while True:
        # BFS in the residual graph
        parent: dict[str, tuple[Link, bool]] = {}
        seen = {source}
        queue = deque([source])
        while queue and sink not in seen:
            v = queue.popleft()
            for link in outgoing[v]:
                if link.head not in seen and flow[link.id] < capacity.get(link.id, 0):
                    seen.add(link.head)
                    parent[link.head] = (link, True)
                    queue.append(link.head)
            for link in incoming[v]:
                if link.tail not in seen and flow[link.id] > 0:
                    seen.add(link.tail)
                    parent[link.tail] = (link, False)
                    queue.append(link.tail)
        if sink not in seen:
            return flow, value
        # trace back and augment
        bottleneck = None
        v = sink
        while v != source:
            link, forward = parent[v]
            room = capacity[link.id] - flow[link.id] if forward else flow[link.id]
            bottleneck = room if bottleneck is None else min(bottleneck, room)
            v = link.tail if forward else link.head
        v = sink
        while v != source:
            link, forward = parent[v]
            if forward:
                flow[link.id] += bottleneck
                v = link.tail
            else:
                flow[link.id] -= bottleneck
                v = link.head
        value += bottleneck


class Prefix(NamedTuple):
    """The min-cost flow after one more augmentation, split into paths."""

    length: int  # delay of the augmenting path that completed it
    rate: Rational  # flow value
    cost: Rational  # total delay, rate times delay summed over links
    paths: tuple[tuple[tuple[str, ...], Rational], ...]  # (links, rate), simple
    delays: tuple[int, ...]  # each path's delay


@lru_cache(maxsize=256)
def min_cost_prefixes(net: Network, source: str, sink: str) -> tuple[Prefix, ...]:
    """Every successive-shortest-path flow from ``source`` to ``sink``.

    A min-cost flow with delays as costs is augmented along one shortest
    residual path at a time (queue-based Bellman-Ford, since backward arcs
    cost minus the delay; augmenting along shortest paths keeps the residual
    graph free of negative cycles) until the sink is cut off.  The k-th
    prefix is the flow after k augmentations, a min-cost flow of its value,
    peeled by `decompose_paths`.  The last one is a maximum flow; none when
    the sink is unreachable.
    """
    flow: dict[str, Rational] = {link.id: 0 for link in net.links}
    outgoing, incoming = net.out_links, net.in_links
    index = net.link_index

    prefixes: list[Prefix] = []
    rate = cost = 0
    while True:
        dist = {source: 0}
        parent: dict[str, tuple[Link, bool]] = {}
        queue = deque([source])
        queued = {source}
        while queue:
            v = queue.popleft()
            queued.discard(v)
            arcs = [(link, True) for link in outgoing[v] if flow[link.id] < link.bandwidth]
            arcs += [(link, False) for link in incoming[v] if flow[link.id] > 0]
            for link, forward in arcs:
                w = link.head if forward else link.tail
                nd = dist[v] + (link.delay if forward else -link.delay)
                if w not in dist or nd < dist[w]:
                    dist[w] = nd
                    parent[w] = (link, forward)
                    if w not in queued:
                        queued.add(w)
                        queue.append(w)
        length = dist.get(sink)
        if length is None:
            return tuple(prefixes)
        path = []
        v = sink
        while v != source:
            link, forward = parent[v]
            path.append((link, forward))
            v = link.tail if forward else link.head
        delta = exact(
            min(
                link.bandwidth - flow[link.id] if forward else flow[link.id]
                for link, forward in path
            )
        )
        for link, forward in path:
            flow[link.id] += delta if forward else -delta
        rate = exact(rate + delta)
        cost = exact(cost + delta * length)
        paths = tuple(decompose_paths(net, flow, source, sink))
        delays = tuple(sum(index[l].delay for l in links) for links, _ in paths)
        prefixes.append(Prefix(length, rate, cost, paths, delays))


def quickest_bound(net: Network, source: str, sink: str, amount: Rational) -> int | None:
    """Least bound M by which ``amount`` can travel from (source, 0) to (sink, M).

    Each link copy may carry the link's bandwidth, so this is the quickest
    flow time of the batch.  By Ford and Fulkerson, the min-cost prefix of
    rate R and cost C carries R*(M + 1) - C by bound M, and augmenting path
    lengths never decrease, so once the next prefix's last path is no
    shorter than the bound met so far no later prefix can lower it.  None
    when the sink is unreachable.  The ceiling is an exact floor division,
    so no float ever rounds it.
    """
    bound: int | None = None
    for prefix in min_cost_prefixes(net, source, sink):
        if bound is not None and prefix.length >= bound:
            break
        bound = max(prefix.length, -(-(amount + prefix.cost) // prefix.rate) - 1)
    return bound


def decompose_paths(
    net: Network, flow: dict[str, Rational], source: str, sink: str
) -> list[tuple[tuple[str, ...], Rational]]:
    """Split an acyclic conserving source->sink flow into paths with rates.

    Walks forward along positive links and peels the walk's bottleneck; the
    paths are simple and their rates sum to the flow value.  The caller,
    `min_cost_prefixes`, passes min-cost flows on positive delays, which have
    no positive-flow cycle; a walk longer than |V| - 1 links means a cyclic
    input and raises instead of looping.
    """
    residual = {k: v for k, v in flow.items() if v > 0}
    outgoing = net.out_links
    paths: list[tuple[tuple[str, ...], Rational]] = []

    def next_link(v: str) -> Link | None:
        for link in outgoing[v]:
            if residual.get(link.id, 0) > 0:
                return link
        return None

    while True:
        walk: list[Link] = []
        v = source
        while v != sink:
            link = next_link(v)
            if link is None:
                break
            walk.append(link)
            v = link.head
            if len(walk) >= len(net.nodes):
                raise AssertionError("flow to decompose has a cycle")
        if v != sink:
            break
        amount = exact(min(residual[l.id] for l in walk))
        for l in walk:
            residual[l.id] -= amount
            if residual[l.id] == 0:
                del residual[l.id]
        paths.append((tuple(l.id for l in walk), amount))
    return paths


def shortest_delay(net: Network, source: str, reverse: bool = False) -> dict[str, int]:
    """Dijkstra over link delays from ``source``; unreachable nodes are absent.

    With ``reverse`` the links are followed backwards, giving each node's
    shortest delay to ``source``.
    """
    dist = {source: 0}
    heap = [(0, source)]
    adjacent = net.in_links if reverse else net.out_links
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist.get(v, d):
            continue
        for link in adjacent[v]:
            w = link.tail if reverse else link.head
            nd = d + link.delay
            if nd < dist.get(w, nd + 1):
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return dist
