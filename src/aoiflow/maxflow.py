"""Exact static flow utilities on the physical network.

Used for per-slot sustainable-rate computations (the steady-rate capacity of
a sender/receiver pair), feasibility screening, the successive min-cost
flows behind the quickest flow time of a batch and the period scan's
temporally repeated schedules (`mmd.PeriodScan.best_prefix`), and the simple
paths those min-cost flows split into.
Everything is exact: on integer bandwidths every flow, rate and cost is an
int (Ford and Fulkerson's integrality), otherwise a Fraction, and the
min-cost prefixes hand on their rates, costs and path rates through
`model.exact`.

Every kernel runs on the network's integer view (`Network.view`), nodes and
links numbered by position, with a flow as a list by link.  The public
functions read and return link ids and node names; the period scan's cut
(`mmd.PeriodScan.cut`) keeps its flow as such a list and augments it with
`_augment` directly.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from functools import lru_cache
import heapq
from typing import NamedTuple

from .model import Network, Rational, exact


def max_flow(net: Network, source: str, sink: str) -> tuple[dict[str, Rational], Rational]:
    """Edmonds-Karp with exact capacities, each link carrying its bandwidth;
    returns per-link flow and value."""
    if source == sink:
        return {}, 0
    flow = [0] * len(net.links)
    value = _augment(net, source, sink, net.view.bandwidth, flow)
    return {link.id: amount for link, amount in zip(net.links, flow)}, value


def _augment(
    net: Network, source: str, sink: str, capacity: Sequence[Rational], flow: list[Rational]
) -> Rational:
    """Augment ``flow``, by link, in place to a max flow within ``capacity``
    and return its value.  The start must lie within the capacities and
    conserve at every node but the source and the sink; ValueError names
    the first link or node where it does not, which guards the flow
    `mmd.PeriodScan.cut` carries from bound to bound.  Each breadth-first
    search scans a node's outgoing links, then its incoming ones."""
    view = net.view
    tail, head, out, into = view.tail, view.head, view.out, view.into
    s, t = view.pos[source], view.pos[sink]
    excess: list[Rational] = [0] * len(out)
    for l, (amount, room) in enumerate(zip(flow, capacity)):
        if not 0 <= amount <= room:
            raise ValueError(f"start flow {amount} on {net.links[l].id!r} outside its capacity")
        if amount:
            excess[tail[l]] += amount
            excess[head[l]] -= amount
    for v, surplus in enumerate(excess):
        if surplus and v != s and v != t:
            raise ValueError(f"start flow does not conserve at {net.nodes[v]!r}")
    value = excess[s]
    while True:
        # the arc each node was reached by: link l forward, ~l backward
        via: list[int | None] = [None] * len(out)
        via[s] = 0  # seen, never traced
        queue = deque([s])
        while queue and via[t] is None:
            v = queue.popleft()
            for l in out[v]:
                if via[head[l]] is None and flow[l] < capacity[l]:
                    via[head[l]] = l
                    queue.append(head[l])
            for l in into[v]:
                if via[tail[l]] is None and flow[l] > 0:
                    via[tail[l]] = ~l
                    queue.append(tail[l])
        if via[t] is None:
            return value
        value += _push(view, via, s, t, capacity, flow)


def _push(view, via: list, s: int, t: int, capacity: list, flow: list) -> Rational:
    """Push the path's bottleneck onto ``flow`` and return it; the path runs
    from s to t along the arcs ``via`` reached each node by (l forward, ~l
    backward), within ``capacity``."""
    path = []
    while t != s:
        path.append(via[t])
        t = view.tail[via[t]] if via[t] >= 0 else view.head[~via[t]]
    amount = exact(min(capacity[l] - flow[l] if l >= 0 else flow[~l] for l in path))
    for l in path:  # forward arcs gain the amount, backward ones give it back
        flow[l if l >= 0 else ~l] += amount if l >= 0 else -amount
    return amount


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
    peeled into paths by `_peel`.  The last one is a maximum flow; none
    when the sink is unreachable.
    """
    view = net.view
    tail, head, delay, bandwidth = view.tail, view.head, view.delay, view.bandwidth
    s, t = view.pos[source], view.pos[sink]
    n = len(view.out)
    flow: list[Rational] = [0] * len(tail)
    prefixes: list[Prefix] = []
    rate = cost = 0
    while True:
        dist: list[int | None] = [None] * n
        via = [0] * n  # the arc that last lowered each node: l forward, ~l backward
        dist[s] = 0
        queue = deque([s])
        queued = [False] * n
        queued[s] = True
        while queue:
            v = queue.popleft()
            queued[v] = False
            # forward arcs first, each costing its delay, then backward ones
            for links, forward in ((view.out[v], True), (view.into[v], False)):
                for l in links:
                    if (flow[l] < bandwidth[l]) if forward else (flow[l] > 0):
                        w = head[l] if forward else tail[l]
                        nd = dist[v] + (delay[l] if forward else -delay[l])
                        if dist[w] is None or nd < dist[w]:
                            dist[w] = nd
                            via[w] = l if forward else ~l
                            if not queued[w]:
                                queued[w] = True
                                queue.append(w)
        length = dist[t]
        if length is None:
            return tuple(prefixes)
        delta = _push(view, via, s, t, bandwidth, flow)
        rate = exact(rate + delta)
        cost = exact(cost + delta * length)
        paths = _peel(net, flow, s, t)
        ids = tuple((tuple(net.links[l].id for l in walk), x) for walk, x in paths)
        delays = tuple(sum(delay[l] for l in walk) for walk, _ in paths)
        prefixes.append(Prefix(length, rate, cost, ids, delays))


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


def _peel(net: Network, flow: list[Rational], s: int, t: int) -> list[tuple[tuple, Rational]]:
    """Split an acyclic conserving flow, by link, from node s to node t into
    simple paths of links with rates summing to the flow value.

    Each walk takes a node's first outgoing link with flow left and peels
    its bottleneck.  The caller, `min_cost_prefixes`, passes min-cost flows
    on positive delays, which have no positive-flow cycle; a walk of |V|
    links means a cyclic input and raises instead of looping.
    """
    head, out = net.view.head, net.view.out
    residual = list(flow)
    paths = []
    while True:
        walk: list[int] = []
        v = s
        while v != t:
            for l in out[v]:
                if residual[l] > 0:
                    break
            else:
                return paths
            walk.append(l)
            v = head[l]
            if len(walk) >= len(out):
                raise AssertionError("flow to decompose has a cycle")
        amount = exact(min(residual[l] for l in walk))
        for l in walk:
            residual[l] -= amount
        paths.append((tuple(walk), amount))


def shortest_delay(net: Network, source: str, reverse: bool = False) -> dict[str, int]:
    """Dijkstra over link delays from ``source``; unreachable nodes are absent.

    With ``reverse`` the links are followed backwards, giving each node's
    shortest delay to ``source``.
    """
    view = net.view
    adjacent, ends = (view.into, view.tail) if reverse else (view.out, view.head)
    dist: list[int | None] = [None] * len(adjacent)
    start = view.pos[source]
    dist[start] = 0
    heap = [(0, start)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for l in adjacent[v]:
            w = ends[l]
            nd = d + view.delay[l]
            if dist[w] is None or nd < dist[w]:
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return {v: d for v, d in zip(net.nodes, dist) if d is not None}
