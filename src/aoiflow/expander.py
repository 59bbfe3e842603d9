"""Layered time expansion of a network, pruned to the routes of one bound.

`build_expanded(inst, bound, period)` serves one question: can the batch
travel from (sender, 0) to (receiver, bound) at this period?  So it keeps
only the copies lying on such a route.  A physical link u -> v of delay
``d`` becomes transit copies (u, i) -> (v, i + d) for the push slots
``dist_s[u] <= i <= bound - d - dist_r[v]`` (the period cut counts them
too), and a node v gets unit holding links (v, i) -> (v, i + 1)
for ``dist_s[v] <= i < bound - dist_r[v]``, where ``dist_s`` is the shortest
delay from the sender and ``dist_r`` the shortest delay to the receiver.
Every other copy carries zero in any conserving flow, so dropping it leaves
the flow program's feasible flows unchanged.

The expansion owns the facts every probe engine reads, so no rung is
handed them apart from it: its instance (`ExpandedNetwork.inst`), source
(sender, 0) and sink (receiver, bound), each node's outgoing and incoming
links, and the capacity groups.  Transit copies of a link whose push slots
agree mod the period share that link's bandwidth; those residue classes
are the capacity groups, numbered by `build_expanded` as it emits the
copies (`ExpandedLink.group`, `ExpandedNetwork.bandwidths`) for the period
it keeps (`ExpandedNetwork.period`).  The validator (`model.residue_loads`)
keeps its own copy of the rule to stay independent.

Node ids are dense ints, ``node_index * (bound + 1) + layer``, so identical
inputs always yield identical link orderings.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType

from .maxflow import shortest_delay
from .model import Instance, Rational

@dataclass(frozen=True)
class ExpandedLink:
    tail: int
    head: int
    link_id: str | None  # physical link for transit copies, None for holding
    push: int  # push slot for transit, start layer for holding
    group: int  # capacity group for transit, -1 for holding


@dataclass(frozen=True)
class ExpandedNetwork:
    """``inst`` expanded for one bound and period; the probe rungs read both here."""

    inst: Instance  # what was expanded: network, endpoints and batch
    bound: int
    period: int  # the period whose push residues number the capacity groups
    links: tuple[ExpandedLink, ...]
    source: int  # (sender, 0)
    sink: int  # (receiver, bound)
    bandwidths: tuple[Rational, ...]  # by capacity group

    @cached_property
    def out_links(self) -> dict[int, list[int]]:
        """Node -> indices of the links leaving it, ascending; read only."""
        return self._adjacency("tail")

    @cached_property
    def in_links(self) -> dict[int, list[int]]:
        """Node -> indices of the links entering it, ascending; read only."""
        return self._adjacency("head")

    def _adjacency(self, end: str) -> dict[int, list[int]]:
        adj: dict[int, list[int]] = {}
        for idx, el in enumerate(self.links):
            adj.setdefault(getattr(el, end), []).append(idx)
        return adj

    def node_of(self, dense: int) -> tuple[str, int]:
        idx, layer = divmod(dense, self.bound + 1)
        return self.inst.network.nodes[idx], layer


def horizon_upper_bound(inst: Instance) -> int:
    """Safe search ceiling for the minimum maximum delay at any period.

    |V| * (d_max + max_period) covers the worst case: a simple path crosses
    fewer than |V| links, and per-node holding never needs to reach a full
    period, so every useful delivery lands below this layer.
    """
    d_max = max((link.delay for link in inst.network.links), default=0)
    return len(inst.network.nodes) * (d_max + inst.max_period)


@lru_cache(maxsize=256)
def route_distances(inst: Instance) -> tuple[Mapping[str, int], Mapping[str, int]]:
    """Each node's shortest delay from the sender and to the receiver.

    Nodes off every sender -> receiver walk are absent from one of the two.
    Cached per instance, since every probe's period cut and expansion read
    them; the mappings are read-only.
    """
    net = inst.network
    return (
        MappingProxyType(shortest_delay(net, inst.sender)),
        MappingProxyType(shortest_delay(net, inst.receiver, reverse=True)),
    )


def build_expanded(inst: Instance, bound: int, period: int) -> ExpandedNetwork:
    """Expand the copies on some (sender, 0) -> (receiver, bound) route.

    Links come in a deterministic order: transit copies link by link, then
    holding links node by node, each by ascending slot.  Transit copies of
    one link whose push slots agree mod ``period`` share a capacity group;
    groups are numbered link by link, residues ascending, which is the order
    of the flow program's capacity rows.  The expansion has no links exactly
    when the receiver is farther than ``bound``.
    """
    if bound < 0:
        raise ValueError("bound must not be negative")
    if period < 1:
        raise ValueError("period must be a positive integer")
    net = inst.network
    dist_s, dist_r = route_distances(inst)
    links: list[ExpandedLink] = []
    bandwidths: list[Rational] = []
    width = bound + 1
    node_pos = net.view.pos
    for link in net.links:
        if link.tail not in dist_s or link.head not in dist_r:
            continue  # off every route
        tail = node_pos[link.tail] * width
        head = node_pos[link.head] * width + link.delay
        slots = range(dist_s[link.tail], bound - link.delay - dist_r[link.head] + 1)
        # the link's residues, ascending, take the next group numbers
        residues = sorted({i % period for i in slots[:period]})
        group = {r: len(bandwidths) + k for k, r in enumerate(residues)}
        bandwidths += [link.bandwidth] * len(residues)
        for i in slots:
            el = ExpandedLink(tail + i, head + i, link.id, i, group[i % period])
            links.append(el)
    for v in net.nodes:
        if v not in dist_s or v not in dist_r:
            continue
        base = node_pos[v] * width
        for i in range(dist_s[v], bound - dist_r[v]):
            links.append(ExpandedLink(base + i, base + i + 1, None, i, -1))
    return ExpandedNetwork(
        inst=inst,
        bound=bound,
        period=period,
        links=tuple(links),
        source=node_pos[inst.sender] * width,
        sink=node_pos[inst.receiver] * width + bound,
        bandwidths=tuple(bandwidths),
    )
