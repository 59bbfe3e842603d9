"""Layered time expansion of a network.

Every node is copied once per slot 0..horizon.  Each physical link of delay
``d`` becomes transit copies (v, i) -> (w, i + d) for every push slot i, and
each node gets unit holding links (v, i) -> (v, i + 1).  Transit copies of a
link whose push slots agree mod the period share that link's bandwidth; those
residue classes are the capacity groups the flow program constrains.

Node ids are dense ints, ``node_index * (horizon + 1) + layer``, so identical
inputs always yield identical link orderings.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Instance, Network

TRANSIT = "transit"
HOLDING = "holding"


@dataclass(frozen=True)
class ExpandedLink:
    tail: int
    head: int
    kind: str
    link_id: str | None  # physical link for transit copies, None for holding
    push: int  # push slot for transit, start layer for holding


@dataclass(frozen=True)
class ExpandedNetwork:
    net: Network
    horizon: int
    links: tuple[ExpandedLink, ...]

    @property
    def node_count(self) -> int:
        return len(self.net.nodes) * (self.horizon + 1)

    def node_id(self, node: str, layer: int) -> int:
        return self.net.nodes.index(node) * (self.horizon + 1) + layer

    def node_of(self, dense: int) -> tuple[str, int]:
        idx, layer = divmod(dense, self.horizon + 1)
        return self.net.nodes[idx], layer

    def layer_of(self, dense: int) -> int:
        return dense % (self.horizon + 1)


@dataclass(frozen=True)
class LinkGroup:
    """Transit copies of one physical link sharing a push residue class."""

    link_id: str
    residue: int
    members: tuple[int, ...]  # indices into ExpandedNetwork.links


def horizon_upper_bound(inst: Instance) -> int:
    """Safe search ceiling for the minimum maximum delay at any period.

    |V| * (d_max + max_period) covers the worst case: a simple path crosses
    fewer than |V| links, and per-node holding never needs to reach a full
    period, so every useful delivery lands below this layer.
    """
    d_max = max((link.delay for link in inst.network.links), default=0)
    return len(inst.network.nodes) * (d_max + inst.max_period)


def build_expanded(net: Network, horizon: int) -> ExpandedNetwork:
    """Expand the network over layers 0..horizon (deterministic ordering)."""
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    links: list[ExpandedLink] = []
    width = horizon + 1
    node_pos = {v: i for i, v in enumerate(net.nodes)}
    for link in net.links:
        for i in range(0, horizon - link.delay + 1):
            links.append(
                ExpandedLink(
                    tail=node_pos[link.tail] * width + i,
                    head=node_pos[link.head] * width + i + link.delay,
                    kind=TRANSIT,
                    link_id=link.id,
                    push=i,
                )
            )
    for v in net.nodes:
        for i in range(horizon):
            links.append(
                ExpandedLink(
                    tail=node_pos[v] * width + i,
                    head=node_pos[v] * width + i + 1,
                    kind=HOLDING,
                    link_id=None,
                    push=i,
                )
            )
    return ExpandedNetwork(net=net, horizon=horizon, links=tuple(links))


def link_groups(exp: ExpandedNetwork, period: int) -> list[LinkGroup]:
    """Partition each link's transit copies by push slot mod period."""
    if period < 1:
        raise ValueError("period must be a positive integer")
    buckets: dict[tuple[str, int], list[int]] = {}
    for idx, el in enumerate(exp.links):
        if el.kind != TRANSIT:
            continue
        buckets.setdefault((el.link_id, el.push % period), []).append(idx)
    order = {link.id: i for i, link in enumerate(exp.net.links)}
    return [
        LinkGroup(link_id=lid, residue=res, members=tuple(members))
        for (lid, res), members in sorted(
            buckets.items(), key=lambda kv: (order[kv[0][0]], kv[0][1])
        )
    ]
