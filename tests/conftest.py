"""Shared helpers: the three hand-analyzed parallel-link instances whose
optimal values are known exactly, a seeded generator of small random
instances used by the property suites, and the period cut recomputed from an
expansion's capacity groups."""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import replace
from fractions import Fraction as F

from aoiflow import Instance, Network, build_expanded, network
from aoiflow.maxflow import max_flow


def make_fastslow_network():
    # two parallel links: fast thin (d=1, b=1) and slow fat (d=11, b=10)
    return network(
        ["s", "r"],
        [("e1", "s", "r", 1, 1), ("e2", "s", "r", 11, 10)],
    )


def make_fastslow_instance():
    return Instance(make_fastslow_network(), "s", "r", F(10), F(1), F(10, 7))


def make_triple_network():
    return network(
        ["s", "r"],
        [("e1", "s", "r", 1, 1), ("e2", "s", "r", 6, 1), ("e3", "s", "r", 7, 1)],
    )


def make_triple_instance():
    return Instance(make_triple_network(), "s", "r", F(5), F(1), F(5, 2))


def make_knee_instance(d: int):
    net = network(
        ["s", "r"],
        [("e1", "s", "r", 1, 1), ("e2", "s", "r", d, 5)],
    )
    return Instance(net, "s", "r", F(5), F(5, 6), F(5, 3))


def corpus_instance(seed: int) -> Instance:
    """Small random instance: <= 6 nodes, delays 1..5, rational bandwidths.

    A sender-to-receiver chain is always present so most instances admit at
    least one feasible period; bandwidths are deliberately tight so some
    periods (or whole instances) come out infeasible.
    """
    rng = random.Random(seed)
    n = rng.randint(3, 6)
    nodes = [f"v{i}" for i in range(n)]
    sender, receiver = nodes[0], nodes[-1]
    links = []
    chain = nodes[: rng.randint(2, n)]
    chain[-1] = receiver
    for a, b in zip(chain, chain[1:]):
        links.append(
            (
                f"e{len(links)}",
                a,
                b,
                rng.randint(1, 5),
                F(rng.choice([1, 1, 2, 3]), rng.choice([1, 2])),
            )
        )
    for _ in range(rng.randint(1, 5)):
        a, b = rng.sample(nodes, 2)
        links.append(
            (
                f"e{len(links)}",
                a,
                b,
                rng.randint(1, 5),
                F(rng.choice([1, 1, 2, 3, 4]), rng.choice([1, 2])),
            )
        )
    net = network(nodes, links)
    t_max = rng.randint(2, 6)
    t_min = max(1, t_max - rng.randint(0, 2))
    batch = F(rng.choice([2, 3, 4, 6]))
    return Instance(net, sender, receiver, batch, F(batch, t_max), F(batch, t_min))


def expansion_cut(inst, period, bound):
    """The period cut read off the bound's expansion: each physical link
    carries the summed bandwidths of its capacity groups there, and the
    links without a group are dropped."""
    exp = build_expanded(inst, bound, period)
    held = defaultdict(set)
    for el in exp.links:
        if el.group >= 0:
            held[el.link_id].add(el.group)
    summed = Network(
        nodes=inst.network.nodes,
        links=tuple(
            replace(link, bandwidth=sum(exp.bandwidths[g] for g in held[link.id]))
            for link in inst.network.links
            if link.id in held
        ),
    )
    return max_flow(summed, inst.sender, inst.receiver)[1]
