"""Edmonds-Karp on a network whose maximum flow must cancel its first path."""

import hashlib

import pytest

from aoiflow import network
from aoiflow.expander import route_distances
from aoiflow.experiments import (
    complete_graph,
    generate,
    grid_graph,
    pick_endpoints,
    scaled_instance,
)
from aoiflow.maxflow import _augment, max_flow, min_cost_prefixes
from aoiflow.mmd import PeriodScan
from conftest import corpus_instance


def cancelling_network():
    """The first shortest path s-x-y-t blocks both longer routes; a second
    unit reaches t only by pushing back along x -> y: s-z1-z2-y, back to x,
    then x-w-w2-t.  Every link has delay 1 and bandwidth 1."""
    links = [
        ("s", "x"), ("x", "y"), ("y", "t"),
        ("x", "w"), ("w", "w2"), ("w2", "t"),
        ("s", "z1"), ("z1", "z2"), ("z2", "y"),
    ]
    nodes = ["s", "x", "y", "t", "w", "w2", "z1", "z2"]
    return network(nodes, [(f"{a}-{b}", a, b, 1, 1) for a, b in links])


def test_max_flow_cancels_the_first_path():
    flow, value = max_flow(cancelling_network(), "s", "t")
    assert value == 2
    assert flow["x-y"] == 0
    assert all(flow[link] == 1 for link in flow if link != "x-y")


def by_link(net, amounts):
    """``amounts``, by link id, as a list by link position; 0 where absent."""
    return [amounts.get(link.id, 0) for link in net.links]


@pytest.mark.parametrize(
    "capacity,start",
    [
        (None, {"s-x": 2}),  # above the link's bandwidth
        (None, {"s-x": -1}),
        ({"s-x": 1}, {"x-y": 1}),  # on a link the capacities give nothing
    ],
)
def test_augment_refuses_a_start_outside_the_capacities(capacity, start):
    net = cancelling_network()
    room = net.view.bandwidth if capacity is None else by_link(net, capacity)
    with pytest.raises(ValueError, match="outside its capacity"):
        _augment(net, "s", "t", room, by_link(net, start))


def test_augment_refuses_a_start_that_does_not_conserve():
    # one unit into t from y, which nothing feeds: augmenting from it would
    # read value 1 where the maximum is 2
    net = cancelling_network()
    with pytest.raises(ValueError, match="does not conserve at 'y'"):
        _augment(net, "s", "t", net.view.bandwidth, by_link(net, {"y-t": 1}))


def test_period_cut_refuses_a_carried_flow_that_does_not_conserve():
    # `_augment` checks the flow the scan carries from bound to bound
    inst = corpus_instance(0)
    scan = PeriodScan(inst, inst.max_period)
    links = inst.network.links
    fed = next(
        l
        for l, link in enumerate(links)
        if link.tail != inst.sender and scan.first[l] is not None
    )
    scan.cut(scan.first[fed])
    scan.flow = [0] * len(links)
    scan.flow[fed] = links[fed].bandwidth  # its tail never receives it
    with pytest.raises(ValueError, match=f"does not conserve at {links[fed].tail!r}"):
        scan.cut(scan.first[fed] + 1)


def test_max_flow_from_a_node_to_itself_is_empty():
    # a source that is its own sink has no path to augment along
    assert max_flow(cancelling_network(), "x", "x") == ({}, 0)


# the kernels' outputs on the small families, by sha256: corpus seeds
# 0-199, the `aoiflow batch` instances of complete-6 seeds 0-29, and the 36
# seeds of the grid-16 pool at ten times the path capacity
GRID16_POOL = tuple(s for s in range(1, 40) if s not in (25, 28, 38))
PREFIX_DIGEST = "6f2bc5199e57bd302241551f8273f279178dcf1e93680a70a6743675470b57d8"
DISTANCE_DIGEST = "97514e844575f551d2651d096131a26f49906f67c6467ecdec062ba49dd7ed1e"


def family_instances():
    yield from (corpus_instance(seed) for seed in range(200))
    for seed in range(30):
        net = generate(complete_graph(6, seed))
        yield scaled_instance(net, *pick_endpoints(net, seed), 5, 10)
    for seed in GRID16_POOL:
        yield scaled_instance(generate(grid_graph(4, 4, seed=seed)), "a1_1", "a4_4", 10)


def family_digest(lines):
    """sha256 over the lines ``lines(inst)`` yields for each family instance."""
    h = hashlib.sha256()
    for inst in family_instances():
        for line in lines(inst):
            h.update(f"{line}\n".encode())
        h.update(b"end\n")
    return h.hexdigest()


def test_min_cost_prefixes_keep_their_digest():
    # every prefix's length, rate, cost, paths and delays, exact types included
    def prefixes(inst):
        for prefix in min_cost_prefixes(inst.network, inst.sender, inst.receiver):
            yield repr(tuple(prefix))

    assert family_digest(prefixes) == PREFIX_DIGEST


def test_route_distances_keep_their_digest():
    # each node's shortest delay from the sender and to the receiver, in
    # node order, None where the node is off every route
    def distances(inst):
        dist_s, dist_r = route_distances(inst)
        for v in inst.network.nodes:
            yield f"{v} {dist_s.get(v)} {dist_r.get(v)}"

    assert family_digest(distances) == DISTANCE_DIGEST
