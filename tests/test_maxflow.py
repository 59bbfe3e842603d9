"""Edmonds-Karp on a network whose maximum flow must cancel its first path."""

import pytest

from aoiflow import network
from aoiflow.maxflow import max_flow


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


def test_max_flow_cancels_under_a_capacity_mapping():
    net = cancelling_network()
    flow, value = max_flow(net, "s", "t", {link.id: 2 for link in net.links})
    assert value == 4
    assert flow["x-y"] == 0
    assert all(flow[link] == 2 for link in flow if link != "x-y")


@pytest.mark.parametrize(
    "capacity,start",
    [
        (None, {"s-x": 2}),  # above the link's bandwidth
        (None, {"s-x": -1}),
        ({"s-x": 1}, {"x-y": 1}),  # on a link the mapping gives nothing
    ],
)
def test_max_flow_refuses_a_start_outside_the_capacities(capacity, start):
    with pytest.raises(ValueError, match="outside its capacity"):
        max_flow(cancelling_network(), "s", "t", capacity, start)


def test_max_flow_from_a_node_to_itself_is_empty():
    # a source that is its own sink has no path to augment along
    assert max_flow(cancelling_network(), "x", "x") == ({}, 0)
