from fractions import Fraction as F

import pytest

from aoiflow import (
    Instance,
    build_expanded,
    horizon_upper_bound,
    network,
)
from aoiflow.maxflow import shortest_delay
from conftest import corpus_instance, make_fastslow_instance, make_triple_instance


def group_members(exp, period):
    """``(link id, residue) -> member indices`` in group number order, from
    the groups `build_expanded` numbered at ``period``."""
    members = [[] for _ in exp.bandwidths]
    for idx, el in enumerate(exp.links):
        if el.group >= 0:
            members[el.group].append(idx)
    return {
        (exp.links[m[0]].link_id, exp.links[m[0]].push % period): m for m in members
    }


def test_horizon_fastslow():
    assert horizon_upper_bound(make_fastslow_instance()) == 2 * (11 + 10)


def test_horizon_triple():
    assert horizon_upper_bound(make_triple_instance()) == 2 * (7 + 5)


def test_horizon_single_link():
    net = network(["s", "r"], [("e", "s", "r", 1, 10)])
    inst = Instance(net, "s", "r", F(1), F(1), F(1))
    assert horizon_upper_bound(inst) == 4


def test_two_hop_expansion_counts():
    # s is 0 from the sender and 3 from the receiver, a is 2 and 1, r is 3 and 0
    net = network(["s", "a", "r"], [("sa", "s", "a", 2, 1), ("ar", "a", "r", 1, 1)])
    inst = Instance(net, "s", "r", F(1), F(1), F(1))
    exp = build_expanded(inst, 5, 1)

    def pushes(link_id):
        return [el.push for el in exp.links if el.link_id == link_id]

    assert pushes("sa") == [0, 1, 2]  # 0 <= i <= 5 - 2 - 1
    assert pushes("ar") == [2, 3, 4]  # 2 <= i <= 5 - 1 - 0
    holding = [exp.node_of(el.tail) for el in exp.links if el.link_id is None]
    assert holding == [("s", 0), ("s", 1), ("a", 2), ("a", 3), ("r", 3), ("r", 4)]
    assert exp.node_of(1 * 6 + 2) == ("a", 2)
    assert (exp.source, exp.sink) == (0 * 6 + 0, 2 * 6 + 5)
    assert (exp.node_of(exp.source), exp.node_of(exp.sink)) == (("s", 0), ("r", 5))
    for adj, end in ((exp.out_links, "tail"), (exp.in_links, "head")):
        assert adj == {
            node: [idx for idx, el in enumerate(exp.links) if getattr(el, end) == node]
            for node in {getattr(el, end) for el in exp.links}
        }


def test_bound_below_shortest_delay_gives_no_links():
    net = network(["s", "r"], [("e", "s", "r", 7, 1)])
    inst = Instance(net, "s", "r", F(1), F(1), F(1))
    assert build_expanded(inst, 6, 1).links == ()
    assert len(build_expanded(inst, 7, 1).links) == 1


def test_reverse_shortest_delay_is_each_nodes_delay_to_the_receiver():
    for seed in range(20):
        inst = corpus_instance(seed)
        net, receiver = inst.network, inst.receiver
        to_receiver = {v: shortest_delay(net, v).get(receiver) for v in net.nodes}
        want = {v: d for v, d in to_receiver.items() if d is not None}
        assert shortest_delay(net, receiver, reverse=True) == want, seed


def test_off_route_copies_dropped():
    # b is a dead end and c is unreachable: neither gets a single copy
    net = network(
        ["s", "b", "c", "r"],
        [("sr", "s", "r", 1, 1), ("sb", "s", "b", 1, 1), ("cr", "c", "r", 1, 1)],
    )
    inst = Instance(net, "s", "r", F(1), F(1), F(1))
    exp = build_expanded(inst, 4, 1)
    assert {el.link_id for el in exp.links if el.link_id is not None} == {"sr"}
    assert {exp.node_of(el.tail)[0] for el in exp.links} == {"s", "r"}


def test_slow_link_single_copy_at_tight_horizon():
    exp = build_expanded(make_fastslow_instance(), 11, 7)
    e2 = [el for el in exp.links if el.link_id == "e2"]
    assert len(e2) == 1 and e2[0].push == 0


def test_layers_strictly_increase():
    exp = build_expanded(make_fastslow_instance(), 13, 7)
    for el in exp.links:
        assert exp.node_of(el.head)[1] > exp.node_of(el.tail)[1]


def test_expansion_deterministic():
    a = build_expanded(make_fastslow_instance(), 13, 7)
    b = build_expanded(make_fastslow_instance(), 13, 7)
    assert (a.links, a.bandwidths) == (b.links, b.bandwidths)


def test_groups_fastslow_fast_link():
    exp = build_expanded(make_fastslow_instance(), 11, 7)
    groups = {key: len(members) for key, members in group_members(exp, 7).items()}
    for residue in range(4):
        assert groups[("e1", residue)] == 2
    for residue in range(4, 7):
        assert groups[("e1", residue)] == 1
    assert groups[("e2", 0)] == 1


def test_groups_period_one_collects_everything():
    exp = build_expanded(make_fastslow_instance(), 11, 1)
    groups = group_members(exp, 1)
    assert set(groups) == {("e1", 0), ("e2", 0)}
    assert len(groups[("e1", 0)]) == 11
    assert len(groups[("e2", 0)]) == 1


def test_groups_large_period_singletons():
    exp = build_expanded(make_fastslow_instance(), 11, 50)
    for members in group_members(exp, 50).values():
        assert len(members) <= 1


def test_group_partition_recovers_all_transits():
    inst = make_triple_instance()
    net = inst.network
    for period in (1, 2, 3, 5, 7):
        exp = build_expanded(inst, 24, period)
        groups = group_members(exp, period)
        for link in net.links:
            members = [
                m for (lid, _), ms in groups.items() if lid == link.id for m in ms
            ]
            assert len(members) == 24 - link.delay + 1
            assert len(set(members)) == len(members)


def test_bad_arguments_rejected():
    with pytest.raises(ValueError):
        build_expanded(make_fastslow_instance(), -1, 7)
    with pytest.raises(ValueError):
        build_expanded(make_fastslow_instance(), 5, 0)

