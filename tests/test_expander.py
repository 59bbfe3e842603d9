from fractions import Fraction as F

import pytest

from aoiflow import (
    Instance,
    build_expanded,
    horizon_upper_bound,
    link_groups,
    network,
)
from aoiflow.expander import HOLDING, TRANSIT
from conftest import make_fastslow_instance, make_fastslow_network, make_triple_instance


def test_horizon_fastslow():
    assert horizon_upper_bound(make_fastslow_instance()) == 2 * (11 + 10)


def test_horizon_triple():
    assert horizon_upper_bound(make_triple_instance()) == 2 * (7 + 5)


def test_horizon_single_link():
    net = network(["s", "r"], [("e", "s", "r", 1, 10)])
    inst = Instance(net, "s", "r", F(1), F(1), F(1))
    assert horizon_upper_bound(inst) == 4


def test_two_hop_expansion_counts():
    net = network(["s", "a", "r"], [("sa", "s", "a", 2, 1), ("ar", "a", "r", 1, 1)])
    exp = build_expanded(net, 5)
    assert exp.node_count == 18
    transit = [el for el in exp.links if el.kind == TRANSIT]
    holding = [el for el in exp.links if el.kind == HOLDING]
    assert sum(1 for el in transit if el.link_id == "sa") == 4
    assert sum(1 for el in transit if el.link_id == "ar") == 5
    assert len(holding) == 15


def test_horizon_below_delays_gives_holding_only():
    net = network(["s", "r"], [("e", "s", "r", 7, 1)])
    exp = build_expanded(net, 3)
    assert all(el.kind == HOLDING for el in exp.links)
    assert len(exp.links) == 2 * 3


def test_slow_link_single_copy_at_tight_horizon():
    exp = build_expanded(make_fastslow_network(), 11)
    e2 = [el for el in exp.links if el.link_id == "e2"]
    assert len(e2) == 1 and e2[0].push == 0


def test_layers_strictly_increase():
    exp = build_expanded(make_fastslow_network(), 13)
    for el in exp.links:
        assert exp.layer_of(el.head) > exp.layer_of(el.tail)


def test_expansion_deterministic():
    a = build_expanded(make_fastslow_network(), 13)
    b = build_expanded(make_fastslow_network(), 13)
    assert a.links == b.links


def test_groups_fastslow_fast_link():
    exp = build_expanded(make_fastslow_network(), 11)
    groups = {
        (g.link_id, g.residue): len(g.members) for g in link_groups(exp, 7)
    }
    for residue in range(4):
        assert groups[("e1", residue)] == 2
    for residue in range(4, 7):
        assert groups[("e1", residue)] == 1
    assert groups[("e2", 0)] == 1


def test_groups_period_one_collects_everything():
    exp = build_expanded(make_fastslow_network(), 11)
    groups = link_groups(exp, 1)
    by_link = {g.link_id: g for g in groups}
    assert len(by_link["e1"].members) == 11
    assert len(by_link["e2"].members) == 1


def test_groups_large_period_singletons():
    exp = build_expanded(make_fastslow_network(), 11)
    for g in link_groups(exp, 50):
        assert len(g.members) <= 1


def test_group_partition_recovers_all_transits():
    net = make_triple_instance().network
    exp = build_expanded(net, 24)
    for period in (1, 2, 3, 5, 7):
        groups = link_groups(exp, period)
        for link in net.links:
            members = [
                m for g in groups if g.link_id == link.id for m in g.members
            ]
            assert len(members) == 24 - link.delay + 1
            assert len(set(members)) == len(members)


def test_bad_arguments_rejected():
    with pytest.raises(ValueError):
        build_expanded(make_fastslow_network(), 0)
    exp = build_expanded(make_fastslow_network(), 5)
    with pytest.raises(ValueError):
        link_groups(exp, 0)
