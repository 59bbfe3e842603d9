"""Exact rationals on the solve path.

Integral bandwidths, batches, flows and amounts stay `int`; a `Fraction`
appears only where a value is not integral or a division makes one.  No
`float` may enter anywhere: at 10^20 a float ceiling rounds away the answer,
and at 1 + 10^-30 a float bandwidth rounds away an infeasibility.
"""

import random
from dataclasses import replace
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from aoiflow import Instance, Network, network
from aoiflow.cli import main
from aoiflow.expander import ExpandedLink, ExpandedNetwork, build_expanded
from aoiflow.experiments import (
    complete_graph,
    generate,
    grid_graph,
    pick_endpoints,
    scaled_instance,
)
from aoiflow.fileio import save_instance
from aoiflow.flowlp import group_augment, period_cut
from aoiflow.maxflow import min_cost_prefixes, quickest_bound
from aoiflow.mmd import min_max_delay
from aoiflow.model import exact, feasible_periods
from aoiflow.solvers import Objective, solve_optimal
from conftest import corpus_instance, expansion_cut


def solved_values(inst):
    """Every value the type pins read, by kind, over the whole window."""
    values = {
        "bandwidth": [link.bandwidth for link in inst.network.links],
        "batch": [inst.batch],
        "prefix": [],
        "group": [],
        "cut": [],
        "push": [],
        "amount": [],
    }
    for prefix in min_cost_prefixes(inst.network, inst.sender, inst.receiver):
        values["prefix"] += [prefix.rate, prefix.cost, *(r for _, r in prefix.paths)]
    for period in feasible_periods(inst):
        result = min_max_delay(inst, period)
        if result is None:
            continue
        values["amount"] += [e.amount for e in result.solution.entries]
        for bound, _ in result.probes:
            exp = build_expanded(inst, bound, period)
            values["group"] += exp.bandwidths
            values["cut"].append(period_cut(inst, period, bound))
            flow = group_augment(exp, inst.batch).flow or {}
            values["push"] += flow.values()
    for objective in (Objective.PEAK_AOI, Objective.AVG_AOI):
        solution = solve_optimal(inst, objective).solution
        values["amount"] += [e.amount for e in solution.entries]
    return values


def test_integer_instance_stays_int():
    net = generate(grid_graph(4, 4, seed=7))
    inst = scaled_instance(net, "a1_1", "a4_4", 10)
    values = solved_values(inst)
    assert all(values.values())  # every kind was met
    for kind, found in values.items():
        assert {type(v) for v in found} == {int}, kind


def test_half_bandwidths_stay_fractions():
    inst = corpus_instance(20)  # bandwidths 2, 3/2, 3/2
    values = solved_values(inst)
    assert {type(v) for v in values["bandwidth"]} == {int, F}
    for kind in ("prefix", "group"):
        assert values[kind] and F in {type(v) for v in values[kind]}, kind
    assert {type(v) for v in values["prefix"]} == {F}
    assert values["amount"] == [F(3, 2)] * len(values["amount"])
    for kind, found in values.items():
        assert all(type(v) in (int, F) for v in found), kind
    # what the model stores is canonical: int exactly when integral
    for kind in ("bandwidth", "batch", "amount"):
        assert all(type(v) is type(exact(v)) for v in values[kind]), kind


def test_exact_canonicalises():
    assert type(exact(F(6, 3))) is int and exact(F(6, 3)) == 2
    assert type(exact(7)) is int and type(exact(True)) is int
    assert exact(F(3, 6)) == F(1, 2) and exact("3/6") == F(1, 2)


def test_pusher_splits_a_twice_used_group_exactly():
    """The first path crosses one group twice, so it takes half of its
    integer bandwidth; the second path brings the rest."""
    net = network(["s", "r"], [("e", "s", "r", 1, 1), ("f", "s", "r", 1, 1)])
    # (tail, head, link, group): both copies of e share group 0
    hops = [
        (0, 1, "e", 0),
        (1, 2, "e", 0),
        (0, 3, "f", 1),
        (3, 4, "f", 2),
        (4, 2, "f", 3),
    ]
    exp = ExpandedNetwork(
        net=net,
        bound=4,
        links=tuple(ExpandedLink(t, h, link, 0, g) for t, h, link, g in hops),
        source=0,
        sink=2,
        bandwidths=(1, 1, 1, 1),
    )
    flow = group_augment(exp, 1).flow
    assert flow == {idx: F(1, 2) for idx in range(5)}
    assert {type(v) for v in flow.values()} == {F}


def test_huge_delay_keeps_an_exact_ceiling(tmp_path, capsys):
    big = 10**20
    net = network(["s", "r"], [("e", "s", "r", big, 1)])
    path = tmp_path / "far.inst"
    save_instance(Instance(net, "s", "r", 2, 1, 1), str(path))
    assert main(["mmd-at-period", str(path), "2"]) == 0
    assert capsys.readouterr().out == (
        f"T=2 M={big + 1} peak={big + 2} avg={2 * big + 3}/2 probes=1\n"
    )


def test_bandwidth_a_hair_above_one_stays_exact(tmp_path, capsys):
    hair = F(10**30 + 1, 10**30)
    net = network(["s", "r"], [("e", "s", "r", 1, hair)])
    path = tmp_path / "hair.inst"
    save_instance(Instance(net, "s", "r", 3, 1, F(3, 2)), str(path))
    assert main(["mmd-at-period", str(path), "2"]) == 2
    assert capsys.readouterr().out == "infeasible at period 2\n"
    assert main(["solve", "maa", str(path)]) == 0
    assert "T=3 M=3 " in capsys.readouterr().out


def test_bandwidth_a_hair_below_one_stays_exact():
    # as a float the bandwidth is 1, and two slots would carry the batch
    hair = F(10**30 - 1, 10**30)
    net = network(["s", "r"], [("e", "s", "r", 1, hair)])
    inst = Instance(net, "s", "r", 2, F(2, 3), 1)
    assert min_max_delay(inst, 2) is None
    assert min_max_delay(inst, 3).max_delay == 3


def rescaled(inst, factor):
    """The instance with every bandwidth, the batch and the window times factor."""
    net = inst.network
    links = tuple(replace(link, bandwidth=link.bandwidth * factor) for link in net.links)
    return Instance(
        Network(net.nodes, links),
        inst.sender,
        inst.receiver,
        inst.batch * factor,
        inst.r_min * factor,
        inst.r_max * factor,
    )


TOPOLOGIES = {
    "grid3x3": lambda seed: grid_graph(3, 3, seed),
    "grid3x4": lambda seed: grid_graph(3, 4, seed),
    "grid4x4": lambda seed: grid_graph(4, 4, seed),
    "complete5": lambda seed: complete_graph(5, seed),
    "complete6": lambda seed: complete_graph(6, seed),
}


# a drawn instance: topology, seed, capacity scale and window length
DRAWN = dict(
    kind=st.sampled_from(sorted(TOPOLOGIES)),
    seed=st.integers(0, 40),
    scale=st.integers(1, 6),
    n_periods=st.integers(1, 3),
)


def drawn_instance(kind, seed, scale, n_periods):
    net = generate(TOPOLOGIES[kind](seed))
    sender, receiver = pick_endpoints(net, seed)
    return scaled_instance(net, sender, receiver, scale, n_periods)


def delays(inst):
    """Each period's minimum maximum delay, None when it is infeasible."""
    results = {period: min_max_delay(inst, period) for period in feasible_periods(inst)}
    return {period: r and r.max_delay for period, r in results.items()}


def no_later(better, base):
    """Every period feasible in ``base`` is feasible in ``better``, no later."""
    for period, delay in base.items():
        if delay is not None:
            assert better[period] is not None and better[period] <= delay, period


@settings(max_examples=20, deadline=None)
@given(**DRAWN, factor=st.sampled_from([F(3), F(1, 7)]))
def test_rescaling_leaves_every_delay(kind, seed, scale, n_periods, factor):
    """The flow program is homogeneous in bandwidths and batch, so scaling
    both, and the window with them, keeps every period's minimum maximum
    delay.  A factor of 1/7 moves an integer instance onto Fractions."""
    inst = drawn_instance(kind, seed, scale, n_periods)
    other = rescaled(inst, factor)
    kinds = {type(link.bandwidth) for link in other.network.links}
    assert kinds == ({int} if factor == 3 else {F})
    assert delays(other) == delays(inst)


def renamed(inst, rng):
    """The instance with every node and link renamed and both orders shuffled."""
    net = inst.network
    node_ids = rng.sample(range(len(net.nodes)), len(net.nodes))
    name = {v: f"n{i}" for v, i in zip(net.nodes, node_ids)}
    link_ids = rng.sample(range(len(net.links)), len(net.links))
    links = [
        replace(link, id=f"l{i}", tail=name[link.tail], head=name[link.head])
        for link, i in zip(net.links, link_ids)
    ]
    nodes = list(name.values())
    rng.shuffle(nodes)
    rng.shuffle(links)
    return replace(
        inst,
        network=Network(tuple(nodes), tuple(links)),
        sender=name[inst.sender],
        receiver=name[inst.receiver],
    )


def with_links(inst, links):
    return replace(inst, network=Network(inst.network.nodes, tuple(links)))


@settings(max_examples=25, deadline=None)
@given(**DRAWN, shuffle=st.integers(0, 2**16))
def test_renaming_and_shuffling_leave_every_delay(
    kind, seed, scale, n_periods, shuffle
):
    """Names and orders decide link indices, tie-breaks and the peel order,
    never a delay."""
    inst = drawn_instance(kind, seed, scale, n_periods)
    base = delays(inst)
    rng = random.Random(shuffle)
    for _ in range(2):
        assert delays(renamed(inst, rng)) == base


@settings(max_examples=25, deadline=None)
@given(**DRAWN, which=st.integers(0, 10**6))
def test_more_bandwidth_never_raises_a_delay(kind, seed, scale, n_periods, which):
    """Raising one link's bandwidth by 1 only loosens the flow program."""
    inst = drawn_instance(kind, seed, scale, n_periods)
    links = list(inst.network.links)
    which %= len(links)
    links[which] = replace(links[which], bandwidth=links[which].bandwidth + 1)
    no_later(delays(with_links(inst, links)), delays(inst))


@settings(max_examples=25, deadline=None)
@given(
    **DRAWN,
    which=st.integers(0, 10**6),
    delay=st.integers(1, 6),
    bandwidth=st.sampled_from([1, 2, F(1, 2), F(5, 3)]),
)
def test_a_parallel_link_never_raises_a_delay(
    kind, seed, scale, n_periods, which, delay, bandwidth
):
    """A parallel link adds capacity and copies; every old schedule stays valid."""
    inst = drawn_instance(kind, seed, scale, n_periods)
    links = inst.network.links
    twin = links[which % len(links)]
    extra = replace(twin, id="parallel", delay=delay, bandwidth=bandwidth)
    no_later(delays(with_links(inst, (*links, extra))), delays(inst))


@settings(max_examples=20, deadline=None)
@given(**DRAWN, factor=st.sampled_from([F(3, 2), F(2), F(7, 3)]))
def test_a_larger_batch_never_lowers_a_delay(kind, seed, scale, n_periods, factor):
    """Scaling the batch and both rates by one factor keeps the window; a
    schedule of the larger batch, scaled back, carries the smaller one."""
    inst = drawn_instance(kind, seed, scale, n_periods)
    larger = replace(
        inst,
        batch=inst.batch * factor,
        r_min=inst.r_min * factor,
        r_max=inst.r_max * factor,
    )
    assert feasible_periods(larger) == feasible_periods(inst)
    no_later(delays(inst), delays(larger))


@settings(max_examples=25, deadline=None)
@given(**DRAWN)
def test_period_cut_counts_the_expansions_groups(kind, seed, scale, n_periods):
    """The period cut gives each link its bandwidth once per capacity group
    among the copies `build_expanded` emits, from the quickest bound to 3
    above it; an off-by-one in the cut's copy count breaks the equality."""
    inst = drawn_instance(kind, seed, scale, n_periods)
    bottom = quickest_bound(inst.network, inst.sender, inst.receiver, inst.batch)
    for period in feasible_periods(inst):
        for bound in range(bottom, bottom + 4):
            want = expansion_cut(inst, period, bound)
            assert period_cut(inst, period, bound) == want, (period, bound)
