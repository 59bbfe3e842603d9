from collections import defaultdict, deque
from fractions import Fraction as F

import pytest

from aoiflow import (
    Instance,
    build_expanded,
    build_flow_lp,
    extract_edge_flow,
    network,
    solve_lp,
)
from aoiflow.experiments import complete_graph, generate, scaled_instance
from aoiflow.flowlp import (
    _scipy_solve,
    certify_value_below,
    group_augment,
    snap_primal,
)
from aoiflow.lp import EQ, LE, OPTIMAL, LinearProgram
from aoiflow.maxflow import min_cost_prefixes, quickest_bound, shortest_delay
from aoiflow.mmd import PeriodScan, min_max_delay
from aoiflow.model import feasible_periods
from conftest import corpus_instance, make_fastslow_instance


def optimum(inst, period, bound):
    exp = build_expanded(inst, bound, period)
    program = build_flow_lp(exp).program
    sol = solve_lp(program)
    assert sol.status == OPTIMAL
    return program, sol


def assert_groups_within_bandwidth(exp, flow):
    loads = [F(0)] * len(exp.bandwidths)
    for idx, v in flow.items():
        if exp.links[idx].group >= 0:
            loads[exp.links[idx].group] += v
    assert all(load <= cap for load, cap in zip(loads, exp.bandwidths))


def test_fastslow_t7_m11_carries_batch():
    _, sol = optimum(make_fastslow_instance(), 7, 11)
    assert sol.objective_value >= 10


def test_fastslow_t7_m10_caps_at_seven():
    _, sol = optimum(make_fastslow_instance(), 7, 10)
    assert sol.objective_value == 7


def test_zero_bandwidth_gives_zero():
    net = network(["s", "r"], [("e", "s", "r", 1, 0)])
    inst = Instance(net, "s", "r", F(1), F(1), F(1))
    _, sol = optimum(inst, 1, 4)
    assert sol.objective_value == 0


def test_extract_zero_flow_empty():
    net = network(["s", "r"], [("e", "s", "r", 1, 0)])
    inst = Instance(net, "s", "r", F(1), F(1), F(1))
    _, sol = optimum(inst, 1, 4)
    assert extract_edge_flow(sol) == {}


def test_extract_flow_conserves_and_totals():
    inst = make_fastslow_instance()
    _, sol = optimum(inst, 10, 10)
    assert sol.objective_value >= 10
    exp = build_expanded(inst, 10, 10)
    flow = extract_edge_flow(sol)
    balance = {}
    for idx, v in flow.items():
        el = exp.links[idx]
        balance[el.tail] = balance.get(el.tail, F(0)) + v
        balance[el.head] = balance.get(el.head, F(0)) - v
    source, sink = exp.source, exp.sink
    assert (exp.node_of(source), exp.node_of(sink)) == (("s", 0), ("r", 10))
    for node, delta in balance.items():
        if node == source:
            assert delta == sol.objective_value
        elif node == sink:
            assert delta == -sol.objective_value
        else:
            assert delta == 0


def test_group_loads_within_bandwidth():
    inst = make_fastslow_instance()
    _, sol = optimum(inst, 7, 11)
    assert_groups_within_bandwidth(build_expanded(inst, 11, 7), extract_edge_flow(sol))


def test_capacity_groups_pin_rule_and_row_order():
    """`build_expanded` partitions the transit copies exactly by (link, push
    slot mod period) and numbers the groups link by link, residues
    ascending; the program's capacity rows come in that order, each capped
    by its link's bandwidth.  HiGHS's and the simplex's flows depend on that
    row order."""
    cases = [(make_fastslow_instance(), 11, 7)] + [
        (inst, bound, period)
        for inst in map(corpus_instance, range(40))
        for bound in (3, 8, 13)
        for period in range(1, inst.max_period + 2)
    ]
    for inst, bound, period in cases:
        exp = build_expanded(inst, bound, period)
        classes = {}
        for idx, el in enumerate(exp.links):
            if el.link_id is not None:
                classes.setdefault((el.link_id, el.push % period), []).append(idx)
            else:
                assert el.group == -1
        order = [link.id for link in inst.network.links]
        keys = sorted(classes, key=lambda k: (order.index(k[0]), k[1]))
        members = [[] for _ in exp.bandwidths]
        for idx, el in enumerate(exp.links):
            if el.group >= 0:
                members[el.group].append(idx)
        assert members == [classes[k] for k in keys]
        index = inst.network.link_index
        caps = [index[lid].bandwidth for lid, _ in keys]
        assert list(exp.bandwidths) == caps
        rows = build_flow_lp(exp).program.rows
        senses = [sense for _, _, sense in rows]
        assert senses == sorted(senses, key=lambda sense: sense == LE)
        assert [(c, rhs) for c, rhs, sense in rows if sense == LE] == [
            (dict.fromkeys(m, F(1)), cap) for m, cap in zip(members, caps)
        ]


def test_value_monotone_in_bound():
    inst = make_fastslow_instance()
    values = []
    for bound in range(1, 16):
        _, sol = optimum(inst, 7, bound)
        values.append(sol.objective_value)
    assert values == sorted(values)


def test_quickest_bound_by_hand():
    # fastslow: one unit per slot along d=1, ten along d=11
    net = make_fastslow_instance().network
    amounts = (1, 10, 11, 21, 22, 33)
    assert [quickest_bound(net, "s", "r", F(a)) for a in amounts] == [1, 10, 11, 11, 12, 13]
    # the second shortest path runs s-b, back over a-b, then a-r: 3 - 1 + 3
    net = network(
        ["s", "a", "b", "r"],
        [
            ("sa", "s", "a", 1, 1),
            ("ab", "a", "b", 1, 1),
            ("br", "b", "r", 1, 1),
            ("sb", "s", "b", 3, 1),
            ("ar", "a", "r", 3, 1),
        ],
    )
    assert [quickest_bound(net, "s", "r", F(a)) for a in range(1, 6)] == [3, 4, 5, 5, 6]
    assert quickest_bound(net, "r", "s", F(1)) is None


def test_quickest_bound_is_least_bound_without_sharing():
    """With a period past the last push every capacity group holds one copy,
    and that program first reaches the amount at the quickest bound.  The
    exact simplex decides the batch and a third of it.  Seven batches need
    bounds up to about 100, where the simplex takes up to five seconds a
    program (corpus seed 24: 1223 rows, 5.0 s on a 2-core machine, Python
    3.11.7), so the reference pusher decides those: on one-copy groups it
    is plain augmenting paths."""

    def lp_reaches(inst, bound, amount):
        exp = build_expanded(inst, bound, bound + 1)
        sol = solve_lp(build_flow_lp(exp).program)
        assert sol.status == OPTIMAL
        return sol.objective_value >= amount

    def pusher_reaches(inst, bound, amount):
        exp = build_expanded(inst, bound, bound + 1)
        return reference_group_augment(exp, inst, bound + 1, amount) is not None

    for seed in range(40):
        inst = corpus_instance(seed)
        batch = inst.batch
        for amount, reaches in [
            (batch, lp_reaches),
            (F(batch, 3), lp_reaches),
            (7 * batch, pusher_reaches),
        ]:
            bound = quickest_bound(inst.network, inst.sender, inst.receiver, amount)
            assert reaches(inst, bound, amount), (seed, amount)
            assert not reaches(inst, bound - 1, amount), (seed, amount)


def test_quickest_bound_is_never_feasible_below():
    checks = 0
    for seed in range(200):
        inst = corpus_instance(seed)
        bound = quickest_bound(inst.network, inst.sender, inst.receiver, inst.batch)
        for period in feasible_periods(inst):
            result = min_max_delay(inst, period)
            if result is None:
                continue
            assert bound <= result.max_delay, (seed, period)
            _, sol = optimum(inst, period, bound - 1)
            assert sol.objective_value < inst.batch, (seed, period)
            checks += 1
    assert checks == 251  # every feasible period of the corpus


def _route_copies(inst, bound):
    """Every copy over layers 0..bound that some (sender, 0) -> (receiver,
    bound) route uses, found by propagating forward and backward."""
    net = inst.network
    copies = [
        ((link.id, link.tail, i), (link.tail, i), (link.head, i + link.delay))
        for link in net.links
        for i in range(bound - link.delay + 1)
    ] + [
        ((None, v, i), (v, i), (v, i + 1)) for v in net.nodes for i in range(bound)
    ]
    ahead = {(inst.sender, 0)}
    for _, tail, head in sorted(copies, key=lambda c: c[1][1]):
        if tail in ahead:
            ahead.add(head)
    behind = {(inst.receiver, bound)}
    for _, tail, head in sorted(copies, key=lambda c: -c[2][1]):
        if head in behind:
            behind.add(tail)
    return {copy for copy in copies if copy[1] in ahead and copy[2] in behind}


def test_expansion_keeps_exactly_the_route_copies():
    for seed in range(40):
        inst = corpus_instance(seed)
        for bound in (0, 3, 6, 10, 14):
            exp = build_expanded(inst, bound, 1)
            kept = []
            for el in exp.links:
                tail, head = exp.node_of(el.tail), exp.node_of(el.head)
                kept.append(((el.link_id, tail[0], el.push), tail, head))
            assert len(kept) == len(set(kept))
            assert set(kept) == _route_copies(inst, bound), (seed, bound)


def test_group_augment_agrees_with_lp_when_it_succeeds():
    inst = make_fastslow_instance()
    for period, bound in [(7, 11), (10, 10), (8, 12)]:
        exp = build_expanded(inst, bound, period)
        flow = group_augment(exp).flow
        assert flow is not None
        assert_groups_within_bandwidth(exp, flow)
        total = sum(v for idx, v in flow.items() if exp.links[idx].tail == exp.source)
        assert total == inst.batch


def test_dual_certificate_only_fires_below_target():
    pytest.importorskip("scipy")
    inst = make_fastslow_instance()
    # M=10 caps at 7 < 10: certificate should prove it
    low, _ = optimum(inst, 7, 10)
    fr = _scipy_solve(low)
    assert certify_value_below(low, F(10), fr)
    assert not certify_value_below(low, F(7), fr)  # optimum == 7, not < 7
    # M=11 reaches 10: no certificate below 10 may exist
    high, _ = optimum(inst, 7, 11)
    fr = _scipy_solve(high)
    assert not certify_value_below(high, F(10), fr)


def test_primal_snap_refuses_what_breaks_a_row_or_falls_short():
    # maximize x0 subject to x0 + x1 + x2 = 2 and x0 <= 1; the optimum is 1
    program = LinearProgram(n_vars=3, objective=[F(1), F(0), F(0)])
    program.add_row({0: F(1), 1: F(1), 2: F(1)}, 2, EQ)
    program.add_row({0: F(1)}, 1, LE)

    def snap(*x):
        return snap_primal(program, F(1), {"x": list(x)})

    assert snap(1.0, 1.0 + 1e-9, -1e-9) == {0: 1, 1: 1}
    assert snap(2.0, 0.0, 0.0) is None  # over the cap
    assert snap(1.0, 2.0, -1.0) is None  # rows hold only with x2 negative
    assert snap(0.3, 1.7, 0.0) is None  # short of the target
    assert snap(float("nan"), 2.0, 0.0) is None


def test_probe_matches_reference_lp_on_corpus():
    for seed in range(6):
        inst = corpus_instance(seed)
        period = inst.max_period
        for bound in range(1, 13, 3):
            _, solution = PeriodScan(inst, period).settle(bound)
            _, sol = optimum(inst, period, bound)
            assert (solution is not None) == (sol.objective_value >= inst.batch)


def reference_group_augment(exp, inst, period, target):
    """The pusher with residual state keyed by link id and ``Fraction``
    comparisons in its search, kept as a reference for `group_augment`."""
    source, sink = exp.source, exp.sink
    assert exp.node_of(source) == (inst.sender, 0)
    assert exp.node_of(sink) == (inst.receiver, exp.bound)
    bandwidth = inst.network.link_index

    out_adj = defaultdict(list)
    in_adj = defaultdict(list)
    group_of = {}
    group_resid = {}
    for idx, el in enumerate(exp.links):
        out_adj[el.tail].append(idx)
        in_adj[el.head].append(idx)
        if el.link_id is not None:
            g = (el.link_id, el.push % period)
            group_of[idx] = g
            group_resid.setdefault(g, bandwidth[el.link_id].bandwidth)

    flow = defaultdict(F)
    value = F(0)
    for _ in range(3 * len(exp.links) + 64):
        if value >= target:
            return dict(flow)
        parent = {source: (-1, True)}
        queue = deque([source])
        while queue and sink not in parent:
            node = queue.popleft()
            for idx in out_adj.get(node, []):
                el = exp.links[idx]
                if el.head in parent:
                    continue
                g = group_of.get(idx)
                if g is None or group_resid[g] > 0:
                    parent[el.head] = (idx, True)
                    queue.append(el.head)
            for idx in in_adj.get(node, []):
                el = exp.links[idx]
                if el.tail in parent or flow[idx] <= 0:
                    continue
                parent[el.tail] = (idx, False)
                queue.append(el.tail)
        if sink not in parent:
            return None
        arcs = []
        node = sink
        while node != source:
            idx, forward = parent[node]
            arcs.append((idx, forward))
            el = exp.links[idx]
            node = el.tail if forward else el.head
        usage = defaultdict(int)
        bottleneck = target - value
        for idx, forward in arcs:
            if not forward:
                bottleneck = min(bottleneck, flow[idx])
            g = group_of.get(idx)
            if g is not None:
                usage[g] += 1 if forward else -1
        for g, uses in usage.items():
            if uses > 0:
                bottleneck = min(bottleneck, group_resid[g] / uses)
        if bottleneck <= 0:
            return None
        for idx, forward in arcs:
            g = group_of.get(idx)
            if forward:
                flow[idx] += bottleneck
                if g is not None:
                    group_resid[g] -= bottleneck
            else:
                flow[idx] -= bottleneck
                if g is not None:
                    group_resid[g] += bottleneck
        value += bottleneck
    return None


def test_group_augment_matches_reference():
    """Same verdict and same positive flow at every period and at every bound
    the delay search can probe, on the corpus and on scaled complete-4
    instances, whose augmenting paths cancel flow on backward arcs."""
    instances = [corpus_instance(seed) for seed in range(40)] + [
        scaled_instance(generate(complete_graph(4, seed)), "a1", "a4", 5)
        for seed in range(3)
    ]
    outcomes = set()
    for inst in instances:
        net = inst.network
        low = shortest_delay(net, inst.sender)[inst.receiver]
        last = min_cost_prefixes(net, inst.sender, inst.receiver)[-1]
        paths = sorted(zip(last.delays, (rate for _, rate in last.paths)))
        for period in feasible_periods(inst):
            # the last prefix's paths carrying rate D/T, fastest first: their
            # slowest departs at offset T - 1 and arrives at the top bound T - 1 + d*
            carried, top = F(0), None
            for delay, rate in paths:
                carried += rate
                if carried >= F(inst.batch, period):
                    top = period - 1 + delay
                    break
            if top is None:
                continue
            for bound in range(low, top + 1):
                exp = build_expanded(inst, bound, period)
                got = group_augment(exp).flow
                want = reference_group_augment(exp, inst, period, inst.batch)
                if want is not None:
                    want = {idx: v for idx, v in want.items() if v > 0}
                assert got == want, (inst.network.nodes, period, bound)
                outcomes.add(got is None)
    assert outcomes == {True, False}
