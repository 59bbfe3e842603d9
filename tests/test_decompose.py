"""`mmd.decompose` against the peeler it replaced, on arbitrary conserving flows.

The engines hand `decompose` only the flows they find; here the flows are
sums of random source -> sink walks through pruned expansions, which wander
back to physical nodes they have left far more often than an engine's flow
does.  The reference below is the earlier two-pass peeler: sorted support
lists, and loop erasure by restarting the scan after every detour.  It
keeps every hold as the flow has it, where `decompose` shortens each hold
below the period; the tests after it pin that shortening on walks held a
chosen number of slots.
"""

import random
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from aoiflow import Instance, build_expanded, decompose, network, validate_solution
from aoiflow.maxflow import shortest_delay
from aoiflow.model import PeriodicSolution, ScheduleEntry, residue_loads
from conftest import corpus_instance


def reference_decompose(exp, edge_flow):
    source, sink = exp.source, exp.sink
    work = {idx: v for idx, v in edge_flow.items() if v > 0}
    out_sup, in_sup = {}, {}
    for idx in work:
        el = exp.links[idx]
        out_sup.setdefault(el.tail, []).append(idx)
        in_sup.setdefault(el.head, []).append(idx)
    for adj in (out_sup, in_sup):
        for links in adj.values():
            links.sort()

    def first_positive(cands):
        return next(idx for idx in cands if work.get(idx, 0) > 0)

    entries = []
    remaining = exp.inst.batch
    while remaining > 0 and work:
        seed = min(work.items(), key=lambda kv: (kv[1], kv[0]))[0]
        path = [seed]
        node = exp.links[seed].tail
        while node != source:
            idx = first_positive(in_sup.get(node, []))
            path.insert(0, idx)
            node = exp.links[idx].tail
        node = exp.links[seed].head
        while node != sink:
            idx = first_positive(out_sup.get(node, []))
            path.append(idx)
            node = exp.links[idx].head
        amount = min(min(work[idx] for idx in path), remaining)
        for idx in path:
            work[idx] -= amount
            if work[idx] == 0:
                del work[idx]
        entries.append(reference_collapse(exp, path, amount))
        remaining -= amount
    return PeriodicSolution(exp.period, tuple(entries))


def reference_collapse(exp, path, amount):
    hops = []  # (physical link id, arrival layer)
    for idx in path:
        el = exp.links[idx]
        if el.link_id is not None:
            hops.append((el.link_id, exp.node_of(el.head)[1]))
    nodes = [exp.node_of(exp.links[path[0]].tail)[0]]
    for idx in path:
        el = exp.links[idx]
        if el.link_id is not None:
            nodes.append(exp.node_of(el.head)[0])
    changed = True
    while changed:
        changed = False
        seen = {}
        for pos, v in enumerate(nodes):
            if v in seen:
                i = seen[v]
                del hops[i:pos]
                del nodes[i + 1 : pos + 1]
                changed = True
                break
            seen[v] = pos
    offsets = (0,) + tuple(layer for _, layer in hops)
    return ScheduleEntry(tuple(h for h, _ in hops), offsets, amount)


def assert_same_up_to_holds(net, got, raw):
    # the same links and amount, the same push residues and every hold
    # below the period fix an entry's offsets uniquely, so this is exactly
    # as strong as comparing with the reference's holds shortened
    period = got.period
    assert period == raw.period and len(got.entries) == len(raw.entries)
    for a, b in zip(got.entries, raw.entries):
        assert (a.links, a.amount) == (b.links, b.amount)
        pushes = a.push_offsets(net)
        assert [p % period for p in pushes] == [p % period for p in b.push_offsets(net)]
        assert all(0 <= p - u < period for p, u in zip(pushes, a.offsets))


def random_walk(exp, rng):
    """Expanded link indices of a uniform random source -> sink walk.

    Every link of a pruned expansion lies on a source -> sink route, so the
    walk never gets stuck."""
    walk, node = [], exp.source
    while node != exp.sink:
        walk.append(rng.choice(exp.out_links[node]))
        node = exp.links[walk[-1]].head
    return walk


def test_decompose_matches_reference_on_random_walk_flows():
    rng = random.Random(20)
    flows = revisits = shortened = 0
    for seed in range(200):
        inst = corpus_instance(seed)
        low = shortest_delay(inst.network, inst.sender).get(inst.receiver)
        if low is None:
            continue
        for _ in range(8):
            exp = build_expanded(inst, low + rng.randint(0, 8), inst.min_period)
            flow = {}
            for _ in range(rng.randint(1, 5)):
                walk = random_walk(exp, rng)
                nodes = [inst.sender] + [
                    exp.node_of(exp.links[idx].head)[0]
                    for idx in walk
                    if exp.links[idx].link_id is not None
                ]
                revisits += len(nodes) != len(set(nodes))
                amount = inst.batch * F(rng.randint(1, 6), rng.randint(2, 8))
                for idx in walk:
                    flow[idx] = flow.get(idx, 0) + amount
            got = decompose(exp, flow)
            raw = reference_decompose(exp, flow)
            assert_same_up_to_holds(inst.network, got, raw)
            flows += 1
            shortened += got != raw
    assert flows == 1600 and revisits > 200, (flows, revisits)
    assert shortened > 0


def test_decompose_erases_nested_detours():
    # s -> a -> b -> c -> b -> a -> r: erasing the detour at b, then the one
    # at a, leaves s -> a held from slot 1 until the push onto a -> r at 5
    hops = [("sa", "s", "a"), ("ab", "a", "b"), ("bc", "b", "c")]
    hops += [("cb", "c", "b"), ("ba", "b", "a"), ("ar", "a", "r")]
    net = network(["s", "a", "b", "c", "r"], [(i, t, h, 1, 1) for i, t, h in hops])
    inst = Instance(net, "s", "r", F(1), F(1, 6), F(1, 6))
    exp = build_expanded(inst, 6, 6)
    by_key = {(el.link_id, el.push): i for i, el in enumerate(exp.links)}
    flow = {by_key[(link_id, push)]: 1 for push, (link_id, _, _) in enumerate(hops)}
    sol = decompose(exp, flow)
    assert sol == reference_decompose(exp, flow)
    assert sol.entries == (ScheduleEntry(("sa", "ar"), (0, 1, 6), 1),)


def held_walk(exp, hops, amount, flow=None):
    """``flow`` plus ``amount`` along ``hops``, (link id, push slot) pairs,
    held at each node until its next push and at the receiver until the
    bound."""
    transit = {(el.link_id, el.push): i for i, el in enumerate(exp.links)}
    holding = {el.tail: i for i, el in enumerate(exp.links) if el.link_id is None}
    flow = {} if flow is None else flow
    node = exp.source
    for copy in [transit[hop] for hop in hops] + [None]:
        end = exp.sink if copy is None else exp.links[copy].tail
        while node != end:
            idx = holding[node]
            flow[idx] = flow.get(idx, 0) + amount
            node = exp.links[idx].head
        if copy is not None:
            flow[copy] = flow.get(copy, 0) + amount
            node = exp.links[copy].head
    return flow


def single_link_instance(period):
    net = network(["s", "r"], [("e", "s", "r", 1, 10)])
    return Instance(net, "s", "r", F(3), F(3, period), F(3, period))


def test_decompose_shortens_a_long_sender_hold():
    # pushed at slot 4 of period 3: pushing at slot 1 instead meets the same
    # capacity group and delivers a period earlier
    inst = single_link_instance(3)
    exp = build_expanded(inst, 5, 3)
    sol = decompose(exp, held_walk(exp, [("e", 4)], F(1)))
    assert sol.period == exp.period == 3
    assert sol.entries == (ScheduleEntry(("e",), (0, 2), F(1)),)


def test_decompose_keeps_a_hold_below_the_period():
    # held 2 slots at period 3: no earlier slot of its residue class exists
    inst = single_link_instance(3)
    exp = build_expanded(inst, 5, 3)
    sol = decompose(exp, held_walk(exp, [("e", 2)], F(1)))
    assert sol.entries == (ScheduleEntry(("e",), (0, 3), F(1)),)


def test_decompose_keeps_a_held_entry_beside_a_shortened_one():
    # one entry held 2 slots keeps its offsets, while the other, held 3,
    # comes down a whole period
    inst = single_link_instance(3)
    exp = build_expanded(inst, 5, 3)
    flow = held_walk(exp, [("e", 2)], F(1))
    flow = held_walk(exp, [("e", 3)], F(2), flow)
    sol = decompose(exp, flow)
    assert set(sol.entries) == {
        ScheduleEntry(("e",), (0, 3), F(1)),
        ScheduleEntry(("e",), (0, 1), F(2)),
    }


def test_decompose_shortens_both_hops_of_an_entry():
    # held 2 slots at the sender and 4 at m, at period 2: each hop pushes
    # in its residue class as soon as the data is there
    net = network(["s", "m", "r"], [("e1", "s", "m", 1, 1), ("e2", "m", "r", 1, 1)])
    inst = Instance(net, "s", "r", F(1), F(1, 2), F(1, 2))
    exp = build_expanded(inst, 8, 2)
    sol = decompose(exp, held_walk(exp, [("e1", 2), ("e2", 7)], F(1)))
    assert sol.entries == (ScheduleEntry(("e1", "e2"), (0, 1, 2), F(1)),)
    ok, max_delay, violations = validate_solution(inst, sol)
    assert ok and max_delay == 2, violations


@given(
    delay=st.integers(1, 5),
    hold1=st.integers(0, 40),
    hold2=st.integers(0, 40),
    period=st.integers(1, 8),
)
@settings(max_examples=80, deadline=None)
def test_decompose_holds_stay_below_the_period(delay, hold1, hold2, period):
    net = network(
        ["s", "m", "r"],
        [("e1", "s", "m", delay, 10), ("e2", "m", "r", delay, 10)],
    )
    inst = Instance(net, "s", "r", F(2), F(2, 8), F(2))
    push1, push2 = hold1, hold1 + delay + hold2
    raw = PeriodicSolution(
        period, (ScheduleEntry(("e1", "e2"), (0, push1 + delay, push2 + delay), F(2)),)
    )
    exp = build_expanded(inst, raw.max_delay, period)
    sol = decompose(exp, held_walk(exp, [("e1", push1), ("e2", push2)], F(2)))
    assert_same_up_to_holds(net, sol, raw)
    assert sol.max_delay <= raw.max_delay
    # push residues are unchanged, so every capacity group keeps its load
    assert residue_loads(net, sol) == residue_loads(net, raw)
    # and a walk along the shortened entry peels back into it
    (entry,) = sol.entries
    walk = held_walk(exp, list(zip(entry.links, entry.push_offsets(net))), F(2))
    assert decompose(exp, walk) == sol
