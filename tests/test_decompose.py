"""`mmd.decompose` against the peeler it replaced, on arbitrary conserving flows.

The engines hand `decompose` only the flows they find; here the flows are
sums of random source -> sink walks through pruned expansions, which wander
back to physical nodes they have left far more often than an engine's flow
does.  The reference below is the earlier two-pass peeler: sorted support
lists, and loop erasure by restarting the scan after every detour.
"""

import random
from fractions import Fraction as F

from aoiflow import Instance, build_expanded, decompose, network
from aoiflow.maxflow import shortest_delay
from aoiflow.model import PeriodicSolution, ScheduleEntry
from conftest import corpus_instance


def reference_decompose(exp, edge_flow, inst, period):
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
    remaining = inst.batch
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
    return PeriodicSolution(period, tuple(entries))


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
    flows = revisits = 0
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
            period = inst.min_period
            assert decompose(exp, flow, inst, period) == reference_decompose(
                exp, flow, inst, period
            ), (seed, exp.bound, flow)
            flows += 1
    assert flows == 1600 and revisits > 200, (flows, revisits)


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
    sol = decompose(exp, flow, inst, 6)
    assert sol == reference_decompose(exp, flow, inst, 6)
    assert sol.entries == (ScheduleEntry(("sa", "ar"), (0, 1, 6), 1),)
