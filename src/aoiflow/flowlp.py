"""The expanded-network flow program and fast feasibility probes.

The core question answered here: can at least ``target`` units travel from
(sender, 0) to (receiver, M) in the expansion built for bound M while every
capacity group (one physical link, one push-residue class) stays within its
bandwidth?  That expansion already holds only the copies on such a route, so
the program has one variable per expanded link.  The expansion also owns the
source, the sink, the adjacency and the capacity groups, which
`build_expanded` numbers for the probe's period as it emits the copies; the
program, the pusher and the residual cut all read them there.

`mmd` never probes below the batch's quickest flow time, the bound at
which even the program without shared groups falls short.  Past the
temporally repeated flow (`mmd.temporally_repeated`), bounds are settled in
this order, every answer certified with exact arithmetic:

* the period cut (`period_cut`): a static max flow on the physical network
  whose links carry their bandwidth once per push residue among their
  copies bounds the program's value from above ("no" answers, with no
  expansion built at all),
* then, on the bound's expansion (`probe_reaches`), an augmenting-path
  pusher on the group-capacitated residual graph (fast "yes" answers with
  an exact witness flow),
* the residual cut of a stalled pusher: every link copy leaving the node set
  its last search reached belongs to a full capacity group, so the
  bandwidths of those groups bound the program's value ("no" answers),
* one float LP solve (scipy/HiGHS), snapped to small rationals and
  re-verified exactly: its dual certifies "no" answers, and its primal,
  when every row and the target hold exactly, is a "yes" witness flow,
* the exact rational simplex `lp.solve_lp`, which is the reference
  semantics and the fallback whenever the quick engines cannot certify.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .expander import ExpandedNetwork, push_slots, route_distances
from .lp import (
    EQ,
    LE,
    OPTIMAL,
    LinearProgram,
    LpSolution,
    solve_lp,
    violated_row,
)
from .maxflow import max_flow
from .model import Instance, Rational


@dataclass
class FlowLp:
    """A built flow program; variable j is the flow on the expansion's link j."""

    program: LinearProgram


def build_flow_lp(exp: ExpandedNetwork) -> FlowLp:
    """Max-throughput program over layers 0..exp.bound.

    One variable per expanded link; the objective is total outflow of the
    source; source outflow equals sink inflow; flow conserves everywhere
    else; each of the expansion's capacity groups, in their order, is
    limited by its link bandwidth.  Holding links are uncapacitated.
    """
    out_at, in_at = exp.out_links, exp.in_links
    n = len(exp.links)
    objective = [Fraction(0)] * n
    for j in out_at.get(exp.source, []):
        objective[j] = Fraction(1)

    lp = LinearProgram(n_vars=n, objective=objective)

    balance = {j: Fraction(1) for j in out_at.get(exp.source, [])}
    for j in in_at.get(exp.sink, []):
        balance[j] = balance.get(j, Fraction(0)) - 1
    lp.add_row(balance, Fraction(0), EQ)

    for node in sorted(set(out_at) | set(in_at)):
        if node == exp.source or node == exp.sink:
            continue
        coeffs: dict[int, Fraction] = {}
        for j in out_at.get(node, []):
            coeffs[j] = coeffs.get(j, Fraction(0)) + 1
        for j in in_at.get(node, []):
            coeffs[j] = coeffs.get(j, Fraction(0)) - 1
        lp.add_row(coeffs, Fraction(0), EQ)

    members: list[dict[int, Fraction]] = [{} for _ in exp.bandwidths]
    for j, el in enumerate(exp.links):
        if el.group >= 0:
            members[el.group][j] = Fraction(1)
    for coeffs, cap in zip(members, exp.bandwidths):
        lp.add_row(coeffs, cap, LE)

    return FlowLp(program=lp)


def extract_edge_flow(sol: LpSolution) -> dict[int, Fraction]:
    """Map a solved program back onto expanded links (nonzero flow only)."""
    return {j: v for j, v in enumerate(sol.values) if v > 0}


# ---------------------------------------------------------------------------
# engine 1: a cut of the physical network


def period_cut(inst: Instance, period: int, bound: int) -> Rational:
    """Upper bound on the value of the program at ``bound`` and ``period``.

    Give each physical link with c > 0 transit copies on some (sender, 0)
    -> (receiver, bound) route (`push_slots`, the copies `build_expanded`
    emits) the capacity bandwidth * min(period, c), drop the links without
    a copy, and take the static max flow from sender to receiver.  No
    expansion is built.  Sound: c consecutive push slots fall in
    min(period, c) residues mod the period, the link's capacity groups, so
    the program moves at most that capacity over the link's copies.  For
    any node set S holding the sender and not the receiver, every expanded
    route uses a transit copy of some link leaving S, while holding links
    never leave S, since they stay at one node.  So the program's value is
    at most the capacity of the links leaving S, and by max-flow/min-cut
    the least such total over all S is the static max flow.
    """
    dist_s, dist_r = route_distances(inst)
    capacity: dict[str, Rational] = {}
    for link in inst.network.links:
        copies = len(push_slots(link, bound, dist_s, dist_r))
        if copies > 0:
            capacity[link.id] = link.bandwidth * min(period, copies)
    return max_flow(inst.network, inst.sender, inst.receiver, capacity)[1]


# ---------------------------------------------------------------------------
# engine 2: exact augmentation with shared group capacities, and its cut


class Push(NamedTuple):
    """What `group_augment` ended with."""

    flow: dict[int, Rational] | None  # pushes exactly the target; None if stalled
    reached: set[int] | None  # nodes the last search reached, when it missed the sink


def group_augment(exp: ExpandedNetwork, target: Rational) -> Push:
    """Push exactly ``target`` units with augmenting paths.

    Residual capacity of a transit copy is its whole group's remaining
    bandwidth, so a path using several copies of one group is throttled by
    the group's residual divided by the number of uses, a `Fraction` unless
    there is one use.  Shared capacities mean a stall does not prove
    infeasibility; when the stall is a search that missed the sink, the
    nodes it reached feed `residual_cut`.
    """
    source, sink = exp.source, exp.sink
    out_adj, in_adj = exp.out_links, exp.in_links

    # residual state by integer index: group_of[idx] is the link's capacity
    # group (-1 for holding), open_group[g] says whether group g has room
    links = exp.links
    heads = [el.head for el in links]
    tails = [el.tail for el in links]
    group_of = [el.group for el in links]
    group_resid = list(exp.bandwidths)
    open_group = [r > 0 for r in group_resid]

    flow: dict[int, Rational] = {}  # positive entries only
    value = 0
    max_rounds = 3 * len(links) + 64
    for _ in range(max_rounds):
        if value >= target:
            return Push(flow, None)
        parent: dict[int, tuple[int, bool]] = {source: (-1, True)}
        queue = deque([source])
        while queue and sink not in parent:
            node = queue.popleft()
            for idx in out_adj.get(node, ()):
                head = heads[idx]
                if head in parent:
                    continue
                g = group_of[idx]
                if g < 0 or open_group[g]:
                    parent[head] = (idx, True)
                    queue.append(head)
            for idx in in_adj.get(node, ()):
                tail = tails[idx]
                if tail in parent or idx not in flow:
                    continue
                parent[tail] = (idx, False)
                queue.append(tail)
        if sink not in parent:
            return Push(None, set(parent))
        # trace the path; tally per-group net usage for the bottleneck
        arcs: list[tuple[int, bool]] = []
        node = sink
        while node != source:
            idx, forward = parent[node]
            arcs.append((idx, forward))
            node = tails[idx] if forward else heads[idx]
        # every term is positive: a backward arc carries flow, and a group in
        # net use has a forward arc, which the search admits only while open
        usage: dict[int, int] = defaultdict(int)
        bottleneck = target - value
        for idx, forward in arcs:
            if not forward:
                bottleneck = min(bottleneck, flow[idx])
            g = group_of[idx]
            if g >= 0:
                usage[g] += 1 if forward else -1
        for g, uses in usage.items():
            if uses > 0:
                share = group_resid[g] if uses == 1 else Fraction(group_resid[g], uses)
                bottleneck = min(bottleneck, share)
        for idx, forward in arcs:
            g = group_of[idx]
            if forward:
                flow[idx] = flow.get(idx, 0) + bottleneck
                if g >= 0:
                    group_resid[g] -= bottleneck
            else:
                left = flow[idx] - bottleneck
                if left > 0:
                    flow[idx] = left
                else:
                    del flow[idx]
                if g >= 0:
                    group_resid[g] += bottleneck
            if g >= 0:
                open_group[g] = group_resid[g] > 0
        value += bottleneck
    return Push(None, None)


def residual_cut(exp: ExpandedNetwork, reached: set[int]) -> Rational:
    """Upper bound on the program's value from a source-side node set.

    ``reached`` holds the source and not the sink, so every feasible flow's
    value is its net flow out of ``reached``, at most the flow on the copies
    leaving it, at most the bandwidths of the groups those copies belong to.
    Precondition: no uncapacitated holding link leaves ``reached``, as in
    the set `group_augment` hands over: its search follows every one.
    """
    full = {
        el.group for el in exp.links if el.tail in reached and el.head not in reached
    }
    return sum(exp.bandwidths[g] for g in full)


# ---------------------------------------------------------------------------
# engine 3: float solve with exact dual and primal certification

_SNAP_DENOMINATORS = (1, 2, 4, 8, 24, 120, 5040, 1 << 20)


def _snaps(values, clamped):
    """``values`` snapped to each of `_SNAP_DENOMINATORS` in turn, entries
    whose ``clamped`` flag is set raised to at least 0; none once an entry
    is not finite."""
    for denom in _SNAP_DENOMINATORS:
        try:
            snapped = [Fraction(v).limit_denominator(denom) for v in values]
        except (ValueError, OverflowError):
            return
        yield [max(Fraction(0), v) if c else v for v, c in zip(snapped, clamped)]


def _scipy_solve(flow_lp: FlowLp):
    """HiGHS's value, primal and duals (in ``program.rows`` order), or None."""
    try:
        import numpy as np
        from scipy.optimize import linprog
        from scipy.sparse import csr_matrix
    except ImportError:  # pragma: no cover - scipy is a declared dependency
        return None
    lp = flow_lp.program

    def arrays(sense):
        rows = [(coeffs, rhs) for coeffs, rhs, s in lp.rows if s == sense]
        data, ri, ci = [], [], []
        for i, (coeffs, _) in enumerate(rows):
            for j, c in coeffs.items():
                ri.append(i)
                ci.append(j)
                data.append(float(c))
        matrix = csr_matrix((data, (ri, ci)), shape=(len(rows), lp.n_vars))
        return matrix, np.array([float(rhs) for _, rhs in rows])

    a_eq, b_eq = arrays(EQ)
    a_ub, b_ub = arrays(LE)
    c = np.array([-float(v) for v in lp.objective])
    res = linprog(
        c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs"
    )
    if res.status != 0:
        return None
    # HiGHS minimizes -c.x, so the max program's duals are its negated
    # marginals, put back in row order
    marginals = {EQ: iter(res.eqlin.marginals), LE: iter(res.ineqlin.marginals)}
    duals = [-next(marginals[sense]) for _, _, sense in lp.rows]
    return {"value": -res.fun, "x": list(res.x), "duals": duals}


def certify_value_below(flow_lp: FlowLp, target: Fraction, float_result) -> bool:
    """Try to prove optimum < target from snapped float duals, exactly.

    For max c.x with A_eq x = b_eq, A_ub x <= b_ub, x >= 0: any y (free),
    z >= 0 with A_eq'y + A_ub'z >= c bounds the optimum by y.b_eq + z.b_ub.
    """
    lp = flow_lp.program
    clamped = [sense == LE for _, _, sense in lp.rows]
    for duals in _snaps(float_result["duals"], clamped):
        lhs = [Fraction(0)] * lp.n_vars
        bound = Fraction(0)
        for (coeffs, rhs, _), y in zip(lp.rows, duals):
            if y:
                bound += y * rhs
                for j, c in coeffs.items():
                    lhs[j] += y * c
        if bound < target and all(l >= c for l, c in zip(lhs, lp.objective)):
            return True
    return False


def snap_primal(
    flow_lp: FlowLp, target: Fraction, float_result
) -> dict[int, Fraction] | None:
    """A flow worth at least target from the snapped float primal, or None.

    Negative entries clamp to zero; the first denominator whose snap passes
    every row of the program exactly and reaches target wins.
    """
    lp = flow_lp.program
    for x in _snaps(float_result["x"], [True] * lp.n_vars):
        value = sum((x[j] * c for j, c in enumerate(lp.objective) if c), Fraction(0))
        if value >= target and violated_row(lp, x) is None:
            return {j: v for j, v in enumerate(x) if v > 0}
    return None


# ---------------------------------------------------------------------------
# combined probe


@dataclass
class ProbeAnswer:
    flow: dict[int, Rational] | None  # a value-target witness; None when refuted
    engine: str


def probe_reaches(exp: ExpandedNetwork, target: Rational) -> ProbeAnswer:
    """Exact answer to "does the flow program at exp.bound reach target?".

    `mmd` asks only once the temporally repeated flow and the period cut
    have left the bound open.  The pusher, its residual cut, the float solve
    and the simplex run in that order on the expansion's capacity groups.
    On an expansion without links (the receiver is farther than the bound)
    the pusher's search reaches the source alone, whose residual cut is 0.
    """
    push = group_augment(exp, target)
    if push.flow is not None:
        return ProbeAnswer(push.flow, "augment")
    if push.reached is not None and residual_cut(exp, push.reached) < target:
        return ProbeAnswer(None, "residual-cut")

    flow_lp = build_flow_lp(exp)

    # one float solve settles most stalls either way, once its snapped dual
    # or primal passes an exact check, without an exact optimality proof
    float_result = _scipy_solve(flow_lp)
    if float_result is not None:
        if float_result["value"] < float(target) - 1e-6:
            if certify_value_below(flow_lp, target, float_result):
                return ProbeAnswer(None, "dual-certificate")
        else:
            flow = snap_primal(flow_lp, target, float_result)
            if flow is not None:
                return ProbeAnswer(flow, "primal-snap")

    sol = solve_lp(flow_lp.program)
    if sol.status != OPTIMAL:  # zero flow is always feasible, caps are finite
        raise AssertionError(f"flow program reported {sol.status}")
    if sol.objective_value >= target:
        return ProbeAnswer(extract_edge_flow(sol), "simplex")
    return ProbeAnswer(None, "simplex")
