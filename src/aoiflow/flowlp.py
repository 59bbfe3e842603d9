"""The expanded-network flow program and fast feasibility probes.

The core question answered here: can at least ``target`` units travel from
(sender, 0) to (receiver, M) in the expansion built for bound M while every
capacity group (one physical link, one push-residue class) stays within its
bandwidth?  That expansion already holds only the copies on such a route, so
the program has one variable per expanded link.

`mmd` never probes below the batch's quickest flow time, the bound at
which even the program without shared groups falls short.  Probes are
settled in this order, every answer certified with exact arithmetic:

* an augmenting-path pusher on the group-capacitated residual graph (fast
  "yes" answers with an exact witness flow),
* the residual cut of a stalled pusher: every link copy leaving the node set
  its last search reached belongs to a full capacity group, so the
  bandwidths of those groups bound the program's value ("no" answers),
* one float LP solve (scipy/HiGHS), snapped to small rationals and
  re-verified exactly: its dual certifies "no" answers, and its primal,
  when every row and the target hold exactly, is a "yes" witness flow,
* the exact rational simplex from `lp`, which is the reference semantics and
  the fallback whenever the quick engines cannot certify.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .expander import ExpandedNetwork, LinkGroup, TRANSIT, link_groups
from .lp import (
    EQ,
    LE,
    OPTIMAL,
    TARGET_REACHED,
    LinearProgram,
    LpSolution,
    solve_lp_reaching,
    violated_row,
)
from .model import Instance


@dataclass
class FlowLp:
    """A built flow program; variable j is the flow on ``exp.links[j]``."""

    program: LinearProgram
    exp: ExpandedNetwork
    source: int
    sink: int


def build_flow_lp(
    exp: ExpandedNetwork, groups: list[LinkGroup], inst: Instance
) -> FlowLp:
    """Max-throughput program over layers 0..exp.bound.

    One variable per expanded link; the objective is total outflow of the
    sender's layer-0 copy; sender outflow equals receiver layer-``bound``
    inflow; flow conserves everywhere else; each capacity group is limited by
    its link bandwidth.  Holding links are uncapacitated.
    """
    source = exp.node_id(inst.sender, 0)
    sink = exp.node_id(inst.receiver, exp.bound)

    n = len(exp.links)
    objective = [Fraction(0)] * n
    out_at: dict[int, list[int]] = defaultdict(list)
    in_at: dict[int, list[int]] = defaultdict(list)
    for j, el in enumerate(exp.links):
        out_at[el.tail].append(j)
        in_at[el.head].append(j)
    for j in out_at.get(source, []):
        objective[j] = Fraction(1)

    lp = LinearProgram(n_vars=n, objective=objective)

    balance = {j: Fraction(1) for j in out_at.get(source, [])}
    for j in in_at.get(sink, []):
        balance[j] = balance.get(j, Fraction(0)) - 1
    lp.add_row(balance, Fraction(0), EQ)

    touched = sorted(set(out_at) | set(in_at))
    for node in touched:
        if node == source or node == sink:
            continue
        coeffs: dict[int, Fraction] = {}
        for j in out_at.get(node, []):
            coeffs[j] = coeffs.get(j, Fraction(0)) + 1
        for j in in_at.get(node, []):
            coeffs[j] = coeffs.get(j, Fraction(0)) - 1
        if coeffs:
            lp.add_row(coeffs, Fraction(0), EQ)

    bandwidth = inst.network.link_index
    for group in groups:
        lp.add_row(
            {j: Fraction(1) for j in group.members},
            bandwidth[group.link_id].bandwidth,
            LE,
        )

    return FlowLp(program=lp, exp=exp, source=source, sink=sink)


def extract_edge_flow(flow_lp: FlowLp, sol: LpSolution) -> dict[int, Fraction]:
    """Map a solved program back onto expanded links (nonzero flow only)."""
    return {j: v for j, v in enumerate(sol.values) if v > 0}


# ---------------------------------------------------------------------------
# engine 1: exact augmentation with shared group capacities, and its cut


class Push(NamedTuple):
    """What `group_augment` ended with."""

    flow: dict[int, Fraction] | None  # pushes exactly the target; None if stalled
    reached: set[int] | None  # nodes the last search reached, when it missed the sink


def group_augment(
    exp: ExpandedNetwork,
    inst: Instance,
    period: int,
    target: Fraction,
) -> Push:
    """Push exactly ``target`` units with augmenting paths.

    Residual capacity of a transit copy is its whole group's remaining
    bandwidth, so a path using several copies of one group is throttled by
    the group's residual divided by the number of uses.  Shared capacities
    mean a stall does not prove infeasibility; when the stall is a search
    that missed the sink, the nodes it reached feed `residual_cut`.
    """
    source = exp.node_id(inst.sender, 0)
    sink = exp.node_id(inst.receiver, exp.bound)
    bandwidth = inst.network.link_index

    # residual state by integer index: group_of[idx] is the link's capacity
    # group (-1 for holding), open_group[g] says whether group g has room
    links = exp.links
    heads = [el.head for el in links]
    tails = [el.tail for el in links]
    out_adj: dict[int, list[int]] = defaultdict(list)
    in_adj: dict[int, list[int]] = defaultdict(list)
    group_index: dict[tuple[str, int], int] = {}
    group_of: list[int] = []
    group_resid: list[Fraction] = []
    for idx, el in enumerate(links):
        out_adj[el.tail].append(idx)
        in_adj[el.head].append(idx)
        g = -1
        if el.kind == TRANSIT:
            key = (el.link_id, el.push % period)
            g = group_index.get(key, -1)
            if g < 0:
                g = group_index[key] = len(group_resid)
                group_resid.append(bandwidth[el.link_id].bandwidth)
        group_of.append(g)
    open_group = [r > 0 for r in group_resid]

    flow: dict[int, Fraction] = {}  # positive entries only
    value = Fraction(0)
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
                bottleneck = min(bottleneck, group_resid[g] / uses)
        if bottleneck <= 0:
            return Push(None, None)
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


def residual_cut(
    exp: ExpandedNetwork, inst: Instance, period: int, reached: set[int]
) -> Fraction | None:
    """Upper bound on the program's value from a source-side node set.

    ``reached`` holds the source and not the sink, so every feasible flow's
    value is its net flow out of ``reached``, at most the flow on the copies
    leaving it, at most the bandwidths of the groups those copies belong to.
    None when an uncapacitated holding link leaves the set.
    """
    groups: set[tuple[str, int]] = set()
    for el in exp.links:
        if el.tail in reached and el.head not in reached:
            if el.kind != TRANSIT:
                return None
            groups.add((el.link_id, el.push % period))
    bandwidth = inst.network.link_index
    return sum((bandwidth[lid].bandwidth for lid, _ in groups), Fraction(0))


# ---------------------------------------------------------------------------
# engine 2: float solve with exact dual and primal certification

_SNAP_DENOMINATORS = (1, 2, 4, 8, 24, 120, 5040, 1 << 20)


def _scipy_solve(flow_lp: FlowLp):
    try:
        import numpy as np
        from scipy.optimize import linprog
        from scipy.sparse import csr_matrix
    except ImportError:  # pragma: no cover - scipy is a declared dependency
        return None
    lp = flow_lp.program
    eq_rows = [(c, r) for c, r, s in lp.rows if s == EQ]
    le_rows = [(c, r) for c, r, s in lp.rows if s == LE]

    def sparse(rows):
        data, ri, ci = [], [], []
        for i, (coeffs, _) in enumerate(rows):
            for j, c in coeffs.items():
                ri.append(i)
                ci.append(j)
                data.append(float(c))
        return csr_matrix((data, (ri, ci)), shape=(len(rows), lp.n_vars))

    c = np.array([-float(v) for v in lp.objective])
    res = linprog(
        c,
        A_ub=sparse(le_rows) if le_rows else None,
        b_ub=np.array([float(r) for _, r in le_rows]) if le_rows else None,
        A_eq=sparse(eq_rows) if eq_rows else None,
        b_eq=np.array([float(r) for _, r in eq_rows]) if eq_rows else None,
        bounds=(0, None),
        method="highs",
    )
    if res.status != 0:
        return None
    return {
        "value": -res.fun,
        "x": list(res.x),
        "eq_marginals": list(res.eqlin.marginals) if eq_rows else [],
        "le_marginals": list(res.ineqlin.marginals) if le_rows else [],
    }


def certify_value_below(flow_lp: FlowLp, target: Fraction, float_result) -> bool:
    """Try to prove optimum < target from snapped float duals, exactly.

    For max c.x with A_eq x = b_eq, A_ub x <= b_ub, x >= 0: any y (free),
    z >= 0 with A_eq'y + A_ub'z >= c bounds the optimum by y.b_eq + z.b_ub.
    `_scipy_solve` minimizes -c.x, so y and z are the negated marginals.
    """
    if float_result is None:
        return False
    lp = flow_lp.program
    eq_rows = [(c, r) for c, r, s in lp.rows if s == EQ]
    le_rows = [(c, r) for c, r, s in lp.rows if s == LE]

    for denom in _SNAP_DENOMINATORS:
        try:
            y = [
                Fraction(-m).limit_denominator(denom)
                for m in float_result["eq_marginals"]
            ]
            z = [
                max(Fraction(0), Fraction(-m).limit_denominator(denom))
                for m in float_result["le_marginals"]
            ]
        except (ValueError, OverflowError):  # non-finite marginals
            return False
        if _dual_certifies(lp, eq_rows, le_rows, y, z, target):
            return True
    return False


def _dual_certifies(lp, eq_rows, le_rows, y, z, target) -> bool:
    lhs = [Fraction(0)] * lp.n_vars
    for (coeffs, _), yi in zip(eq_rows, y):
        if yi == 0:
            continue
        for j, c in coeffs.items():
            lhs[j] += yi * c
    for (coeffs, _), zk in zip(le_rows, z):
        if zk == 0:
            continue
        for j, c in coeffs.items():
            lhs[j] += zk * c
    if any(l < c for l, c in zip(lhs, lp.objective)):
        return False
    bound = sum((yi * r for (_, r), yi in zip(eq_rows, y)), Fraction(0))
    bound += sum((zk * r for (_, r), zk in zip(le_rows, z)), Fraction(0))
    return bound < target


def snap_primal(
    flow_lp: FlowLp, target: Fraction, float_result
) -> dict[int, Fraction] | None:
    """A flow worth at least target from the snapped float primal, or None.

    Negative entries clamp to zero; the first denominator whose snap passes
    every row of the program exactly and reaches target wins.
    """
    lp = flow_lp.program
    for denom in _SNAP_DENOMINATORS:
        try:
            x = [
                max(Fraction(0), Fraction(v).limit_denominator(denom))
                for v in float_result["x"]
            ]
        except (ValueError, OverflowError):  # non-finite entries
            return None
        value = sum((x[j] * c for j, c in enumerate(lp.objective) if c), Fraction(0))
        if value >= target and violated_row(lp, x) is None:
            return {j: v for j, v in enumerate(x) if v > 0}
    return None


# ---------------------------------------------------------------------------
# combined probe


@dataclass
class ProbeAnswer:
    feasible: bool
    flow: dict[int, Fraction] | None  # value-target witness when feasible
    engine: str


def probe_reaches(
    exp: ExpandedNetwork,
    inst: Instance,
    period: int,
    target: Fraction,
) -> ProbeAnswer:
    """Exact answer to "does the flow program at exp.bound reach target?".

    An expansion without links means the receiver is farther than the
    bound: the program's value is zero, and no engine runs.
    """
    if not exp.links:
        return ProbeAnswer(False, None, "unreachable")

    push = group_augment(exp, inst, period, target)
    if push.flow is not None:
        return ProbeAnswer(True, push.flow, "augment")
    if push.reached is not None:
        cut = residual_cut(exp, inst, period, push.reached)
        if cut is not None and cut < target:
            return ProbeAnswer(False, None, "residual-cut")

    flow_lp = build_flow_lp(exp, link_groups(exp, period), inst)

    # one float solve settles most stalls either way, once its snapped dual
    # or primal passes an exact check, without an exact optimality proof
    float_result = _scipy_solve(flow_lp)
    if float_result is not None:
        if float_result["value"] < float(target) - 1e-6:
            if certify_value_below(flow_lp, target, float_result):
                return ProbeAnswer(False, None, "dual-certificate")
        else:
            flow = snap_primal(flow_lp, target, float_result)
            if flow is not None:
                return ProbeAnswer(True, flow, "primal-snap")

    sol = solve_lp_reaching(flow_lp.program, target)
    if sol.status == TARGET_REACHED or (
        sol.status == OPTIMAL and sol.objective_value >= target
    ):
        return ProbeAnswer(True, extract_edge_flow(flow_lp, sol), "simplex")
    if sol.status != OPTIMAL:  # zero flow is always feasible, caps are finite
        raise AssertionError(f"flow program reported {sol.status}")
    return ProbeAnswer(False, None, "simplex")
