"""Minimum maximum delay at a fixed period.

`min_max_delay` scans the delay bound M upward: probe a bound, ask whether
the expanded flow program can deliver the whole batch within M layers, and
stop at the first bound that can.  The successive min-cost flows on the
physical network (`maxflow.min_cost_prefixes`) decide where the scan starts
and why it ends:

* a periodic schedule at period T induces a static flow of rate batch/T by
  averaging one period, so when the last prefix, a maximum flow, has a rate
  below batch/T no bound is feasible and the scan never starts;
* giving each link copy its own bandwidth, instead of sharing it across the
  copies of one push-residue class, only loosens the program, and what is
  left is the maximum flow over time (Ford and Fulkerson).  No bound below
  the quickest flow time of the batch is feasible at any period, so that
  time is where the scan starts; it is usually the answer itself, and the
  answer is rarely more than a few bounds above it;
* and the scan ends by itself: take d* as the least delay at which the
  last prefix's paths of delay at most d* carry rate batch/T.  At the bound
  T - 1 + d* each of those paths departs T times, so the temporally
  repeated flow below delivers at least the batch there (`repeated_value`),
  and that bound is settled without an expansion.

A ``horizon`` caps the scan as a search ceiling.  Every bound is settled by
the first of these engines that can:

* the temporally repeated flow (`temporally_repeated`): each path of one of
  those min-cost flows departs at up to T consecutive offsets, as many as
  still arrive by M, so it meets each capacity group at most once.  When
  that delivers the batch, the schedule is written straight from the paths,
  with no expansion, no pusher and no `decompose`;
* the period cut (`flowlp.period_cut`): a static max flow on the physical
  network, each link carrying its bandwidth once per push residue among
  its copies on a route of M.  When that falls short of the batch, the
  bound is infeasible, again with no expansion;
* otherwise the bound's pruned expansion is built and goes through the
  exact engines of `flowlp.probe_reaches`, in order: the augmenting pusher,
  its residual cut, the float solve's snapped dual or primal and the
  simplex, and a feasible flow is peeled into a schedule by `decompose`.

Every returned schedule is validated, with its delay equal to the bound.
The companion `min_max_delay_oracle` ignores all of that and scans
M = 0, 1, 2, ... up to the safe horizon, solving each bound's program with
the reference simplex; tests hold the two to equal answers.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from .expander import ExpandedNetwork, build_expanded, horizon_upper_bound
from .flowlp import build_flow_lp, extract_edge_flow, period_cut, probe_reaches
from .lp import OPTIMAL, solve_lp
from .maxflow import Prefix, max_flow, min_cost_prefixes, quickest_bound
from .model import (
    Instance,
    ModelError,
    Network,
    PeriodicSolution,
    Rational,
    ScheduleEntry,
    normalize_holding,
    validate_solution,
)


@dataclass(frozen=True)
class MmdResult:
    period: int
    max_delay: int
    solution: PeriodicSolution
    probes: tuple[tuple[int, bool], ...]


def lift_path_flow(
    net: Network,
    path_rates: Sequence[tuple[tuple[str, ...], Rational]],
    period: int,
    bound: int,
    amount: Rational | None = None,
) -> PeriodicSolution:
    """Send each path's rate at departures 0, 1, ... with no holding past the sender.

    A path of delay d departs min(period, bound + 1 - d) times, so everything
    arrives by ``bound``: the temporally repeated flow truncated to one
    period.  At a bound of (slowest path delay + period - 1) every path
    departs at all ``period`` offsets, so rates summing to R per slot become
    a schedule delivering R*period per period.  Each path meets each
    push-residue class of its links at most once, so paths from a static
    flow within the bandwidths give a schedule within them.  Entries stop
    once they total ``amount``, when one is given.
    """
    index = net.link_index
    entries = []
    remaining = amount
    for links, rate in path_rates:
        if rate <= 0:
            continue
        arrivals = (0, *accumulate(index[link_id].delay for link_id in links))
        for start in range(min(period, bound + 1 - arrivals[-1])):
            take = rate if remaining is None else min(rate, remaining)
            if take <= 0:
                break
            offsets = (0,) + tuple(start + at for at in arrivals[1:])
            entries.append(ScheduleEntry(tuple(links), offsets, take))
            if remaining is not None:
                remaining -= take
    return PeriodicSolution(period, tuple(entries))


def repeated_value(prefix: Prefix, period: int, bound: int) -> Rational:
    """What `lift_path_flow` sends on the prefix's paths by ``bound``.

    This is L_T(M) = sum of x_P * min(T, M + 1 - d(P)) over the paths P of
    delay d(P) <= M.
    """
    return sum(
        rate * min(period, bound + 1 - delay)
        for (_, rate), delay in zip(prefix.paths, prefix.delays)
        if delay <= bound
    )


def temporally_repeated(inst: Instance, period: int, bound: int) -> PeriodicSolution | None:
    """A schedule of delay at most ``bound`` from the best min-cost prefix.

    Truncating Ford and Fulkerson's temporally repeated flow to one period
    keeps every capacity group within its bandwidth, so the prefix with the
    largest `repeated_value` settles the bound whenever that value reaches
    the batch; its schedule is trimmed to exactly the batch.  None otherwise,
    which proves nothing.
    """
    net = inst.network
    best, value = None, 0
    for prefix in min_cost_prefixes(net, inst.sender, inst.receiver):
        reach = repeated_value(prefix, period, bound)
        if reach > value:
            best, value = prefix, reach
    if best is None or value < inst.batch:
        return None
    return lift_path_flow(net, best.paths, period, bound, inst.batch)


def decompose(
    exp: ExpandedNetwork,
    edge_flow: dict[int, Rational],
    inst: Instance,
    period: int,
) -> PeriodicSolution:
    """Peel an expanded flow into schedule entries (min-flow link first).

    Every expanded link moves forward in time, so the expansion is acyclic,
    and in a flow conserving at every node but the source and the sink each
    link carrying flow lies on a source -> sink path of such links.  A peel
    traces its seed back to the source and on to the sink, at each node
    through the lowest-indexed link still carrying flow.

    Every peeled path collapses to a physical path with arrival offsets;
    holding runs become holding delay and trailing holds at the receiver
    vanish.  A collapsed path revisiting a node is rerouted through holding
    at that node (holding is uncapacitated), so entries are simple.
    Peeling stops once the batch is covered; entries then total exactly the
    batch.
    """
    source, sink = exp.source, exp.sink
    work = {idx: v for idx, v in edge_flow.items() if v > 0}

    imbalance: dict[int, Rational] = {}
    for idx, v in work.items():
        el = exp.links[idx]
        imbalance[el.tail] = imbalance.get(el.tail, 0) + v
        imbalance[el.head] = imbalance.get(el.head, 0) - v
    for node, delta in imbalance.items():
        if node not in (source, sink) and delta != 0:
            raise AssertionError(f"flow does not conserve at expanded node {node}")

    entries: list[ScheduleEntry] = []
    remaining = inst.batch
    while remaining > 0 and work:
        seed = min(work.items(), key=lambda kv: (kv[1], kv[0]))[0]
        path = [seed]
        node = exp.links[seed].tail
        while node != source:
            path.append(next(idx for idx in exp.in_links[node] if idx in work))
            node = exp.links[path[-1]].tail
        path.reverse()
        node = exp.links[seed].head
        while node != sink:
            path.append(next(idx for idx in exp.out_links[node] if idx in work))
            node = exp.links[path[-1]].head
        amount = min(min(work[idx] for idx in path), remaining)
        for idx in path:
            work[idx] -= amount
            if work[idx] == 0:
                del work[idx]
        entries.append(_collapse(exp, path, amount))
        remaining -= amount

    return PeriodicSolution(period, tuple(entries))


def _collapse(exp: ExpandedNetwork, path: list[int], amount: Rational) -> ScheduleEntry:
    # a hop back to a node already on the entry erases the detour since that
    # node's first visit (chronological loop erasure): the data holds there
    index = exp.net.link_index
    nodes = [exp.node_of(exp.source)[0]]  # distinct, in visiting order
    offsets = [0]  # arrival at each of nodes
    links: list[str] = []  # links[k] arrives at nodes[k + 1]
    for idx in path:
        el = exp.links[idx]
        if el.link_id is None:
            continue
        link = index[el.link_id]
        if link.head in nodes:
            first = nodes.index(link.head)
            del nodes[first + 1 :], offsets[first + 1 :], links[first:]
        else:
            nodes.append(link.head)
            offsets.append(el.push + link.delay)
            links.append(link.id)
    return ScheduleEntry(tuple(links), tuple(offsets), amount)


def min_max_delay(
    inst: Instance, period: int, horizon: int | None = None
) -> MmdResult | None:
    """Smallest delay bound M admitting a full-batch schedule at this period.

    Returns the result with a validated, normalized schedule achieving M and
    the (bound, feasible) probe trail; None when the period's throughput is
    not supportable at all, or needs a delay above ``horizon``.
    """
    return _min_max_delay_cached(inst, period, _search_ceiling(inst, period, horizon))


def _search_ceiling(inst: Instance, period: int, horizon: int | None) -> int:
    """Check a search's arguments; the highest bound it may probe."""
    if period not in range(inst.min_period, inst.max_period + 1):
        raise ModelError(f"period {period} outside the instance window")
    if horizon is not None and horizon < 1:
        raise ModelError("horizon must be at least 1")
    return horizon_upper_bound(inst) if horizon is None else horizon


@lru_cache(maxsize=4096)
def _min_max_delay_cached(
    inst: Instance, period: int, horizon: int
) -> MmdResult | None:
    net = inst.network
    prefixes = min_cost_prefixes(net, inst.sender, inst.receiver)
    if not prefixes or prefixes[-1].rate * period < inst.batch:
        return None
    probes: list[tuple[int, bool]] = []
    bottom = quickest_bound(net, inst.sender, inst.receiver, inst.batch)
    # the temporally repeated flow settles T - 1 + d* at the latest, so the
    # scan ends there (module docstring)
    for bound in range(bottom, horizon + 1):
        solution = temporally_repeated(inst, period, bound)
        if solution is None and period_cut(inst, period, bound) >= inst.batch:
            exp = build_expanded(inst, bound, period)
            answer = probe_reaches(exp, inst.batch)
            if answer.flow is not None:
                solution = decompose(exp, answer.flow, inst, period)
        probes.append((bound, solution is not None))
        if solution is not None:
            return MmdResult(period, bound, _checked(inst, solution, bound), tuple(probes))
    return None


def _checked(inst: Instance, raw: PeriodicSolution, bound: int) -> PeriodicSolution:
    """``raw`` with holding normalized, once it is valid with delay ``bound``."""
    solution = normalize_holding(inst.network, raw)
    ok, max_delay, violations = validate_solution(inst, solution)
    if not ok:
        raise AssertionError(f"schedule at bound {bound} invalid: {violations}")
    if max_delay != bound:
        raise AssertionError(
            f"schedule delay {max_delay} disagrees with probed minimum {bound}"
        )
    return solution


def min_max_delay_oracle(
    inst: Instance, period: int, horizon: int | None = None
) -> MmdResult | None:
    """Ascending scan M = 0, 1, 2, ... with plain reference LP solves.

    Slow but structurally independent of the fast scan and its probe
    shortcuts; used for verification.
    """
    mu = _search_ceiling(inst, period, horizon)
    rate = Fraction(inst.batch, period)
    if max_flow(inst.network, inst.sender, inst.receiver)[1] < rate:
        return None
    probes: list[tuple[int, bool]] = []
    for bound in range(0, mu + 1):
        exp = build_expanded(inst, bound, period)
        flow_lp = build_flow_lp(exp)
        sol = solve_lp(flow_lp.program)
        feasible = sol.status == OPTIMAL and sol.objective_value >= inst.batch
        probes.append((bound, feasible))
        if feasible:
            raw = decompose(exp, extract_edge_flow(sol), inst, period)
            return MmdResult(period, bound, _checked(inst, raw, bound), tuple(probes))
    return None
