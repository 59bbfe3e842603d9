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
  repeated flow below delivers at least the batch there
  (`repeated_value`), and that bound is settled without an expansion.

A ``horizon`` caps the scan as a search ceiling.  The period's `PeriodScan`
settles each bound (`PeriodScan.settle`) with the first of these engines
that can, and the result names it in ``engines``, one per probe:

* ``temporally-repeated`` (`PeriodScan.best_prefix`): each path of one of
  those min-cost flows departs at up to T consecutive offsets, as many as
  still arrive by M, so it meets each capacity group at most once.  When
  the best prefix delivers the batch, the schedule is written straight
  from its paths (`lift_path_flow`), with no expansion, no pusher and no
  `decompose`;
* ``period-cut`` (`PeriodScan.cut`): a static max flow on the physical
  network, each link carrying its bandwidth once per push residue among
  its copies on a route of M.  When that falls short of the batch, the
  bound is infeasible, again with no expansion.  The scan carries that max
  flow: at each bound it starts from the last bound's or from the
  temporally repeated flow;
* otherwise the bound's pruned expansion is built and the exact rungs of
  `flowlp` run on it in order: the augmenting pusher (``augment``), its
  residual cut (``residual-cut``), the float solve's snapped dual
  (``dual-certificate``) or primal (``primal-snap``), and the reference
  simplex (``simplex``, `_simplex_schedule`).  `decompose` peels a feasible
  flow into the final schedule, each hold shorter than the period.

Every returned schedule is validated, with its delay equal to the bound.
The companion `min_max_delay_oracle` ignores all of that and scans
M = 0, 1, 2, ... up to the safe horizon, settling each bound with the same
simplex rung, so its ``engines`` read ``simplex`` throughout; tests hold
the two to equal answers.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from . import flowlp
from .expander import ExpandedNetwork, build_expanded, horizon_upper_bound, route_distances
from .lp import OPTIMAL, LinearProgram, solve_lp
from .maxflow import Prefix, _augment, max_flow, min_cost_prefixes, quickest_bound
from .model import (
    Instance,
    ModelError,
    Network,
    PeriodicSolution,
    Rational,
    ScheduleEntry,
    exact,
    validate_solution,
)


@dataclass(frozen=True)
class MmdResult:
    period: int
    max_delay: int
    solution: PeriodicSolution
    probes: tuple[tuple[int, bool], ...]
    engines: tuple[str, ...]  # the engine that settled each probe


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
        if remaining is not None and remaining <= 0:
            break
        if rate <= 0:
            continue
        links = tuple(links)
        arrivals = tuple(accumulate(index[link_id].delay for link_id in links))
        for start in range(min(period, bound + 1 - arrivals[-1])):
            take = rate if remaining is None else min(rate, remaining)
            if take <= 0:
                break
            entries.append(ScheduleEntry(links, (0, *[start + at for at in arrivals]), take))
            if remaining is not None:
                remaining -= take
    return PeriodicSolution(period, tuple(entries))


def repeated_value(prefix: Prefix, period: int, bound: int) -> Rational:
    """What the prefix's paths carry by ``bound``, each departing at up to
    ``period`` consecutive slots (`lift_path_flow`): L_T(M), the sum of
    x_P * min(T, M + 1 - d(P)) over the paths P of delay d(P) <= M."""
    return sum(
        rate * min(period, bound + 1 - delay)
        for (_, rate), delay in zip(prefix.paths, prefix.delays)
        if delay <= bound
    )


class PeriodScan:
    """One period's probes of an instance, bound after bound: `settle`
    settles a bound with the module docstring's engines in order, and its
    period cut (`cut`) carries a max flow from each bound to the next."""

    def __init__(self, inst: Instance, period: int):
        self.inst = inst
        self.period = period
        self.bound = -1  # the last bound the cut was asked
        self.flow: list[Rational] | None = None  # its max flow, by link
        self.prefixes = min_cost_prefixes(inst.network, inst.sender, inst.receiver)
        dist_s, dist_r = route_distances(inst)
        self.first = [  # f_l, None off every route
            dist_s[l.tail] + l.delay + dist_r[l.head]
            if l.tail in dist_s and l.head in dist_r
            else None
            for l in inst.network.links
        ]

    def best_prefix(self, bound: int) -> tuple[Prefix | None, Rational]:
        """The first min-cost prefix of the largest `repeated_value` at
        ``bound``, and that value; None and 0 when no path arrives by then.

        Truncating Ford and Fulkerson's temporally repeated flow to one
        period keeps every capacity group within its bandwidth
        (`lift_path_flow`), so a value reaching the batch settles the bound;
        one short of it proves nothing.
        """
        best, value = None, 0
        for prefix in self.prefixes:
            reach = repeated_value(prefix, self.period, bound)
            if reach > value:
                best, value = prefix, reach
        return best, value

    def settle(self, bound: int) -> tuple[str, PeriodicSolution | None]:
        """The engine that settles ``bound`` at the scan's period, and its schedule.

        The first engine to certify either answer names it, with the
        schedule, None when the bound is infeasible.  `flowlp`'s rungs are
        looked up on that module, so a test switches one off there.
        """
        inst, period, net = self.inst, self.period, self.inst.network
        batch = inst.batch
        best, value = self.best_prefix(bound)
        if value >= batch:  # trimmed to exactly the batch
            return "temporally-repeated", lift_path_flow(net, best.paths, period, bound, batch)
        if self.cut(bound) < batch:
            return "period-cut", None

        exp = build_expanded(inst, bound, period)
        push = flowlp.group_augment(exp)
        if push.flow is not None:
            return "augment", decompose(exp, push.flow)
        # ``push.reached`` is None only when the pusher runs out of rounds; on an
        # expansion without links its search reaches the source alone, cut 0
        if push.reached is not None and flowlp.residual_cut(exp, push.reached) < batch:
            return "residual-cut", None

        program = flowlp.build_flow_lp(exp).program
        # one float solve settles most stalls either way, once its snapped dual
        # or primal passes an exact check, without an exact optimality proof
        float_result = flowlp._scipy_solve(program)
        if float_result is not None:
            if float_result["value"] < float(batch) - 1e-6:
                if flowlp.certify_value_below(program, batch, float_result):
                    return "dual-certificate", None
            else:
                flow = flowlp.snap_primal(program, batch, float_result)
                if flow is not None:
                    return "primal-snap", decompose(exp, flow)

        return "simplex", _simplex_schedule(exp, program)

    def cut(self, bound: int) -> Rational:
        """An upper bound on the flow program's value at ``bound``.

        At bound M the link l = u -> v has c_l = M + 1 - f_l transit copies on
        (sender, 0) -> (receiver, M) routes, those `build_expanded` emits, where
        f_l = dist_s[u] + d_l + dist_r[v] (none when an end is off every
        route).  `cut` gives each link with c_l > 0 the capacity
        b_l * min(T, c_l) and takes the static max flow from sender to
        receiver; no expansion is built.  Sound: c_l consecutive push slots fall
        in min(T, c_l) residues mod T, the link's capacity groups, and every
        expanded route leaves a node set holding the sender and not the
        receiver on a transit copy, since holding stays at one node; so by
        max-flow/min-cut the static max flow bounds the program's value.

        Each max flow augments a feasible start, which changes no value, since a
        max flow's value is unique (the warm start of parametric max flow,
        Gallo, Grigoriadis and Tarjan 1989).  No c_l falls as M rises, so a
        bound no lower than the last continues from the last bound's max flow.
        The first bound, and any lower one, starts from the truncated
        temporally repeated flow of the best min-cost prefix at M
        (`best_prefix`, as `settle`'s first rung takes it):
        x_P * min(T, M + 1 - d_P) on each of its paths P of delay d_P <= M.
        It fits the capacities and conserves.  A link l on P has f_l <= d_P, since
        dist_s and dist_r are shortest delays, so c_l >= M + 1 - d_P >= 1.  The
        prefix's paths are simple and within the bandwidths, so l carries
        sum over P through l of x_P * min(T, M + 1 - d_P)
        <= min(T, c_l) * sum over P through l of x_P <= b_l * min(T, c_l).
        Path flows conserve, and the start's value L_T(M) is what the temporally
        repeated flow found short of the batch: the max flow augments the gap.
        """
        inst, period, net = self.inst, self.period, self.inst.network
        capacity = [
            0 if first is None or first > bound else b * min(period, bound + 1 - first)
            for first, b in zip(self.first, net.view.bandwidth)
        ]
        if self.flow is None or bound < self.bound:
            best, _ = self.best_prefix(bound)
            load: dict[str, Rational] = {}
            for (links, rate), delay in zip(best.paths, best.delays) if best else ():
                if delay <= bound:
                    sent = rate * min(period, bound + 1 - delay)
                    for link_id in links:
                        load[link_id] = load.get(link_id, 0) + sent
            self.flow = [exact(load.get(link.id, 0)) for link in net.links]
        self.bound = bound
        return _augment(net, inst.sender, inst.receiver, capacity, self.flow)


def _simplex_schedule(
    exp: ExpandedNetwork, program: LinearProgram
) -> PeriodicSolution | None:
    """The reference simplex on the expansion's flow program: its flow peeled
    into a schedule, or None when the optimum falls short of the batch."""
    sol = solve_lp(program)
    if sol.status != OPTIMAL:  # zero flow is always feasible, caps are finite
        raise AssertionError(f"flow program reported {sol.status}")
    if sol.objective_value < exp.inst.batch:
        return None
    return decompose(exp, flowlp.extract_edge_flow(sol))


def decompose(exp: ExpandedNetwork, edge_flow: dict[int, Rational]) -> PeriodicSolution:
    """Peel an expanded flow into the final schedule (min-flow link first).

    Every expanded link moves forward in time, so the expansion is acyclic,
    and in a flow conserving at every node but the source and the sink each
    link carrying flow lies on a source -> sink path of such links.  A peel
    traces its seed back to the source and on to the sink, at each node
    through the lowest-indexed link still carrying flow.

    Every peeled path collapses to a physical path with arrival offsets;
    holding runs become holding delay and trailing holds at the receiver
    vanish.  A collapsed path revisiting a node is rerouted through holding
    at that node (holding is uncapacitated), so entries are simple.  A
    hop held a full period or more is pushed whole periods earlier, in the
    same push-residue class, so every hold is shorter than the period.
    Peeling stops once the batch is covered; entries then total exactly the
    batch.

    ``edge_flow`` maps indices of ``exp.links`` to flow and must conserve
    at every node but the source and the sink.  The batch, the network and
    the period come from ``exp``; that period numbered the capacity groups
    the flow was kept within, so holds shrink modulo it.
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
    remaining = exp.inst.batch
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

    return PeriodicSolution(exp.period, tuple(entries))


def _collapse(exp: ExpandedNetwork, path: list[int], amount: Rational) -> ScheduleEntry:
    # a hop back to a node already on the entry erases the detour since that
    # node's first visit (chronological loop erasure): the data holds there
    index = exp.inst.network.link_index
    nodes = [exp.inst.sender]  # distinct, in visiting order
    links: list[str] = []  # links[k] leaves nodes[k] for nodes[k + 1]
    pushes: list[int] = []  # the slot each of links is pushed at
    for idx in path:
        el = exp.links[idx]
        if el.link_id is None:
            continue
        head = index[el.link_id].head
        if head in nodes:
            first = nodes.index(head)
            del nodes[first + 1 :], links[first:], pushes[first:]
        else:
            nodes.append(head)
            links.append(el.link_id)
            pushes.append(el.push)
    # each hop then pushes at the first slot of its residue class once the
    # data is there: holds fall below the period, and no group gains load
    offsets = [0]  # arrival at each of nodes
    for link_id, push in zip(links, pushes):
        hold = (push - offsets[-1]) % exp.period
        offsets.append(offsets[-1] + hold + index[link_id].delay)
    return ScheduleEntry(tuple(links), tuple(offsets), amount)


def min_max_delay(
    inst: Instance, period: int, horizon: int | None = None
) -> MmdResult | None:
    """Smallest delay bound M admitting a full-batch schedule at this period.

    Returns the result with a validated schedule achieving M and
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
    engines: list[str] = []
    bottom = quickest_bound(net, inst.sender, inst.receiver, inst.batch)
    scan = PeriodScan(inst, period)
    # the temporally repeated flow settles T - 1 + d* at the latest, so the
    # scan ends there (module docstring)
    for bound in range(bottom, horizon + 1):
        engine, solution = scan.settle(bound)
        probes.append((bound, solution is not None))
        engines.append(engine)
        if solution is not None:
            solution = _checked(inst, solution, bound)
            return MmdResult(period, bound, solution, tuple(probes), tuple(engines))
    return None


def _checked(inst: Instance, solution: PeriodicSolution, bound: int) -> PeriodicSolution:
    """``solution``, the final schedule, once it is valid with delay ``bound``."""
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
    """Ascending scan M = 0, 1, 2, ... with plain reference simplex solves.

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
        solution = _simplex_schedule(exp, flowlp.build_flow_lp(exp).program)
        probes.append((bound, solution is not None))
        if solution is not None:
            solution = _checked(inst, solution, bound)
            engines = ("simplex",) * len(probes)
            return MmdResult(period, bound, solution, tuple(probes), engines)
    return None
