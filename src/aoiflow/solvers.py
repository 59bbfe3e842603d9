"""Optimal and approximate age/delay minimization over the period window.

The minimal peak age, minimal average age, and minimal maximum delay at a
fixed throughput all come from the same per-period subproblem.  The age
curves are neither monotone nor convex in the throughput, so the optimum over
the window is found by scanning the periods in ascending order.  The scan
stops once the batch's quickest flow time, a lower bound on every period's
maximum delay, puts every later period's age above the best found.

The approximation path instead solves the steady-rate min-max-delay problem
once at the lowest required throughput and replays its path flow every slot;
with an exact steady-rate backend this is a (1 + 2*Ru/Rl)-approximation for
peak age and (1 + 3*Ru/Rl) for average age.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .maxflow import quickest_bound
from .mmd import lift_path_flow, min_max_delay
from .model import (
    AoiReport,
    Instance,
    ModelError,
    Network,
    PeriodicSolution,
    Rational,
    report_for,
)


class Objective(enum.Enum):
    PEAK_AOI = "peak"
    AVG_AOI = "avg"
    MAX_DELAY = "delay"

    def key(self, report: AoiReport):
        if self is Objective.PEAK_AOI:
            return report.peak_aoi
        if self is Objective.AVG_AOI:
            return report.avg_aoi
        return report.max_delay


class AllInfeasibleError(ModelError):
    """No candidate period can carry the batch."""


@dataclass(frozen=True)
class SolveOutcome:
    """The objective's optimum over the period window.

    ``grid`` maps each period the scan solved, an ascending prefix of the
    window, to its report; None where the period's throughput is
    unsupportable.
    """

    objective: Objective
    best: AoiReport
    solution: PeriodicSolution
    grid: dict[int, AoiReport | None]
    optimal_throughputs: frozenset[Fraction]


@dataclass(frozen=True)
class PathFlow:
    """Steady per-slot path rates; max_delay is the slowest used path."""

    paths: tuple[tuple[tuple[str, ...], Rational], ...]
    max_delay: int

    @property
    def rate(self) -> Rational:
        return sum(r for _, r in self.paths)


Mmd1Backend = Callable[[Network, str, str, Fraction], "PathFlow | None"]


@dataclass(frozen=True)
class ApproxOutcome:
    objective: Objective
    solution: PeriodicSolution
    report: AoiReport
    alpha: Fraction
    ratio_bound: Fraction


def solve_optimal(
    inst: Instance, objective: Objective, horizon: int | None = None
) -> SolveOutcome:
    """Scan the period window upward and take the objective's minimizer.

    Every period's maximum delay is at least the batch's quickest flow time
    Q, which does not depend on the period, so report_for(D/T, T, Q) bounds
    the objective at T from below: peak Q + T - 1, average Q + (T - 1)/2,
    delay Q.  The age floors grow with T, so the scan stops at the first
    period whose floor is strictly above the best value found; no later
    period can reach it, and ties are still solved.  The delay floor never
    exceeds the best, so that objective solves every period.

    Ties are reported in full via optimal_throughputs; the returned schedule
    belongs to the largest optimal throughput.
    """
    quickest = quickest_bound(inst.network, inst.sender, inst.receiver, inst.batch)
    grid: dict[int, AoiReport | None] = {}
    best = None
    winners: list[tuple[AoiReport, PeriodicSolution]] = []
    for period in range(inst.min_period, inst.max_period + 1):
        throughput = Fraction(inst.batch, period)
        if best is not None:
            floor = report_for(throughput, period, quickest)
            if objective.key(floor) > best:
                break
        result = min_max_delay(inst, period, horizon)
        if result is None:
            grid[period] = None
            continue
        report = grid[period] = report_for(throughput, period, result.max_delay)
        value = objective.key(report)
        if best is None or value < best:
            best, winners = value, []
        if value == best:
            winners.append((report, result.solution))
    if not winners:
        raise AllInfeasibleError("no candidate period is supportable")
    # largest optimal throughput = smallest optimal period, the first found
    top, solution = winners[0]
    return SolveOutcome(
        objective=objective,
        best=top,
        solution=solution,
        grid=grid,
        optimal_throughputs=frozenset(report.throughput for report, _ in winners),
    )


def mmd1_exact(net: Network, sender: str, receiver: str, rate: Fraction) -> PathFlow | None:
    """Exact steady-rate min-max-delay flow (unit period specialization).

    Streams ``rate`` units every slot over paths whose largest delay is
    minimal; None when the network cannot sustain the rate at any delay.
    """
    if rate <= 0:
        raise ModelError("rate must be positive")
    inst = Instance(
        network=net,
        sender=sender,
        receiver=receiver,
        batch=rate,
        r_min=rate,
        r_max=rate,
    )
    result = min_max_delay(inst, 1)
    if result is None:
        return None
    merged: dict[tuple[str, ...], Rational] = {}
    for entry in result.solution.entries:
        merged[entry.links] = merged.get(entry.links, 0) + entry.amount
    return PathFlow(
        paths=tuple(sorted(merged.items())),
        max_delay=result.max_delay,
    )


def approx_solve(
    inst: Instance,
    objective: Objective,
    backend: Mmd1Backend | None = None,
    alpha: Fraction = Fraction(1),
) -> ApproxOutcome:
    """Approximation framework on top of a steady-rate backend.

    Solves the steady-rate problem at the minimum required throughput, lifts
    the per-slot path flow to a periodic schedule at the largest period, and
    reports the certified ratio alpha + c (c = 2*Ru/Rl for peak age,
    3*Ru/Rl for average age), where alpha >= 1 is the backend's declared
    guarantee.  The default backend, `mmd1_exact`, is looked up per call.
    """
    if objective is Objective.MAX_DELAY:
        raise ModelError("the approximation framework targets age objectives")
    if alpha < 1:
        raise ModelError(f"alpha must be at least 1, got {alpha}")
    flow = (backend or mmd1_exact)(inst.network, inst.sender, inst.receiver, inst.r_min)
    if flow is None:
        raise AllInfeasibleError("steady-rate subproblem infeasible at r_min")
    period = inst.max_period
    max_delay = flow.max_delay + period - 1
    solution = lift_path_flow(inst.network, list(flow.paths), period, max_delay)
    if solution.max_delay != max_delay or solution.total_amount != flow.rate * period:
        raise AssertionError("lifted schedule disagrees with backend delay or rate")
    report = report_for(inst.r_min, period, max_delay)
    ratio = Fraction(inst.r_max, inst.r_min)
    c = 2 * ratio if objective is Objective.PEAK_AOI else 3 * ratio
    return ApproxOutcome(
        objective=objective,
        solution=solution,
        report=report,
        alpha=Fraction(alpha),
        ratio_bound=Fraction(alpha) + c,
    )


@dataclass(frozen=True)
class RelationCheck:
    name: str
    holds: bool
    detail: str


def check_objective_relations(
    peak: SolveOutcome, avg: SolveOutcome, delay: SolveOutcome, inst: Instance
) -> list[RelationCheck]:
    """Exact ordering/gap relations between the three objectives' optima.

    Any failure here is a solver bug, not an instance property.
    """
    window = Fraction(inst.batch, inst.r_min) - Fraction(inst.batch, inst.r_max)
    # each outcome's grid holds its own optima, so together they hold every
    # rate compared below
    by_rate = {
        report.throughput: report
        for outcome in (peak, avg, delay)
        for report in outcome.grid.values()
        if report is not None
    }

    def reports(outcome: SolveOutcome):
        return [by_rate[r] for r in sorted(outcome.optimal_throughputs)]

    checks: list[RelationCheck] = []

    min_rp = min(peak.optimal_throughputs)
    min_ra = min(avg.optimal_throughputs)
    max_rm = max(delay.optimal_throughputs)
    max_ra = max(avg.optimal_throughputs)
    checks.append(
        RelationCheck(
            "throughput-order-peak-vs-delay",
            min_rp >= max_rm,
            f"min Rp {min_rp} >= max Rm {max_rm}",
        )
    )
    checks.append(
        RelationCheck(
            "throughput-order-avg-vs-delay",
            min_ra >= max_rm,
            f"min Ra {min_ra} >= max Rm {max_rm}",
        )
    )
    checks.append(
        RelationCheck(
            "throughput-order-peak-vs-avg",
            min_rp >= max_ra,
            f"min Rp {min_rp} >= max Ra {max_ra}",
        )
    )
    min_delay_at_rp = min(r.max_delay for r in reports(peak))
    max_delay_at_ra = max(r.max_delay for r in reports(avg))
    checks.append(
        RelationCheck(
            "delay-order-peak-vs-avg",
            min_delay_at_rp >= max_delay_at_ra,
            f"min M at Rp {min_delay_at_rp} >= max M at Ra {max_delay_at_ra}",
        )
    )

    peak_gap = max(
        by_rate[rm].peak_aoi - by_rate[rp].peak_aoi
        for rm in delay.optimal_throughputs
        for rp in peak.optimal_throughputs
    )
    checks.append(
        RelationCheck(
            "gap-peak-of-delay-optimum",
            peak_gap <= window,
            f"{peak_gap} <= {window}",
        )
    )
    avg_gap = max(
        by_rate[rm].avg_aoi - by_rate[ra].avg_aoi
        for rm in delay.optimal_throughputs
        for ra in avg.optimal_throughputs
    )
    checks.append(
        RelationCheck(
            "gap-avg-of-delay-optimum",
            avg_gap <= window / 2,
            f"{avg_gap} <= {window / 2}",
        )
    )
    cross_avg = max(
        by_rate[rp].avg_aoi - by_rate[ra].avg_aoi
        for rp in peak.optimal_throughputs
        for ra in avg.optimal_throughputs
    )
    checks.append(
        RelationCheck(
            "gap-avg-of-peak-optimum",
            cross_avg <= window / 2,
            f"{cross_avg} <= {window / 2}",
        )
    )
    cross_peak = max(
        by_rate[ra].peak_aoi - by_rate[rp].peak_aoi
        for rp in peak.optimal_throughputs
        for ra in avg.optimal_throughputs
    )
    floored = (window / 2).numerator // (window / 2).denominator
    checks.append(
        RelationCheck(
            "gap-peak-of-avg-optimum",
            cross_peak <= floored,
            f"{cross_peak} <= floor({window / 2}) = {floored}",
        )
    )
    return checks
