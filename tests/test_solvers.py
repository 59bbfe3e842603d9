from fractions import Fraction as F

import pytest

from aoiflow import (
    AllInfeasibleError,
    Instance,
    ModelError,
    Objective,
    approx_solve,
    check_objective_relations,
    mmd1_exact,
    network,
    solve_optimal,
    validate_solution,
)
from aoiflow import solvers
from aoiflow.experiments import generate, grid_graph, run_sweep, scaled_instance
from aoiflow.mmd import min_max_delay
from aoiflow.model import feasible_periods, report_for
from conftest import (
    corpus_instance,
    make_fastslow_instance,
    make_fastslow_network,
    make_triple_instance,
    make_knee_instance,
)


def grid_values(inst, attr):
    return [getattr(row.opt, attr) for row in run_sweep(inst) if row.opt is not None]


def by_rate(inst):
    return {row.throughput: row.opt for row in run_sweep(inst) if row.opt is not None}


def test_fastslow_peak_grid_and_optimum():
    assert grid_values(make_fastslow_instance(), "peak_aoi") == [17, 18, 19, 19]
    outcome = solve_optimal(make_fastslow_instance(), Objective.PEAK_AOI)
    assert outcome.best.peak_aoi == 17
    assert outcome.optimal_throughputs == {F(10, 7)}
    assert outcome.best.period == 7


def test_fastslow_avg_optimum():
    outcome = solve_optimal(make_fastslow_instance(), Objective.AVG_AOI)
    assert outcome.best.avg_aoi == 14
    assert outcome.optimal_throughputs == {F(10, 7)}


def test_triple_both_objectives():
    inst = make_triple_instance()
    avg = solve_optimal(inst, Objective.AVG_AOI)
    assert avg.optimal_throughputs == {F(1)}
    assert avg.best.avg_aoi == 7
    peak = solve_optimal(inst, Objective.PEAK_AOI)
    assert peak.optimal_throughputs == {F(5, 2)}
    assert peak.best.peak_aoi == 8


def test_knee_sharp_corner_grids():
    d7 = by_rate(make_knee_instance(7))
    assert d7[F(5, 6)].peak_aoi == 10
    assert d7[F(1)].peak_aoi == 9
    assert d7[F(5, 4)].peak_aoi == 10
    assert d7[F(1)].avg_aoi == 7
    assert d7[F(5, 6)].avg_aoi == F(15, 2)
    assert d7[F(5, 4)].avg_aoi == F(17, 2)

    d6 = by_rate(make_knee_instance(6))
    assert d6[F(5, 3)].peak_aoi == 8
    assert d6[F(5, 4)].peak_aoi == 9
    assert d6[F(1)].peak_aoi == 9
    assert d6[F(5, 3)].avg_aoi == 7
    assert d6[F(5, 4)].avg_aoi == F(15, 2)
    assert d6[F(1)].avg_aoi == 7


def test_solutions_validate_for_every_objective():
    inst = make_triple_instance()
    for objective in Objective:
        outcome = solve_optimal(inst, objective)
        ok, max_delay, violations = validate_solution(inst, outcome.solution)
        assert ok, violations
        assert max_delay == outcome.best.max_delay


def test_fastslow_mmd_problem():
    outcome = solve_optimal(make_fastslow_instance(), Objective.MAX_DELAY)
    assert outcome.optimal_throughputs == {F(1)}
    assert outcome.best.max_delay == 10


def test_triple_mmd_problem():
    outcome = solve_optimal(make_triple_instance(), Objective.MAX_DELAY)
    assert outcome.best.max_delay == 5
    assert outcome.optimal_throughputs == {F(1)}


def test_single_link_mmd_ties_across_periods():
    net = network(["s", "r"], [("e", "s", "r", 3, 50)])
    inst = Instance(net, "s", "r", F(12), F(2), F(4))
    outcome = solve_optimal(inst, Objective.MAX_DELAY)
    assert outcome.best.max_delay == 3
    assert outcome.optimal_throughputs == {F(2), F(12, 5), F(3), F(4)}
    # representative solution uses the largest optimal throughput
    assert outcome.best.period == 3


def test_all_infeasible_raises():
    net = network(["s", "r"], [("e", "s", "r", 1, 0)])
    inst = Instance(net, "s", "r", F(2), F(1), F(2))
    with pytest.raises(AllInfeasibleError):
        solve_optimal(inst, Objective.PEAK_AOI)


def test_infeasible_periods_recorded_in_grid():
    net = network(["s", "r"], [("e", "s", "r", 1, 1)])
    inst = Instance(net, "s", "r", F(6), F(1), F(3))  # rate 3 and 2 unsupportable
    outcome = solve_optimal(inst, Objective.PEAK_AOI)
    status = {period: report is not None for period, report in outcome.grid.items()}
    assert status == {2: False, 3: False, 4: False, 5: False, 6: True}


# --- the bounded period scan ------------------------------------------------


def swept_optimum(inst, objective):
    """Best report, its schedule and every optimal throughput, from a full
    sweep of the window; None when no period is supportable."""
    feasible = []
    for period in feasible_periods(inst):
        result = min_max_delay(inst, period)
        if result is not None:
            throughput = F(inst.batch, period)
            feasible.append((report_for(throughput, period, result.max_delay), result))
    if not feasible:
        return None
    best = min(objective.key(report) for report, _ in feasible)
    winners = [(rep, res) for rep, res in feasible if objective.key(rep) == best]
    report, res = min(winners, key=lambda pair: pair[0].period)
    return report, res.solution, frozenset(rep.throughput for rep, _ in winners)


def test_scan_matches_full_sweep():
    instances = [corpus_instance(seed) for seed in range(200)] + [
        make_fastslow_instance(),
        make_triple_instance(),
        make_knee_instance(6),
        make_knee_instance(7),
    ]
    solved = swept = 0
    for inst in instances:
        for objective in Objective:
            want = swept_optimum(inst, objective)
            if want is None:
                with pytest.raises(AllInfeasibleError):
                    solve_optimal(inst, objective)
                continue
            outcome = solve_optimal(inst, objective)
            got = (outcome.best, outcome.solution, outcome.optimal_throughputs)
            assert got == want, (inst, objective)
            periods = list(outcome.grid)
            assert periods == list(range(inst.min_period, periods[-1] + 1))
            if objective is not Objective.MAX_DELAY:
                solved += len(periods)
                swept += inst.max_period - inst.min_period + 1
    assert solved < swept


@pytest.fixture
def searched(monkeypatch):
    """The periods `solve_optimal` hands to the per-period search."""
    periods = []
    search = solvers.min_max_delay

    def recording(inst, period, horizon=None):
        periods.append(period)
        return search(inst, period, horizon)

    monkeypatch.setattr(solvers, "min_max_delay", recording)
    return periods


def test_grid_seed7_scan_stops_after_period_11(searched):
    inst = scaled_instance(generate(grid_graph(4, 4, seed=7)), "a1_1", "a4_4", 10)
    for objective in (Objective.PEAK_AOI, Objective.AVG_AOI):
        searched.clear()
        solve_optimal(inst, objective)
        assert searched == [10, 11], objective


def test_wide_window_solves_a_handful_of_periods(searched):
    # periods 1..100000; rates above the link's 20000 fail at periods 1..4,
    # period 5 gives peak 9 and period 6's floor Q + 5 = 10 ends the scan
    net = network(["s", "r"], [("e", "s", "r", 1, 20000)])
    inst = Instance(net, "s", "r", F(100000), F(1), F(100000))
    for objective in (Objective.PEAK_AOI, Objective.AVG_AOI):
        searched.clear()
        outcome = solve_optimal(inst, objective)
        assert searched == [1, 2, 3, 4, 5], objective
        assert outcome.best.period == 5 and outcome.best.max_delay == 5
        assert len(outcome.grid) == 5


def test_delay_objective_solves_every_period():
    for inst in (make_fastslow_instance(), make_triple_instance(), make_knee_instance(7)):
        outcome = solve_optimal(inst, Objective.MAX_DELAY)
        assert list(outcome.grid) == list(range(inst.min_period, inst.max_period + 1))


# --- steady-rate solver ---------------------------------------------------------


def test_mmd1_rate_one_rides_fast_link():
    flow = mmd1_exact(make_fastslow_network(), "s", "r", F(1))
    assert flow.max_delay == 1
    assert flow.paths == ((("e1",), F(1)),)


def test_mmd1_full_capacity_uses_both_links():
    flow = mmd1_exact(make_fastslow_network(), "s", "r", F(11))
    assert flow.max_delay == 11
    assert flow.rate == 11
    assert mmd1_exact(make_fastslow_network(), "s", "r", F(12)) is None


def test_mmd1_rejects_nonpositive_rate():
    with pytest.raises(ModelError):
        mmd1_exact(make_fastslow_network(), "s", "r", F(0))


def test_mmd1_prefers_lowest_max_delay():
    # rate 2 needs the d=4 link; rate 1 should stick to the pair of d=2 links
    net = network(
        ["s", "r"],
        [("f1", "s", "r", 2, F(1, 2)), ("f2", "s", "r", 2, F(1, 2)), ("g", "s", "r", 4, 2)],
    )
    assert mmd1_exact(net, "s", "r", F(1)).max_delay == 2
    assert mmd1_exact(net, "s", "r", F(2)).max_delay == 4


# --- approximation framework -----------------------------------------------------


def test_approx_fastslow_peak():
    inst = make_fastslow_instance()
    outcome = approx_solve(inst, Objective.PEAK_AOI)
    assert outcome.report.max_delay == 10  # steady delay 1 spread over T=10
    assert outcome.report.peak_aoi == 19
    assert outcome.ratio_bound == F(27, 7)
    ok, max_delay, violations = validate_solution(inst, outcome.solution)
    assert ok and max_delay == 10


def test_approx_tight_window_single_slot():
    net = network(["s", "r"], [("e", "s", "r", 1, 5)])
    inst = Instance(net, "s", "r", F(5), F(5), F(5))
    outcome = approx_solve(inst, Objective.PEAK_AOI)
    assert outcome.report.period == 1
    assert outcome.report.max_delay == 1
    assert outcome.report.peak_aoi == 1
    assert outcome.ratio_bound == 3


def test_approx_triple_avg_matches_optimum():
    inst = make_triple_instance()
    outcome = approx_solve(inst, Objective.AVG_AOI)
    assert outcome.report.max_delay == 5
    assert outcome.report.avg_aoi == 7
    best = solve_optimal(inst, Objective.AVG_AOI).best
    assert outcome.report.avg_aoi == best.avg_aoi
    assert outcome.ratio_bound == 1 + 3 * F(5, 2)


def test_approx_default_backend_is_the_patched_module_attribute(monkeypatch):
    # a tracer wraps `solvers.mmd1_exact` after import; the default backend
    # must be looked up when approx_solve runs, not bound at definition
    rates = []
    exact = solvers.mmd1_exact

    def counting(net, s, r, rate):
        rates.append(rate)
        return exact(net, s, r, rate)

    monkeypatch.setattr(solvers, "mmd1_exact", counting)
    inst = make_fastslow_instance()
    approx_solve(inst, Objective.PEAK_AOI)
    assert rates == [inst.r_min]


def test_approx_rejects_delay_objective():
    with pytest.raises(ModelError):
        approx_solve(make_fastslow_instance(), Objective.MAX_DELAY)


@pytest.mark.parametrize("alpha", [F(0), F(-1), F(1, 2)])
def test_approx_rejects_alpha_below_one(alpha):
    # an alpha-approximation has alpha >= 1; a smaller one would claim a
    # ratio bound below the framework's own constant
    with pytest.raises(ModelError, match="alpha"):
        approx_solve(make_fastslow_instance(), Objective.PEAK_AOI, alpha=alpha)


def test_approx_pluggable_backend_alpha():
    from aoiflow.solvers import PathFlow

    def sloppy_backend(net, s, r, rate):
        # a deliberately suboptimal backend: everything on the slow link
        return PathFlow(paths=((("e2",), rate),), max_delay=11)

    inst = make_fastslow_instance()
    outcome = approx_solve(
        inst, Objective.PEAK_AOI, backend=sloppy_backend, alpha=F(11)
    )
    assert outcome.report.max_delay == 11 + 10 - 1
    assert outcome.ratio_bound == 11 + 2 * F(10, 7)
    ok, _, _ = validate_solution(inst, outcome.solution)
    assert ok


def test_approx_refuses_backend_understating_delay():
    from aoiflow.solvers import PathFlow

    def lying_backend(net, s, r, rate):
        # the slow link's delay is 11, not 10: lifted by bound 10 + T - 1 at
        # T = 10 it departs 9 times, the last arriving at the bound itself
        return PathFlow(paths=((("e2",), rate),), max_delay=10)

    with pytest.raises(AssertionError, match="backend delay"):
        approx_solve(make_fastslow_instance(), Objective.PEAK_AOI, backend=lying_backend)


# --- cross-objective relation checks ----------------------------------------


def outcomes_for(inst):
    return (
        solve_optimal(inst, Objective.PEAK_AOI),
        solve_optimal(inst, Objective.AVG_AOI),
        solve_optimal(inst, Objective.MAX_DELAY),
    )


def test_relations_fastslow_strict_ordering():
    inst = make_fastslow_instance()
    peak, avg, delay = outcomes_for(inst)
    checks = {c.name: c for c in check_objective_relations(peak, avg, delay, inst)}
    assert all(c.holds for c in checks.values()), checks
    assert min(peak.optimal_throughputs) > max(delay.optimal_throughputs)


def test_relations_triple_peak_vs_avg_strict():
    inst = make_triple_instance()
    peak, avg, delay = outcomes_for(inst)
    assert all(c.holds for c in check_objective_relations(peak, avg, delay, inst))
    assert min(peak.optimal_throughputs) > max(avg.optimal_throughputs)


def test_relations_degenerate_window():
    net = network(["s", "r"], [("e", "s", "r", 2, 4)])
    inst = Instance(net, "s", "r", F(4), F(2), F(2))
    peak, avg, delay = outcomes_for(inst)
    checks = check_objective_relations(peak, avg, delay, inst)
    assert all(c.holds for c in checks)
