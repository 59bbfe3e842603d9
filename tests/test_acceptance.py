"""Acceptance suite: one test per release criterion, zero-tolerance values.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Everything asserted here is exact rational arithmetic; the only
tolerances are the two wall-clock budgets, which are part of the criteria.
"""

import time
from fractions import Fraction as F

from aoiflow import (
    AllInfeasibleError,
    Instance,
    Objective,
    aoi_from_max_delay,
    approx_solve,
    build_expanded,
    build_flow_lp,
    check_objective_relations,
    feasible_periods,
    min_max_delay,
    min_max_delay_oracle,
    network,
    simulate_aoi,
    solve_lp,
    solve_optimal,
    validate_solution,
)
from aoiflow.experiments import (
    complete_graph,
    erdos_renyi,
    generate,
    grid_graph,
    run_sweep,
    scaled_instance,
    summarize_instance,
)
from aoiflow.fileio import network_to_dict
from aoiflow.lp import OPTIMAL
from conftest import (
    corpus_instance,
    make_fastslow_instance,
    make_triple_instance,
    make_knee_instance,
)

CORPUS_SIZE = 200


def _corpus():
    return [corpus_instance(seed) for seed in range(CORPUS_SIZE)]


def _solved_pairs(instances):
    """(instance, period, MmdResult) for every supportable subproblem."""
    out = []
    for inst in instances:
        for period in feasible_periods(inst):
            result = min_max_delay(inst, period)
            if result is not None:
                out.append((inst, period, result))
    return out


def _grid_reports(inst):
    """Every supportable rate's report, from a full sweep of the window."""
    return {row.throughput: row.opt for row in run_sweep(inst) if row.opt is not None}


def _passed(n, detail):
    print(f"[acceptance] criterion {n}: PASS - {detail}")


def test_criterion_1_fastslow_golden_table():
    start = time.monotonic()
    inst = make_fastslow_instance()
    expected = {
        10: (10, 19, F(29, 2)),
        9: (11, 19, F(15)),
        8: (11, 18, F(29, 2)),
        7: (11, 17, F(14)),
    }
    for period, (delay, peak, avg) in expected.items():
        result = min_max_delay(inst, period)
        assert result.max_delay == delay, (period, result.max_delay)
        assert aoi_from_max_delay(result.max_delay, period) == (peak, avg)
    peak_outcome = solve_optimal(inst, Objective.PEAK_AOI)
    avg_outcome = solve_optimal(inst, Objective.AVG_AOI)
    delay_outcome = solve_optimal(inst, Objective.MAX_DELAY)
    assert peak_outcome.optimal_throughputs == {F(10, 7)}
    assert avg_outcome.optimal_throughputs == {F(10, 7)}
    assert delay_outcome.optimal_throughputs == {F(1)}
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _passed(1, f"two-link table exact, optimum sets exact, {elapsed:.2f}s < 5s")


def test_criterion_2_triple_golden_table():
    inst = make_triple_instance()
    expected = {
        5: (5, 9, F(7)),
        4: (6, 9, F(15, 2)),
        3: (7, 9, F(8)),
        2: (7, 8, F(15, 2)),
    }
    for period, (delay, peak, avg) in expected.items():
        result = min_max_delay(inst, period)
        assert result.max_delay == delay, (period, result.max_delay)
        assert aoi_from_max_delay(result.max_delay, period) == (peak, avg)
    assert solve_optimal(inst, Objective.PEAK_AOI).optimal_throughputs == {F(5, 2)}
    assert solve_optimal(inst, Objective.AVG_AOI).optimal_throughputs == {F(1)}
    _passed(2, "three-link table exact, optimum sets exact")


def test_criterion_3_knee_curve_shape():
    slow7 = _grid_reports(make_knee_instance(7))
    assert slow7[F(5, 6)].peak_aoi == 10
    assert slow7[F(1)].peak_aoi == 9
    assert slow7[F(5, 4)].peak_aoi == 10
    assert slow7[F(1)].avg_aoi == 7
    assert slow7[F(5, 6)].avg_aoi == F(15, 2)
    assert slow7[F(5, 4)].avg_aoi == F(17, 2)

    slow6 = _grid_reports(make_knee_instance(6))
    assert slow6[F(5, 3)].peak_aoi == 8
    assert slow6[F(5, 4)].peak_aoi == 9
    assert slow6[F(1)].peak_aoi == 9
    assert slow6[F(5, 3)].avg_aoi == 7
    assert slow6[F(5, 4)].avg_aoi == F(15, 2)
    assert slow6[F(1)].avg_aoi == 7

    # non-monotone: the optimal peak/average age dips at rate 1 (d = 7)
    assert slow7[F(5, 6)].peak_aoi > slow7[F(1)].peak_aoi < slow7[F(5, 4)].peak_aoi
    assert slow7[F(5, 6)].avg_aoi > slow7[F(1)].avg_aoi < slow7[F(5, 4)].avg_aoi
    # non-concave: the midpoint rate beats both endpoints' mixture (d = 7)
    mix = F(3, 5) * slow7[F(5, 6)].peak_aoi + F(2, 5) * slow7[F(5, 4)].peak_aoi
    assert slow7[F(1)].peak_aoi < mix
    mix_avg = F(3, 5) * slow7[F(5, 6)].avg_aoi + F(2, 5) * slow7[F(5, 4)].avg_aoi
    assert slow7[F(1)].avg_aoi < mix_avg
    # non-convex: the midpoint rate exceeds the endpoints' mixture (d = 6)
    mix6 = F(5, 8) * slow6[F(1)].peak_aoi + F(3, 8) * slow6[F(5, 3)].peak_aoi
    assert slow6[F(5, 4)].peak_aoi > mix6
    mix6_avg = F(5, 8) * slow6[F(1)].avg_aoi + F(3, 8) * slow6[F(5, 3)].avg_aoi
    assert slow6[F(5, 4)].avg_aoi > mix6_avg
    _passed(3, "knee-curve values exact; curve is non-monotone, non-convex, non-concave")


def test_criterion_4_slot_simulation_identity():
    pairs = _solved_pairs(_corpus())
    assert len(pairs) >= 100, f"corpus too small: {len(pairs)} solved subproblems"
    for inst, period, result in pairs[:100]:
        simulated = simulate_aoi(result.solution)
        assert simulated == aoi_from_max_delay(result.max_delay, period)
    _passed(4, "slot simulation == closed form on 100 solved subproblems")


def test_criterion_5_feasibility_equivalence():
    instances = _corpus()
    pairs = _solved_pairs(instances)
    checked_reverse = 0
    for inst, period, result in pairs:
        # constructive side: the probed minimum decomposes into a schedule
        # no slower than every feasible probe
        ok, max_delay, violations = validate_solution(inst, result.solution)
        assert ok, violations
        for bound, feasible in result.probes:
            if feasible:
                assert max_delay <= bound
    # reverse side: a validated schedule's (period, delay) makes the
    # reference program carry the batch
    for inst, period, result in pairs[:: max(1, len(pairs) // 50)]:
        flow_lp = build_flow_lp(build_expanded(inst, result.max_delay, period))
        sol = solve_lp(flow_lp.program)
        assert sol.status == OPTIMAL and sol.objective_value >= inst.batch
        checked_reverse += 1
    _passed(
        5,
        f"{len(pairs)} schedules validated across {len(instances)} instances; "
        f"{checked_reverse} reverse LP certificates",
    )


def test_criterion_6_oracle_equivalence():
    instances = _corpus()
    agreements = 0
    monotonicity_flags = []
    for inst in instances:
        per_period = {}
        for period in feasible_periods(inst):
            fast = min_max_delay(inst, period)
            slow = min_max_delay_oracle(inst, period)
            assert (fast is None) == (slow is None), (inst, period)
            if fast is not None:
                assert fast.max_delay == slow.max_delay, (inst, period)
                per_period[period] = fast.max_delay
                agreements += 1
        # larger periods relax the residue constraints; flag (don't fail)
        # any non-monotone step since no claim guarantees it
        periods = sorted(per_period)
        for a, b in zip(periods, periods[1:]):
            if b == a + 1 and per_period[b] > per_period[a]:
                monotonicity_flags.append((a, b, per_period[a], per_period[b]))
    if monotonicity_flags:
        print(f"[acceptance] note: delay not monotone in T at {monotonicity_flags}")
    _passed(6, f"binary search == ascending oracle on {agreements} subproblems")


def test_criterion_7_ordering_and_gap_suite():
    checked = 0
    for inst in _corpus():
        try:
            peak = solve_optimal(inst, Objective.PEAK_AOI)
        except AllInfeasibleError:
            continue
        avg = solve_optimal(inst, Objective.AVG_AOI)
        delay = solve_optimal(inst, Objective.MAX_DELAY)
        for check in check_objective_relations(peak, avg, delay, inst):
            assert check.holds, (inst, check.name, check.detail)
        checked += 1

    near_tight = 0
    for n, m in [(4, 2), (5, 2), (5, 3), (6, 3), (6, 2), (7, 4)]:
        net = network(
            ["s", "r"], [("e1", "s", "r", 1, 1), ("e2", "s", "r", n + 1, n)]
        )
        inst = Instance(net, "s", "r", F(n), F(1), F(n, m))
        peak = solve_optimal(inst, Objective.PEAK_AOI)
        delay = solve_optimal(inst, Objective.MAX_DELAY)
        reports = _grid_reports(inst)
        worst = max(reports[r].peak_aoi for r in delay.optimal_throughputs)
        gap = worst - peak.best.peak_aoi
        window = F(n) - F(m)
        assert gap >= window - 1, (n, m, gap)
        assert gap <= window, (n, m, gap)
        near_tight += 1
    _passed(
        7,
        f"orderings and gaps exact on {checked} instances; "
        f"near-tight family hits the bound on {near_tight} parameterizations",
    )


def test_criterion_8_approximation_guarantees():
    checked = 0
    for inst in _corpus():
        try:
            peak = solve_optimal(inst, Objective.PEAK_AOI)
        except AllInfeasibleError:
            continue
        avg = solve_optimal(inst, Objective.AVG_AOI)
        expected_delay = None
        for objective, optimum in (
            (Objective.PEAK_AOI, peak.best.peak_aoi),
            (Objective.AVG_AOI, avg.best.avg_aoi),
        ):
            outcome = approx_solve(inst, objective)
            ok, max_delay, violations = validate_solution(inst, outcome.solution)
            assert ok, violations
            if expected_delay is None:
                from aoiflow.solvers import mmd1_exact

                backend = mmd1_exact(
                    inst.network, inst.sender, inst.receiver, inst.r_min
                )
                expected_delay = backend.max_delay + inst.max_period - 1
            assert outcome.report.max_delay == expected_delay == max_delay
            achieved = (
                outcome.report.peak_aoi
                if objective is Objective.PEAK_AOI
                else outcome.report.avg_aoi
            )
            assert F(achieved) <= outcome.ratio_bound * F(optimum), (
                inst,
                objective,
                achieved,
                optimum,
            )
        checked += 1
    _passed(8, f"replay schedules feasible with certified ratios on {checked} instances")


def test_criterion_9_generator_counts_and_determinism():
    cases = [
        (complete_graph(6, seed=13), 6, 15),
        (grid_graph(4, 4, seed=13), 16, 24),
        (erdos_renyi(20, 50, seed=13), 20, 50),
    ]
    for spec, nodes, edges in cases:
        net = generate(spec)
        assert len(net.nodes) == nodes
        assert len(net.links) == 2 * edges
        assert network_to_dict(generate(spec)) == network_to_dict(net)
    _passed(9, "complete-6/grid-16/ER(20,50) counts exact; regeneration identical")


def test_criterion_10_grid_scale_budget():
    net = generate(grid_graph(4, 4, seed=7))
    inst = scaled_instance(net, "a1_1", "a4_4", 10)
    assert len(feasible_periods(inst)) == 10
    start = time.monotonic()
    peak = solve_optimal(inst, Objective.PEAK_AOI)
    avg = solve_optimal(inst, Objective.AVG_AOI)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    ok, _, violations = validate_solution(inst, peak.solution)
    assert ok, violations
    ok, _, violations = validate_solution(inst, avg.solution)
    assert ok, violations

    # sign checks on regenerated corpora: the enumerated optimum never loses
    # to the steady-rate replay
    signs = 0
    for spec, sender, receiver, scale in [
        (complete_graph(6, seed=3), "a1", "a6", 5),
        (grid_graph(4, 4, seed=3), "a1_1", "a4_4", 5),
    ]:
        g = generate(spec)
        sweep_inst = scaled_instance(g, sender, receiver, scale, n_periods=4)
        summary = summarize_instance("sign", sweep_inst)
        assert summary.peak_reduction >= 0
        assert summary.avg_reduction >= 0
        signs += 1
    _passed(
        10,
        f"grid-16 at 10x capacity solved both objectives in {elapsed:.1f}s < 120s; "
        f"optimal <= replay on {signs} regenerated instances",
    )
