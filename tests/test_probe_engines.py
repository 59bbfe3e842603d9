"""The probe stack answers must not depend on which engine settles them.

Each certificate ahead of the simplex (the truncated temporally repeated
flow, which settles most "yes" probes without an expansion, the period cut
of the physical network, the stalled pusher's residual cut and the float
solve with an exact dual certificate) is switched off by patching one
module-level name (for the temporally repeated flow and the period cut,
`mmd.PeriodScan.best_prefix` and `mmd.PeriodScan.cut`; with no best prefix
the cut starts from zero, which changes no answer), one at a time and all
together, and the answers and probe trails are held equal to
the normal stack's on a corpus slice.  So is
where the scan starts, the quickest bound in `mmd`: lowered to the shortest
delay, it changes the probe trails but not the delays or the schedules.
With the pusher off as well, every probe falls to the exact simplex.  The
corpus never reaches the float solve, so its snapped primal, the one "yes"
certificate from the float solve, is switched off on the complete-6 sweep
that needs it, with the temporally repeated flow off so the stall it exists
for happens.  The engine that settled each probe is read from
`MmdResult.engines`, and the engine tables of the corpus and complete-6 are
pinned.
"""

import sys
from collections import Counter
from fractions import Fraction as F

import pytest

from aoiflow import (
    Objective,
    build_expanded,
    build_flow_lp,
    feasible_periods,
    solve_lp,
    solve_optimal,
    validate_solution,
)
from aoiflow import flowlp as flowlp_module
from aoiflow import mmd as mmd_module
from aoiflow.experiments import (
    complete_graph,
    generate,
    grid_graph,
    pick_endpoints,
    run_sweep,
    scaled_instance,
    summarize_instance,
)
from aoiflow.flowlp import (
    Push,
    _scipy_solve,
    certify_value_below,
    group_augment,
    residual_cut,
    snap_primal,
)
from aoiflow.lp import violated_row
from aoiflow.maxflow import min_cost_prefixes, quickest_bound, shortest_delay
from aoiflow.mmd import PeriodScan, _min_max_delay_cached, min_max_delay, repeated_value
from conftest import corpus_instance, expansion_cut

SLICE = range(20, 32)

# name -> (module, attribute, replacement that never certifies, or for the
# scan's start, the shortest delay)
SWITCHES = {
    "quickest-bound": (
        mmd_module,
        "quickest_bound",
        lambda net, source, sink, amount: shortest_delay(net, source)[sink],
    ),
    "residual-cut": (flowlp_module, "residual_cut", lambda *args: float("inf")),
    "dual-certificate": (flowlp_module, "_scipy_solve", lambda program: None),
    "temporally-repeated": (
        mmd_module.PeriodScan,
        "best_prefix",
        lambda self, bound: (None, 0),
    ),
    "period-cut": (mmd_module.PeriodScan, "cut", lambda self, bound: float("inf")),
}


def complete6(seed):
    """The `aoiflow batch` instance of complete-6 at ``seed``."""
    net = generate(complete_graph(6, seed))
    return scaled_instance(net, *pick_endpoints(net, seed), 5, 10)


def tally(results):
    """How many probes each engine settled, read from the results."""
    return Counter(engine for r in results if r is not None for engine in r.engines)


def solve_slice(seeds=SLICE):
    """Delay, schedule and probe trail per (seed, period) from a cold cache,
    and the engines that settled the probes."""
    _min_max_delay_cached.cache_clear()
    out = {}
    for seed in seeds:
        inst = corpus_instance(seed)
        for period in feasible_periods(inst):
            out[seed, period] = min_max_delay(inst, period)
    return out, tally(out.values())


def view(out, *fields):
    """Each result reduced to the named fields."""
    return {key: r and tuple(getattr(r, f) for f in fields) for key, r in out.items()}


@pytest.fixture
def fresh_cache():
    _min_max_delay_cached.cache_clear()
    yield
    _min_max_delay_cached.cache_clear()


@pytest.mark.parametrize(
    "off",
    [
        ("quickest-bound",),
        ("period-cut",),
        ("residual-cut",),
        ("dual-certificate",),
        ("temporally-repeated",),
        ("quickest-bound", "residual-cut"),
        ("quickest-bound", "residual-cut", "dual-certificate"),
        tuple(SWITCHES),
    ],
    ids="+".join,
)
def test_certificate_switched_off_keeps_answers(off, monkeypatch, fresh_cache):
    baseline, base_engines = solve_slice()
    assert base_engines["period-cut"] > 0
    assert base_engines["temporally-repeated"] > 0
    switched = set(off)
    if "residual-cut" in off:  # else the period cut settles its probes first
        switched.add("period-cut")
    for name in switched:
        monkeypatch.setattr(*SWITCHES[name])
    forced, engines = solve_slice()
    fields = ["max_delay", "solution", "probes"]
    if "quickest-bound" in off:  # the search starts lower, so trails differ
        assert sum(engines.values()) > sum(base_engines.values())
        fields.remove("probes")
    if "temporally-repeated" in off:  # the pusher's flows make other schedules
        fields.remove("solution")
    assert view(forced, *fields) == view(baseline, *fields)
    for name in ("period-cut", "residual-cut", "temporally-repeated"):
        if name in switched:
            assert engines[name] == 0
    if off == ("period-cut",):  # the residual cut takes over
        assert engines["residual-cut"] > 0
    if off == ("quickest-bound", "residual-cut"):  # the float dual takes over
        assert engines["dual-certificate"] > 0
    if {"residual-cut", "dual-certificate"} <= set(off):
        assert engines["simplex"] > 0


def test_temporally_repeated_switched_off_keeps_corpus_trails(monkeypatch, fresh_cache):
    corpus = range(200)
    baseline, base_engines = solve_slice(corpus)
    monkeypatch.setattr(*SWITCHES["temporally-repeated"])
    forced, engines = solve_slice(corpus)
    assert view(forced, "max_delay", "probes") == view(baseline, "max_delay", "probes")
    assert base_engines["temporally-repeated"] > 0 == engines["temporally-repeated"]
    assert engines["augment"] > base_engines["augment"]


def test_grid_seed7_engine_tally(fresh_cache):
    # the bench's timed grid solve: the temporally repeated flow settles
    # every "yes" probe, the period cut every "no", so the pusher never runs;
    # both solves stop after periods 10 and 11, and the average solve reuses
    # the peak solve's cached answers
    inst = scaled_instance(generate(grid_graph(4, 4, seed=7)), "a1_1", "a4_4", 10)
    periods = set()
    for objective in (Objective.PEAK_AOI, Objective.AVG_AOI):
        periods |= set(solve_optimal(inst, objective).grid)
    assert periods == {10, 11}
    assert _min_max_delay_cached.cache_info().misses == 2
    engines = tally(min_max_delay(inst, period) for period in periods)
    assert engines == Counter({"temporally-repeated": 2, "period-cut": 3})


def window_tally(instances):
    """The engines that settled every probe of every feasible period."""
    results = [
        min_max_delay(inst, period)
        for inst in instances
        for period in feasible_periods(inst)
    ]
    for result in filter(None, results):
        assert len(result.engines) == len(result.probes)
    return tally(results)


def test_engine_table_on_the_corpus(fresh_cache):
    # no probe of the acceptance corpus reaches the float solve
    engines = window_tally(corpus_instance(seed) for seed in range(200))
    assert engines == Counter(
        {"temporally-repeated": 244, "period-cut": 19, "augment": 7, "residual-cut": 1}
    )
    assert sum(engines.values()) == 271


def test_engine_table_on_complete6(fresh_cache):
    pytest.importorskip("scipy")
    engines = window_tally([complete6(seed) for seed in range(30)])
    assert engines == Counter(
        {
            "temporally-repeated": 286,
            "period-cut": 65,
            "augment": 12,
            "residual-cut": 30,
            "primal-snap": 2,
        }
    )
    assert sum(engines.values()) == 395


def test_grid_seed7_builds_no_expansion(monkeypatch, fresh_cache):
    # every probe of the bench's timed grid solve is settled on the physical
    # network: the temporally repeated flow or the period cut
    def refuse_build(*args):
        raise AssertionError("expansion built")

    monkeypatch.setattr(mmd_module, "build_expanded", refuse_build)
    inst = scaled_instance(generate(grid_graph(4, 4, seed=7)), "a1_1", "a4_4", 10)
    for objective in (Objective.PEAK_AOI, Objective.AVG_AOI):
        solve_optimal(inst, objective)


def test_period_cut_matches_the_expansion_cut(monkeypatch, fresh_cache):
    # every bound the scan asks the cut about, that is every bound that
    # neither the quickest bound nor the temporally repeated flow settles
    cut = mmd_module.PeriodScan.cut
    asked = []

    def recording_cut(scan, bound):
        value = cut(scan, bound)
        asked.append((scan.inst, scan.period, bound, value))
        return value

    monkeypatch.setattr(mmd_module.PeriodScan, "cut", recording_cut)
    instances = [corpus_instance(seed) for seed in range(200)]
    instances += [complete6(seed) for seed in range(30)]
    instances.append(
        scaled_instance(generate(grid_graph(4, 4, seed=7)), "a1_1", "a4_4", 10)
    )
    for inst in instances:
        for period in feasible_periods(inst):
            min_max_delay(inst, period)
    refuted = 0
    for inst, period, bound, value in asked:
        assert value == expansion_cut(inst, period, bound), (inst, period, bound)
        refuted += value < inst.batch
    assert 0 < refuted < len(asked)


def test_grid_seed7_cut_carries_its_max_flow(monkeypatch, fresh_cache):
    # at T = 10 the cut refutes bounds 26, 27 and 28; the first max flow
    # starts from the truncated temporally repeated flow, worth the best
    # prefix's repeated value at 26, the others continue the bound before's
    starts, ends = [], []
    augment = mmd_module._augment

    def recording_augment(net, source, sink, capacity, flow):
        starts.append(list(flow))
        value = augment(net, source, sink, capacity, flow)
        ends.append(list(flow))
        return value

    monkeypatch.setattr(mmd_module, "_augment", recording_augment)
    inst = scaled_instance(generate(grid_graph(4, 4, seed=7)), "a1_1", "a4_4", 10)
    result = min_max_delay(inst, 10)
    assert result.probes == ((26, False), (27, False), (28, False), (29, True))
    assert result.engines == ("period-cut",) * 3 + ("temporally-repeated",)
    net = inst.network
    prefixes = min_cost_prefixes(net, inst.sender, inst.receiver)
    sent = sum(
        flow * ((link.tail == inst.sender) - (link.head == inst.sender))
        for link, flow in zip(net.links, starts[0])
    )
    assert sent == max(repeated_value(p, 10, 26) for p in prefixes) == 650
    assert starts[1:] == ends[:2]


def test_simplex_only_stack_matches(monkeypatch, fresh_cache):
    baseline, _ = solve_slice()
    for name in ("period-cut", "residual-cut", "dual-certificate", "temporally-repeated"):
        monkeypatch.setattr(*SWITCHES[name])
    monkeypatch.setattr(
        flowlp_module, "group_augment", lambda *args, **kwargs: Push(None, None)
    )
    forced, engines = solve_slice()
    # same delays and trails; the simplex's flows make other schedules
    assert view(forced, "max_delay", "probes") == view(baseline, "max_delay", "probes")
    assert set(engines) == {"simplex"}


def refuse_float_solve(program):
    raise AssertionError("float solve reached")


def test_scipy_never_called_on_corpus(monkeypatch, fresh_cache):
    # above the quickest bound the residual cut settles every probe the
    # pusher cannot on the acceptance corpus
    monkeypatch.setattr(flowlp_module, "_scipy_solve", refuse_float_solve)
    for seed in range(200):
        inst = corpus_instance(seed)
        for period in feasible_periods(inst):
            min_max_delay(inst, period)


def test_scipy_never_called_on_grid16_window(monkeypatch, fresh_cache):
    # the bench's timed grid solve; importing scipy there would triple its
    # peak memory
    monkeypatch.setattr(flowlp_module, "_scipy_solve", refuse_float_solve)
    inst = scaled_instance(generate(grid_graph(4, 4, seed=7)), "a1_1", "a4_4", 10)
    for objective in (Objective.PEAK_AOI, Objective.AVG_AOI):
        solve_optimal(inst, objective)


def test_scipy_never_called_on_batch_complete6_seed4(monkeypatch, fresh_cache):
    # the bench's timed batch, and the sweep of every period of its window:
    # the temporally repeated flow settles the period-5 stall the snapped
    # primal used to, so scipy is never imported
    monkeypatch.setattr(flowlp_module, "_scipy_solve", refuse_float_solve)
    summarize_instance("complete-4", complete6(4))
    run_sweep(complete6(4))


def test_float_dual_settles_what_the_cut_misses():
    # grid seed 16 at period 12, bound 24: the pusher stalls and neither
    # cut's bound falls below the batch
    pytest.importorskip("scipy")
    inst = scaled_instance(generate(grid_graph(4, 4, seed=16)), "a1_1", "a4_4", 10)
    period, bound = 12, 24
    scan = PeriodScan(inst, period)
    assert scan.cut(bound) == 500 >= inst.batch == 500
    exp = build_expanded(inst, bound, period)
    push = group_augment(exp)
    assert push.flow is None and push.reached is not None
    assert residual_cut(exp, push.reached) == 500
    program = build_flow_lp(exp).program
    assert certify_value_below(program, inst.batch, _scipy_solve(program))
    assert scan.settle(bound) == ("dual-certificate", None)


def float_verdicts():
    """The engine and the answer of `PeriodScan.settle` on the grid probe
    above, which the float dual settles, and on complete-6 seed 4 at period
    5, bound 11, which the snapped primal settles once the temporally
    repeated flow is off; each schedule is checked."""
    grid = scaled_instance(generate(grid_graph(4, 4, seed=16)), "a1_1", "a4_4", 10)
    verdicts = []
    for inst, period, bound in ((grid, 12, 24), (complete6(4), 5, 11)):
        engine, solution = PeriodScan(inst, period).settle(bound)
        if solution is not None:
            ok, max_delay, violations = validate_solution(inst, solution)
            assert ok and max_delay == bound, violations
        verdicts.append((engine, solution is not None))
    return verdicts


@pytest.mark.parametrize("failure", ["no-scipy", "highs-status"])
def test_failed_float_solve_falls_to_the_simplex(monkeypatch, failure):
    scipy_optimize = pytest.importorskip("scipy.optimize")
    monkeypatch.setattr(*SWITCHES["temporally-repeated"])
    assert float_verdicts() == [("dual-certificate", False), ("primal-snap", True)]
    if failure == "no-scipy":
        monkeypatch.setitem(sys.modules, "scipy.optimize", None)
    else:
        linprog = scipy_optimize.linprog

        def stopped(*args, **kwargs):  # HiGHS stops at its iteration limit
            return linprog(*args, options={"maxiter": 0}, **kwargs)

        monkeypatch.setattr(scipy_optimize, "linprog", stopped)
    program = build_flow_lp(build_expanded(complete6(4), 11, 5)).program
    assert _scipy_solve(program) is None
    assert float_verdicts() == [("simplex", False), ("simplex", True)]


def test_period_cut_settles_what_the_residual_cut_misses(monkeypatch, fresh_cache):
    # grid seed 13 at period 10, bound 24: the stalled pusher's cut is 530,
    # above the batch of 500, and the exact simplex takes over 20 s here
    inst = scaled_instance(generate(grid_graph(4, 4, seed=13)), "a1_1", "a4_4", 10)
    assert PeriodScan(inst, 10).cut(24) == 490 < inst.batch == 500
    exp = build_expanded(inst, 24, 10)
    push = group_augment(exp)
    assert push.flow is None and residual_cut(exp, push.reached) == 530
    # the scan refutes bound 24 without building its expansion
    built = []

    def recording_build(inst, bound, period):
        built.append(bound)
        return build_expanded(inst, bound, period)

    monkeypatch.setattr(mmd_module, "build_expanded", recording_build)
    assert (24, False) in min_max_delay(inst, 10).probes
    assert 24 not in built


def test_period_cut_settles_large_periods_without_the_pusher(monkeypatch, fresh_cache):
    # grid 2x2 at period 400: the pusher needed about one augmenting path
    # per residue class to stall below the answer, seconds per probe
    def refuse_pusher(*args):
        raise AssertionError("pusher reached")

    monkeypatch.setattr(flowlp_module, "group_augment", refuse_pusher)
    inst = scaled_instance(generate(grid_graph(2, 2, seed=0)), "a1_1", "a2_2", 400, 1)
    result = min_max_delay(inst, 400)
    assert result.max_delay == 409
    assert result.probes == ((408, False), (409, True))


def test_dual_certificates_never_contradict_exact_optimum():
    pytest.importorskip("scipy")
    for seed in range(10, 16):
        inst = corpus_instance(seed)
        period = inst.max_period
        for bound in (3, 6, 9, 12):
            exp = build_expanded(inst, bound, period)
            program = build_flow_lp(exp).program
            exact = solve_lp(program).objective_value
            if not exp.links:  # no copy lies on a route: nothing to certify
                assert exact == 0
                continue
            fr = _scipy_solve(program)
            if certify_value_below(program, inst.batch, fr):
                assert exact < inst.batch
            if certify_value_below(program, exact, fr):
                pytest.fail("certificate below the exact optimum")


def test_residual_cut_never_below_exact_optimum():
    stalls = 0
    for seed in range(10, 16):
        inst = corpus_instance(seed)
        period = inst.max_period
        for bound in (3, 6, 9, 12):
            exp = build_expanded(inst, bound, period)
            if not exp.links:
                continue
            push = group_augment(exp)
            if push.reached is None:
                continue
            stalls += 1
            program = build_flow_lp(exp).program
            exact = solve_lp(program).objective_value
            reached = push.reached
            leaving = [el for el in exp.links if el.tail in reached and el.head not in reached]
            # residual_cut's precondition: no holding link leaves the set
            assert all(el.link_id is not None for el in leaving), (seed, bound)
            assert residual_cut(exp, reached) >= exact, (seed, bound)
    assert stalls > 0


def test_period_cut_refutes_an_expansion_without_links():
    # below the shortest delay no link has a copy on a route, so the period
    # cut reads 0; the expansion has no links, and the pusher's search
    # reaches the source alone, whose residual cut reads 0 as well
    for seed in range(5):
        inst = corpus_instance(seed)
        bound = shortest_delay(inst.network, inst.sender)[inst.receiver] - 1
        assert PeriodScan(inst, inst.max_period).cut(bound) == 0, seed
        exp = build_expanded(inst, bound, inst.max_period)
        assert not exp.links
        push = group_augment(exp)
        assert push.flow is None and residual_cut(exp, push.reached) == 0, seed


def test_period_cut_never_below_exact_optimum():
    refuted = 0
    for seed in range(10, 16):
        inst = corpus_instance(seed)
        period = inst.max_period
        for bound in (3, 6, 9, 12):
            exp = build_expanded(inst, bound, period)
            if not exp.links:
                continue
            exact = solve_lp(build_flow_lp(exp).program).objective_value
            cut = PeriodScan(inst, period).cut(bound)
            assert cut >= exact, (seed, bound)
            refuted += cut < inst.batch
    assert refuted > 0


def flow_value(program, values):
    return sum(v * c for v, c in zip(values, program.objective))


def test_primal_snap_settles_the_stall_it_exists_for(monkeypatch):
    # complete-6 seed 4 at period 5, bound 11: the pusher stalls short of the
    # batch, the cut cannot refute it, and HiGHS's primal snaps to a flow
    pytest.importorskip("scipy")
    monkeypatch.setattr(*SWITCHES["temporally-repeated"])
    inst = complete6(4)
    period, bound = 5, 11
    exp = build_expanded(inst, bound, period)
    push = group_augment(exp)
    assert push.flow is None and push.reached is not None
    assert residual_cut(exp, push.reached) == 660 >= inst.batch == 650
    program = build_flow_lp(exp).program
    flow = snap_primal(program, inst.batch, _scipy_solve(program))
    assert flow is not None
    assert {type(v) for v in flow.values()} == {int}
    values = [flow.get(j, F(0)) for j in range(program.n_vars)]
    assert violated_row(program, values) is None
    assert flow_value(program, values) >= inst.batch

    engine, solution = PeriodScan(inst, period).settle(bound)
    assert engine == "primal-snap"
    ok, max_delay, violations = validate_solution(inst, solution)
    assert ok, violations
    assert max_delay == bound


def test_float_solver_moves_only_the_snapped_schedules(monkeypatch, fresh_cache):
    # the two probes of complete-6 that HiGHS's snapped primal settles: with
    # no float solve the simplex settles them instead, at the same bound and
    # after the same trail, with another valid schedule
    pytest.importorskip("scipy")
    cases = [(complete6(5), 6), (complete6(11), 5)]
    snapped = [min_max_delay(inst, period) for inst, period in cases]
    monkeypatch.setattr(flowlp_module, "_scipy_solve", lambda program: None)
    _min_max_delay_cached.cache_clear()
    exact = [min_max_delay(inst, period) for inst, period in cases]
    for (inst, _), a, b in zip(cases, snapped, exact):
        assert (a.max_delay, a.probes) == (b.max_delay, b.probes)
        assert (a.engines[-1], b.engines[-1]) == ("primal-snap", "simplex")
        for result in (a, b):
            ok, max_delay, violations = validate_solution(inst, result.solution)
            assert ok and max_delay == result.max_delay, violations


def refuse_simplex(*args):
    raise AssertionError("exact simplex reached")


def test_simplex_never_called_on_grid_seed0(monkeypatch, fresh_cache):
    # two probes at period 10, bound 29 stall the pusher; the exact simplex
    # took over 20 s on them, the snapped primal settles both
    pytest.importorskip("scipy")
    monkeypatch.setattr(mmd_module, "solve_lp", refuse_simplex)
    inst = scaled_instance(generate(grid_graph(4, 4, seed=0)), "a1_1", "a4_4", 10)
    for objective in (Objective.PEAK_AOI, Objective.AVG_AOI):
        best = solve_optimal(inst, objective).best
        assert (best.period, best.max_delay) == (10, 29)
        assert (best.peak_aoi, best.avg_aoi) == (38, F(67, 2))


def test_primal_snap_never_exceeds_exact_optimum():
    pytest.importorskip("scipy")
    snaps = 0
    for seed in range(10, 16):
        inst = corpus_instance(seed)
        period = inst.max_period
        for bound in (3, 6, 9, 12):
            exp = build_expanded(inst, bound, period)
            if not exp.links:  # no copy lies on a route: nothing to snap
                continue
            program = build_flow_lp(exp).program
            exact = solve_lp(program).objective_value
            fr = _scipy_solve(program)
            flow = snap_primal(program, exact, fr)
            if flow is not None:
                snaps += 1
                values = [flow.get(j, F(0)) for j in range(program.n_vars)]
                assert violated_row(program, values) is None, (seed, bound)
                assert flow_value(program, values) == exact, (seed, bound)
            assert snap_primal(program, exact + F(1, 1000), fr) is None, (seed, bound)
    assert snaps > 0


def test_primal_snap_switched_off_keeps_reports(monkeypatch, fresh_cache):
    pytest.importorskip("scipy")
    monkeypatch.setattr(*SWITCHES["temporally-repeated"])
    inst = complete6(4)
    baseline = [row.opt for row in run_sweep(inst)]
    engines = window_tally([inst])
    assert (engines["primal-snap"], engines["simplex"]) == (1, 0)
    monkeypatch.setattr(flowlp_module, "snap_primal", lambda *args: None)
    _min_max_delay_cached.cache_clear()
    forced = [row.opt for row in run_sweep(inst)]
    engines = window_tally([inst])
    assert (engines["primal-snap"], engines["simplex"]) == (0, 1)
    assert forced == baseline


def expanded_flow(exp, solution):
    """A schedule of delay at most ``exp.bound`` as a flow on the expansion:
    each entry holds at a node from its arrival to its push, and at the
    receiver from its arrival to the bound."""
    index = {}
    for j, el in enumerate(exp.links):
        index[el.link_id, exp.node_of(el.tail)[0], el.push] = j
    flow = {}

    def carry(key, amount):
        flow[index[key]] = flow.get(index[key], F(0)) + amount

    net = exp.inst.network
    for entry in solution.entries:
        nodes = entry.path_nodes(net)
        pushes = entry.push_offsets(net) + (exp.bound,)
        for hop, node in enumerate(nodes):
            for layer in range(entry.offsets[hop], pushes[hop]):
                carry((None, node, layer), entry.amount)
            if hop < len(entry.links):
                carry((entry.links[hop], node, pushes[hop]), entry.amount)
    return [flow.get(j, F(0)) for j in range(len(exp.links))]


def repeated_schedules(instances, monkeypatch):
    """(instance, period, bound, schedule) for every schedule the temporally
    repeated flow wrote while solving every feasible period."""
    written = []
    settle = mmd_module.PeriodScan.settle

    def recording(scan, bound):
        engine, solution = settle(scan, bound)
        if engine == "temporally-repeated":
            written.append((scan.inst, scan.period, bound, solution))
        return engine, solution

    monkeypatch.setattr(mmd_module.PeriodScan, "settle", recording)
    for inst in instances:
        for period in feasible_periods(inst):
            min_max_delay(inst, period)
    return written


def test_temporally_repeated_flows_pass_every_program_row(monkeypatch, fresh_cache):
    corpus = [corpus_instance(seed) for seed in range(200)]
    complete = [complete6(seed) for seed in range(30)]
    written = repeated_schedules(corpus + complete, monkeypatch)
    assert len(written) > 400
    for inst, period, bound, solution in written:
        exp = build_expanded(inst, bound, period)
        program = build_flow_lp(exp).program
        values = expanded_flow(exp, solution)
        assert violated_row(program, values) is None, (inst, period, bound)
        assert flow_value(program, values) == inst.batch == solution.total_amount


def test_repeated_value_never_above_exact_optimum():
    # every bound the scan visits on the acceptance corpus
    checked = certified = 0
    for seed in range(200):
        inst = corpus_instance(seed)
        prefixes = min_cost_prefixes(inst.network, inst.sender, inst.receiver)
        bottom = quickest_bound(inst.network, inst.sender, inst.receiver, inst.batch)
        for period in feasible_periods(inst):
            result = min_max_delay(inst, period)
            if result is None:
                continue
            for bound in range(bottom, result.max_delay + 1):
                value = max(repeated_value(p, period, bound) for p in prefixes)
                exp = build_expanded(inst, bound, period)
                program = build_flow_lp(exp).program
                exact = solve_lp(program).objective_value
                assert value <= exact, (seed, period, bound)
                checked += 1
                certified += value >= inst.batch
    assert certified > 0 and checked > certified
