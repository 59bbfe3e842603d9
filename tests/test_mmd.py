from fractions import Fraction as F

import pytest

from aoiflow import (
    Instance,
    ModelError,
    build_expanded,
    build_flow_lp,
    decompose,
    extract_edge_flow,
    feasible_periods,
    min_max_delay,
    min_max_delay_oracle,
    network,
    normalize_holding,
    solve_lp,
    validate_solution,
)
from aoiflow import mmd as mmd_module
from aoiflow.flowlp import period_cut
from aoiflow.experiments import (
    complete_graph,
    generate,
    grid_graph,
    pick_endpoints,
    scaled_instance,
)
from aoiflow.maxflow import decompose_paths, max_flow, min_cost_prefixes, quickest_bound
from aoiflow.mmd import _min_max_delay_cached, lift_path_flow, repeated_value
from aoiflow.solvers import mmd1_exact
from conftest import corpus_instance, make_fastslow_instance, make_triple_instance


def test_fastslow_delays_per_period():
    inst = make_fastslow_instance()
    assert min_max_delay(inst, 7).max_delay == 11
    assert min_max_delay(inst, 10).max_delay == 10


def test_triple_delays_per_period():
    inst = make_triple_instance()
    assert min_max_delay(inst, 4).max_delay == 6
    assert min_max_delay(inst, 5).max_delay == 5


def test_single_fat_link_delivers_at_once():
    net = network(["s", "r"], [("e", "s", "r", 1, 100)])
    inst = Instance(net, "s", "r", F(12), F(3), F(4))
    for period in (3, 4):
        result = min_max_delay(inst, period)
        assert result.max_delay == 1


def test_result_invariants_fastslow():
    inst = make_fastslow_instance()
    result = min_max_delay(inst, 8)
    ok, max_delay, violations = validate_solution(inst, result.solution)
    assert ok and max_delay == result.max_delay == 11
    assert any(m == result.max_delay and feas for m, feas in result.probes)
    assert not any(feas for m, feas in result.probes if m < result.max_delay)


def test_infeasible_period_returns_none():
    net = network(["s", "r"], [("e", "s", "r", 1, 1)])
    inst = Instance(net, "s", "r", F(6), F(1), F(3))
    assert min_max_delay(inst, 2) is None  # needs rate 3 > bandwidth 1
    assert min_max_delay_oracle(inst, 2) is None
    assert min_max_delay(inst, 6).max_delay == 6


def test_period_outside_window_rejected():
    inst = make_fastslow_instance()
    with pytest.raises(ModelError):
        min_max_delay(inst, 6)


@pytest.mark.parametrize("search", [min_max_delay, min_max_delay_oracle])
@pytest.mark.parametrize("horizon", [0, -5])
def test_horizon_below_one_rejected(search, horizon):
    with pytest.raises(ModelError, match="horizon must be at least 1"):
        search(make_fastslow_instance(), 7, horizon)


def test_expansion_sized_to_the_bracket(monkeypatch):
    # a window up to T=20000 must not size the expansion asked at T=1
    net = network(["s", "r"], [("e", "s", "r", 1, 1)])
    inst = Instance(net, "s", "r", F(1), F(1, 20000), F(1))
    bounds = []

    def recording_build(inst, bound, period):
        bounds.append(bound)
        return build_expanded(inst, bound, period)

    monkeypatch.setattr(mmd_module, "build_expanded", recording_build)
    _min_max_delay_cached.cache_clear()
    assert min_max_delay(inst, 1).max_delay == 1
    assert max(bounds, default=0) <= 2


def test_probe_trail_is_scan_from_quickest_bound():
    # the search probes every bound from the quickest bound up to the answer,
    # each one once, and the answer alone is feasible
    for seed in range(200):
        inst = corpus_instance(seed)
        static = max_flow(inst.network, inst.sender, inst.receiver)[1]
        bottom = quickest_bound(inst.network, inst.sender, inst.receiver, inst.batch)
        for period in feasible_periods(inst):
            result = min_max_delay(inst, period)
            assert (result is None) == (static < F(inst.batch, period)), (seed, period)
            if result is None:
                continue
            m = result.max_delay
            expected = tuple((b, b == m) for b in range(bottom, m + 1))
            assert result.probes == expected, (seed, period)


def test_repeated_flow_settles_top_bound_without_expansion(monkeypatch):
    # at a large period the pusher's probe at the answer would be its
    # slowest; the temporally repeated flow settles that bound and the
    # period cut the bound below, so no expansion is built
    inst = scaled_instance(generate(grid_graph(2, 2, seed=0)), "a1_1", "a2_2", 100, 1)
    built = []

    def recording_build(inst, bound, period):
        built.append(bound)
        return build_expanded(inst, bound, period)

    monkeypatch.setattr(mmd_module, "build_expanded", recording_build)
    _min_max_delay_cached.cache_clear()
    result = min_max_delay(inst, 100)
    assert result.max_delay == 109
    assert result.probes == ((108, False), (109, True))
    assert period_cut(inst, 100, 108) < inst.batch
    assert built == []


def test_delay_matches_unit_period_delay_within_a_period():
    # the paper's delay/AoI equivalence: at period T the minimum maximum
    # delay lies within T - 1 slots of the steady-rate minimum at rate D/T
    for seed in range(40):
        inst = corpus_instance(seed)
        for period in feasible_periods(inst):
            result = min_max_delay(inst, period)
            steady = mmd1_exact(
                inst.network, inst.sender, inst.receiver, F(inst.batch, period)
            )
            assert (result is None) == (steady is None), (seed, period)
            if result is None:
                continue
            low = steady.max_delay
            assert low <= result.max_delay <= low + period - 1, (seed, period)


def test_oracle_examples():
    assert min_max_delay_oracle(make_fastslow_instance(), 10).max_delay == 10
    assert min_max_delay_oracle(make_triple_instance(), 5).max_delay == 5


def test_oracle_probe_trail_is_ascending_scan():
    result = min_max_delay_oracle(make_triple_instance(), 5)
    assert [m for m, _ in result.probes] == list(range(result.max_delay + 1))
    assert [feas for _, feas in result.probes] == [False] * result.max_delay + [True]


# --- decompose ----------------------------------------------------------------


def test_decompose_paths_refuses_a_cyclic_flow():
    # one unit s->a->r plus one circulating a->b->a: no min-cost flow on
    # positive delays carries such a cycle, so the walk stops instead of
    # looping round it
    net = network(
        ["s", "a", "b", "r"],
        [
            ("sa", "s", "a", 1, 2),
            ("ab", "a", "b", 1, 2),
            ("ba", "b", "a", 1, 2),
            ("ar", "a", "r", 1, 2),
        ],
    )
    flow = {"sa": 1, "ab": 1, "ba": 1, "ar": 1}
    with pytest.raises(AssertionError, match="cycle"):
        decompose_paths(net, flow, "s", "r")


def test_decompose_zero_flow_is_empty():
    inst = make_triple_instance()
    exp = build_expanded(inst, 12, 5)
    sol = decompose(exp, {}, inst, 5)
    assert sol.entries == ()


def test_decompose_triple_unit_rate_flow():
    inst = make_triple_instance()
    exp = build_expanded(inst, 5, 5)
    flow_lp = build_flow_lp(exp)
    lp_sol = solve_lp(flow_lp.program)
    assert lp_sol.objective_value >= 5
    flow = extract_edge_flow(lp_sol)
    sol = normalize_holding(inst.network, decompose(exp, flow, inst, 5))
    ok, max_delay, violations = validate_solution(inst, sol)
    assert ok and max_delay == 5
    assert sol.total_amount == 5
    # e1 is the only link fast enough: five unit pushes at offsets 0..4
    pushes = sorted(
        (entry.links, entry.push_offsets(inst.network), entry.amount)
        for entry in sol.entries
    )
    assert pushes == [(("e1",), (i,), F(1)) for i in range(5)]


def test_decompose_fastslow_t7_respects_caps():
    inst = make_fastslow_instance()
    exp = build_expanded(inst, 11, 7)
    flow_lp = build_flow_lp(exp)
    lp_sol = solve_lp(flow_lp.program)
    flow = extract_edge_flow(lp_sol)
    sol = normalize_holding(inst.network, decompose(exp, flow, inst, 7))
    ok, max_delay, _ = validate_solution(inst, sol)
    assert ok and max_delay <= 11
    assert len(sol.entries) <= len(exp.links)


def test_decompose_rejects_nonconserving_flow():
    inst = make_triple_instance()
    exp = build_expanded(inst, 12, 5)
    transit = next(
        i for i, el in enumerate(exp.links) if el.link_id is not None and el.push == 0
    )
    with pytest.raises(AssertionError, match="conserve"):
        decompose(exp, {transit: F(1)}, inst, 5)


def test_decompose_reroutes_node_revisit_through_holding():
    # a flow path s->a->b->a->r revisits a; the entry must hold at a instead
    net = network(
        ["s", "a", "b", "r"],
        [
            ("sa", "s", "a", 1, 1),
            ("ab", "a", "b", 1, 1),
            ("ba", "b", "a", 1, 1),
            ("ar", "a", "r", 1, 1),
        ],
    )
    inst = Instance(net, "s", "r", F(1), F(1, 4), F(1, 4))
    exp = build_expanded(inst, 4, 4)
    by_key = {
        (el.link_id, el.push): i
        for i, el in enumerate(exp.links)
        if el.link_id is not None
    }
    flow = {
        by_key[("sa", 0)]: F(1),
        by_key[("ab", 1)]: F(1),
        by_key[("ba", 2)]: F(1),
        by_key[("ar", 3)]: F(1),
    }
    sol = decompose(exp, flow, inst, 4)
    (entry,) = sol.entries
    assert entry.links == ("sa", "ar")
    assert entry.offsets == (0, 1, 4)  # arrive a@1, hold to 3, arrive r@4
    ok, max_delay, violations = validate_solution(inst, sol)
    assert ok and max_delay == 4


# --- steady-rate lifting --------------------------------------------------------


def test_lift_spreads_each_path_over_the_period():
    net = make_fastslow_instance().network
    # at bound (delay 1) + (period 4) - 1 the path departs at every offset
    lifted = lift_path_flow(net, [(("e1",), F(1, 2))], 4, 4)
    assert len(lifted.entries) == 4
    assert lifted.total_amount == 2
    assert sorted(e.push_offsets(net)[0] for e in lifted.entries) == [0, 1, 2, 3]
    assert lifted.max_delay == 1 + 3


def test_lift_truncates_departures_to_the_bound():
    # at T=7 the fast link departs 7 times and arrives by bound 11; the slow
    # one (delay 11) departs once, trimmed to the 3 units still missing
    inst = make_fastslow_instance()
    net = inst.network
    paths = [(("e1",), F(1)), (("e2",), F(10))]
    lifted = lift_path_flow(net, paths, 7, bound=11, amount=inst.batch)
    pushes = [(e.links, e.push_offsets(net), e.amount) for e in lifted.entries]
    assert pushes == [(("e1",), (i,), F(1)) for i in range(7)] + [(("e2",), (0,), F(3))]
    ok, max_delay, violations = validate_solution(inst, lifted)
    assert ok and max_delay == 11, violations
    # at bound 10 the slow link cannot arrive in time
    short = lift_path_flow(net, paths, 7, bound=10, amount=inst.batch)
    assert short.total_amount == 7 and short.max_delay == 7


def test_repeated_flow_ends_scan_by_fastest_rate_paths(monkeypatch):
    # the last min-cost prefix is a maximum flow; d* is the least delay at
    # which its paths no slower than d* carry rate D/T.  Each of them departs
    # T times by T - 1 + d*, so the temporally repeated flow settles that
    # bound, which ends the scan without a static max-flow of its own
    complete6 = []
    for seed in range(30):
        net = generate(complete_graph(6, seed))
        complete6.append(scaled_instance(net, *pick_endpoints(net, seed), 5, 10))
    corpus = [corpus_instance(seed) for seed in range(200)]

    def refuse_max_flow(*args):
        raise AssertionError("max_flow reached")

    monkeypatch.setattr(mmd_module, "max_flow", refuse_max_flow)
    _min_max_delay_cached.cache_clear()
    tight = 0
    for inst in corpus + complete6:
        last = min_cost_prefixes(inst.network, inst.sender, inst.receiver)[-1]
        for period in feasible_periods(inst):
            result = min_max_delay(inst, period)
            if result is None:
                continue
            rate = F(inst.batch, period)
            d_star = min(
                d
                for d in last.delays
                if sum(r for (_, r), e in zip(last.paths, last.delays) if e <= d) >= rate
            )
            top = period - 1 + d_star
            assert repeated_value(last, period, top) >= inst.batch, (inst, period)
            assert result.max_delay <= top, (inst, period)
            tight += result.max_delay == top
    assert tight > 0
