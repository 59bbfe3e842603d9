"""The probe stack answers must not depend on which engine settles them.

Each "no" certificate ahead of the simplex (the stalled pusher's residual
cut and the float solve with an exact dual certificate) is switched off by
patching one module-level name, one at a time and all together, and the
answers and probe trails are held equal to the normal stack's on a corpus
slice.  So is where the scan starts, the quickest bound in `mmd`: lowered
to the shortest delay, it changes the probe trails but not the delays or the
schedules.  With the pusher off as well, every probe the witness does not
answer falls to the exact simplex.
"""

from collections import Counter

import pytest

from aoiflow import (
    Objective,
    build_expanded,
    build_flow_lp,
    feasible_periods,
    link_groups,
    solve_lp,
    solve_optimal,
)
from aoiflow import flowlp as flowlp_module
from aoiflow import mmd as mmd_module
from aoiflow.experiments import generate, grid_graph, scaled_instance
from aoiflow.flowlp import Push, certify_value_below, group_augment, residual_cut, _scipy_solve
from aoiflow.maxflow import shortest_delay
from aoiflow.mmd import _min_max_delay_cached, min_max_delay
from conftest import corpus_instance

SLICE = range(20, 32)

# name -> (module, attribute, replacement that never certifies, or for the
# scan's start, the shortest delay)
SWITCHES = {
    "quickest-bound": (
        mmd_module,
        "quickest_bound",
        lambda net, source, sink, amount: shortest_delay(net, source)[sink],
    ),
    "residual-cut": (flowlp_module, "residual_cut", lambda *args: None),
    "dual-certificate": (flowlp_module, "_scipy_solve", lambda flow_lp: None),
}


def solve_slice(monkeypatch):
    """Delay, schedule and probe trail per (seed, period), and the engines
    that ran."""
    engines = Counter()
    probe = mmd_module.probe_reaches

    def counting_probe(*args):
        answer = probe(*args)
        engines[answer.engine] += 1
        return answer

    monkeypatch.setattr(mmd_module, "probe_reaches", counting_probe)
    _min_max_delay_cached.cache_clear()
    out = {}
    for seed in SLICE:
        inst = corpus_instance(seed)
        for period in feasible_periods(inst):
            out[seed, period] = min_max_delay(inst, period)
    monkeypatch.setattr(mmd_module, "probe_reaches", probe)
    return out, engines


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
        ("residual-cut",),
        ("dual-certificate",),
        ("quickest-bound", "residual-cut"),
        tuple(SWITCHES),
    ],
    ids="+".join,
)
def test_certificate_switched_off_keeps_answers(off, monkeypatch, fresh_cache):
    baseline, base_engines = solve_slice(monkeypatch)
    assert base_engines["residual-cut"] > 0
    for name in off:
        monkeypatch.setattr(*SWITCHES[name])
    forced, engines = solve_slice(monkeypatch)
    fields = ["max_delay", "solution", "probes"]
    if "quickest-bound" in off:  # the search starts lower, so trails differ
        assert sum(engines.values()) > sum(base_engines.values())
        fields.remove("probes")
    assert view(forced, *fields) == view(baseline, *fields)
    if "residual-cut" in off:
        assert engines["residual-cut"] == 0
    if off == ("quickest-bound", "residual-cut"):  # the float dual takes over
        assert engines["dual-certificate"] > 0
    if len(off) == len(SWITCHES):
        assert engines["simplex"] > 0


def test_simplex_only_stack_matches(monkeypatch, fresh_cache):
    baseline, _ = solve_slice(monkeypatch)
    for name in ("residual-cut", "dual-certificate"):
        monkeypatch.setattr(*SWITCHES[name])
    monkeypatch.setattr(
        flowlp_module, "group_augment", lambda *args, **kwargs: Push(None, None)
    )
    forced, engines = solve_slice(monkeypatch)
    # same delays and trails; the simplex's flows make other schedules
    assert view(forced, "max_delay", "probes") == view(baseline, "max_delay", "probes")
    assert set(engines) <= {"simplex", "unreachable"} and engines["simplex"] > 0


def refuse_float_solve(flow_lp):
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


def test_float_dual_settles_what_the_cut_misses():
    # grid seed 13 at period 10, bound 24: the pusher stalls, the cut's bound
    # is no help, and the exact simplex takes over 20 s on this program
    pytest.importorskip("scipy")
    inst = scaled_instance(generate(grid_graph(4, 4, seed=13)), "a1_1", "a4_4", 10)
    period, bound = 10, 24
    exp = build_expanded(inst, bound)
    push = group_augment(exp, inst, period, inst.batch)
    assert push.flow is None and push.reached is not None
    assert residual_cut(exp, inst, period, push.reached) == 530 >= inst.batch == 500
    flow_lp = build_flow_lp(exp, link_groups(exp, period), inst)
    assert certify_value_below(flow_lp, inst.batch, _scipy_solve(flow_lp))


def test_dual_certificates_never_contradict_exact_optimum():
    pytest.importorskip("scipy")
    for seed in range(10, 16):
        inst = corpus_instance(seed)
        period = inst.max_period
        for bound in (3, 6, 9, 12):
            exp = build_expanded(inst, bound)
            flow_lp = build_flow_lp(exp, link_groups(exp, period), inst)
            exact = solve_lp(flow_lp.program).objective_value
            if not exp.links:  # probe_reaches answers "unreachable" first
                assert exact == 0
                continue
            fr = _scipy_solve(flow_lp)
            if certify_value_below(flow_lp, inst.batch, fr):
                assert exact < inst.batch
            if certify_value_below(flow_lp, exact, fr):
                pytest.fail("certificate below the exact optimum")


def test_residual_cut_never_below_exact_optimum():
    stalls = 0
    for seed in range(10, 16):
        inst = corpus_instance(seed)
        period = inst.max_period
        for bound in (3, 6, 9, 12):
            exp = build_expanded(inst, bound)
            if not exp.links:
                continue
            push = group_augment(exp, inst, period, inst.batch)
            if push.reached is None:
                continue
            stalls += 1
            flow_lp = build_flow_lp(exp, link_groups(exp, period), inst)
            exact = solve_lp(flow_lp.program).objective_value
            cut = residual_cut(exp, inst, period, push.reached)
            assert cut is not None and cut >= exact, (seed, bound)
    assert stalls > 0
