"""The probe stack answers must not depend on which engine settles them.

The fast paths (augmenting pusher, float solve + exact dual certificate) are
disabled here one by one and the pure exact-simplex answers are held equal to
the normal stack's answers on a corpus slice.
"""

import pytest

from aoiflow import build_expanded, build_flow_lp, feasible_periods, link_groups, solve_lp
from aoiflow import flowlp as flowlp_module
from aoiflow.flowlp import certify_value_below, _scipy_solve
from aoiflow.mmd import _min_max_delay_cached, min_max_delay
from conftest import corpus_instance

SLICE = range(20, 32)


def answers_for(inst):
    out = {}
    for period in feasible_periods(inst):
        result = min_max_delay(inst, period)
        out[period] = None if result is None else result.max_delay
    return out


@pytest.fixture
def fresh_cache():
    _min_max_delay_cached.cache_clear()
    yield
    _min_max_delay_cached.cache_clear()


def test_simplex_only_stack_matches(monkeypatch, fresh_cache):
    baseline = {seed: answers_for(corpus_instance(seed)) for seed in SLICE}
    _min_max_delay_cached.cache_clear()
    monkeypatch.setattr(flowlp_module, "_scipy_solve", lambda flow_lp: None)
    monkeypatch.setattr(
        flowlp_module, "group_augment", lambda *args, **kwargs: None
    )
    forced = {seed: answers_for(corpus_instance(seed)) for seed in SLICE}
    assert forced == baseline


def test_no_float_stack_matches(monkeypatch, fresh_cache):
    baseline = {seed: answers_for(corpus_instance(seed)) for seed in SLICE}
    _min_max_delay_cached.cache_clear()
    monkeypatch.setattr(flowlp_module, "_scipy_solve", lambda flow_lp: None)
    forced = {seed: answers_for(corpus_instance(seed)) for seed in SLICE}
    assert forced == baseline


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
