"""The probe stack answers must not depend on which engine settles them.

Each "no" certificate ahead of the simplex (the flow-over-time bound in
`mmd`, the stalled pusher's residual cut and the float solve with an exact
dual certificate) is switched off by patching one module-level name, one at
a time and all together, and the answers and probe trails are held equal to
the normal stack's on a corpus slice.  With the pusher off as well, every
probe the witness does not answer falls to the exact simplex.
"""

import math
from collections import Counter

import pytest

from aoiflow import build_expanded, build_flow_lp, feasible_periods, link_groups, solve_lp
from aoiflow import flowlp as flowlp_module
from aoiflow import mmd as mmd_module
from aoiflow.flowlp import Push, certify_value_below, group_augment, residual_cut, _scipy_solve
from aoiflow.mmd import _min_max_delay_cached, min_max_delay
from conftest import corpus_instance

SLICE = range(20, 32)

# name -> (module, attribute, replacement that never certifies)
SWITCHES = {
    # an empty profile would read V = 0 and refute every probe; an infinite
    # value refutes none
    "over-time": (mmd_module, "over_time_value", lambda profile, bound: math.inf),
    "residual-cut": (flowlp_module, "residual_cut", lambda *args: None),
    "dual-certificate": (flowlp_module, "_scipy_solve", lambda flow_lp: None),
}


def solve_slice(monkeypatch):
    """Delay and probe trail per (seed, period), and the engines that ran."""
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
            result = min_max_delay(inst, period)
            out[seed, period] = None if result is None else (result.max_delay, result.probes)
    monkeypatch.setattr(mmd_module, "probe_reaches", probe)
    return out, engines


@pytest.fixture
def fresh_cache():
    _min_max_delay_cached.cache_clear()
    yield
    _min_max_delay_cached.cache_clear()


@pytest.mark.parametrize(
    "off",
    [
        ("over-time",),
        ("residual-cut",),
        ("dual-certificate",),
        ("over-time", "residual-cut"),
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
    assert forced == baseline
    if "over-time" in off:  # the probes it refuted now reach the engines
        assert sum(engines.values()) > sum(base_engines.values())
    if "residual-cut" in off:
        assert engines["residual-cut"] == 0
    if off == ("over-time", "residual-cut"):  # the float dual takes over
        assert engines["dual-certificate"] > 0
    if len(off) == len(SWITCHES):
        assert engines["simplex"] > 0


def test_simplex_only_stack_matches(monkeypatch, fresh_cache):
    baseline, _ = solve_slice(monkeypatch)
    for switch in SWITCHES.values():
        monkeypatch.setattr(*switch)
    monkeypatch.setattr(
        flowlp_module, "group_augment", lambda *args, **kwargs: Push(None, None)
    )
    forced, engines = solve_slice(monkeypatch)
    assert forced == baseline
    assert set(engines) <= {"simplex", "unreachable"} and engines["simplex"] > 0


def test_scipy_never_called_on_corpus(monkeypatch, fresh_cache):
    # the over-time bound and the residual cut settle every probe the
    # pusher cannot on the acceptance corpus
    def refuse(flow_lp):
        raise AssertionError("float solve reached")

    monkeypatch.setattr(flowlp_module, "_scipy_solve", refuse)
    for seed in range(200):
        inst = corpus_instance(seed)
        for period in feasible_periods(inst):
            min_max_delay(inst, period)


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
