"""Schedule bytes pinned by digest.

Three sha256 digests cover, per period, the minimum maximum delay, the probe
trail and the `solution_to_text` bytes of the schedule:

* every feasible period of corpus seeds 0-199 through `min_max_delay`
  (374 periods);
* `min_max_delay_oracle` on every feasible period of the corpus seeds
  whose `horizon_upper_bound` is at most 28 (88 subproblems);
* `min_max_delay` on every feasible period of the `aoiflow batch`
  instances of complete-6 seeds 0-29, and on the 4x4 grids of seeds 9, 24
  and 30 at period 10 (303 periods).  Their pusher, snapped-primal and
  simplex flows are peeled by `decompose`, and 15 of those schedules hold
  a full period somewhere before the hold is shortened.

The corpus never reaches the float solve, and the oracle never calls it;
the third digest switches it off, so the two probes of complete-6 it would
settle fall to the exact simplex.  None of the digests depends on the HiGHS
version.  A changed digest means changed schedule bytes: a change that
moves one must say which periods' schedules moved and why.
"""

import hashlib

import pytest

from aoiflow import (
    feasible_periods,
    horizon_upper_bound,
    min_max_delay,
    min_max_delay_oracle,
)
from aoiflow import flowlp
from aoiflow.experiments import (
    complete_graph,
    generate,
    grid_graph,
    pick_endpoints,
    scaled_instance,
)
from aoiflow.fileio import solution_to_text
from aoiflow.mmd import _min_max_delay_cached
from conftest import corpus_instance

CORPUS = range(200)
ORACLE_MAX_HORIZON = 28
COMPLETE6 = range(30)
GRIDS = (9, 24, 30)  # grid seed 33 spends 25 s in the simplex at period 10

MMD_DIGEST = "8c248466508351618c79d9e3764701552bcf0a696a19ebbacf1375acc87f14f4"
ORACLE_DIGEST = "5a33edbe9c03f732e87dcc6ae47eb785ca5e097dff985d6f71c40b0c7d558baa"
PEELED_DIGEST = "7925874906326b89b4684f5cd708c1a16d34ffaeaee31850db9df635720ee7d2"


@pytest.fixture(autouse=True)
def no_float_solve(monkeypatch):
    """The digests hold only while no probe reaches HiGHS."""

    def refuse(program):
        raise AssertionError("float solve reached")

    monkeypatch.setattr(flowlp, "_scipy_solve", refuse)


def digest(search, cases):
    """sha256 over each (label, period)'s delay, trail and schedule text,
    and the number of periods it covered; ``cases`` yields (label,
    instance, periods)."""
    h = hashlib.sha256()
    count = 0
    for label, inst, periods in cases:
        for period in periods:
            result = search(inst, period)
            count += 1
            if result is None:
                h.update(f"{label} {period} none\n".encode())
                continue
            h.update(f"{label} {period} {result.max_delay} {result.probes}\n".encode())
            h.update(solution_to_text(inst.network, result.solution, inst.batch).encode())
    return h.hexdigest(), count


def window(label, inst):
    return label, inst, feasible_periods(inst)


def test_corpus_schedules_keep_their_bytes():
    cases = (window(seed, corpus_instance(seed)) for seed in CORPUS)
    assert digest(min_max_delay, cases) == (MMD_DIGEST, 374)


def test_oracle_schedules_keep_their_bytes():
    cases = (
        window(seed, corpus_instance(seed))
        for seed in CORPUS
        if horizon_upper_bound(corpus_instance(seed)) <= ORACLE_MAX_HORIZON
    )
    assert digest(min_max_delay_oracle, cases) == (ORACLE_DIGEST, 88)


def test_peeled_schedules_keep_their_bytes(monkeypatch):
    monkeypatch.setattr(flowlp, "_scipy_solve", lambda program: None)
    _min_max_delay_cached.cache_clear()  # other tests cache float-solve answers
    cases = []
    for seed in COMPLETE6:  # the instances of `aoiflow batch complete 6`
        net = generate(complete_graph(6, seed))
        inst = scaled_instance(net, *pick_endpoints(net, seed), 5, 10)
        cases.append(window(f"complete-6 {seed}", inst))
    for seed in GRIDS:
        inst = scaled_instance(generate(grid_graph(4, 4, seed=seed)), "a1_1", "a4_4", 10)
        cases.append((f"grid16 {seed}", inst, (10,)))
    try:
        assert digest(min_max_delay, cases) == (PEELED_DIGEST, 303)
    finally:
        _min_max_delay_cached.cache_clear()
