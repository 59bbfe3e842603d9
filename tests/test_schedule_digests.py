"""Schedule bytes pinned by digest.

Two sha256 digests cover, per period, the minimum maximum delay, the probe
trail and the `solution_to_text` bytes of the schedule:

* every feasible period of corpus seeds 0-199 through `min_max_delay`
  (374 periods);
* `min_max_delay_oracle` on every feasible period of the corpus seeds
  whose `horizon_upper_bound` is at most 28 (88 subproblems).

Neither path solves a float program, so the digests do not depend on the
HiGHS version.  A changed digest means changed schedule bytes: a change
that moves one must say which periods' schedules moved and why.
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
from aoiflow.fileio import solution_to_text
from conftest import corpus_instance

CORPUS = range(200)
ORACLE_MAX_HORIZON = 28

MMD_DIGEST = "8c248466508351618c79d9e3764701552bcf0a696a19ebbacf1375acc87f14f4"
ORACLE_DIGEST = "5a33edbe9c03f732e87dcc6ae47eb785ca5e097dff985d6f71c40b0c7d558baa"


@pytest.fixture(autouse=True)
def no_float_solve(monkeypatch):
    """The digests hold only while no probe reaches HiGHS."""

    def refuse(flow_lp):
        raise AssertionError("float solve reached")

    monkeypatch.setattr(flowlp, "_scipy_solve", refuse)


def digest(search, seeds):
    """sha256 over each (seed, period)'s delay, trail and schedule text,
    and the number of periods it covered."""
    h = hashlib.sha256()
    count = 0
    for seed in seeds:
        inst = corpus_instance(seed)
        for period in feasible_periods(inst):
            result = search(inst, period)
            count += 1
            if result is None:
                h.update(f"{seed} {period} none\n".encode())
                continue
            h.update(f"{seed} {period} {result.max_delay} {result.probes}\n".encode())
            h.update(solution_to_text(inst.network, result.solution, inst.batch).encode())
    return h.hexdigest(), count


def test_corpus_schedules_keep_their_bytes():
    assert digest(min_max_delay, CORPUS) == (MMD_DIGEST, 374)


def test_oracle_schedules_keep_their_bytes():
    seeds = [
        seed
        for seed in CORPUS
        if horizon_upper_bound(corpus_instance(seed)) <= ORACLE_MAX_HORIZON
    ]
    assert digest(min_max_delay_oracle, seeds) == (ORACLE_DIGEST, 88)
