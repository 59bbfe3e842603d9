"""The four workloads: inputs, operations and output checks.

Each workload has a fixed timed set and a drawn set that changes with the
seed.  The timed set alone feeds the end-to-end metrics.  The drawn set is
solved once per run after it, and checked the same way, so a run at any seed
solves and checks inputs no one tuned on; its per-operation latencies go to
the run's report.  Drawn inputs stay out of the metrics because one 4x4 grid
or complete-6 sweep varies in cost by 20% to 10x from seed to seed, which
would swamp any bound a later change is held to.

The timed sets are the cases each workload exists for: grid seed 7 of
acceptance criterion 10, the acceptance corpus, one of the corpus
subproblems that dominate the ascending-scan oracle, and a complete-6 seed
whose sweep falls back to the exact simplex.  Each takes about 4 s, so a run
fits several passes even when the machine is twice as slow.

Every operation has a reference key.  `check` turns its output into an
answer while validating it independently of the solve path (a schedule is
reloaded from its file where there is one and passed through
`validate_solution`); the worker then compares the answer with
`reference.json` when that records the key.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from aoiflow import cli, fileio, mmd, model, solvers
from aoiflow.expander import horizon_upper_bound
from aoiflow.experiments import generate, grid_graph, scaled_instance

REFERENCE_PATH = Path(__file__).with_name("reference.json")

GRID_TIMED = (7,)
GRID_DRAWN = 1
CORPUS_TIMED = range(200)  # the acceptance corpus
CORPUS_DRAWN = 100
ORACLE_TIMED = ((92, 5),)  # (corpus seed, period)
ORACLE_DRAWN = 10
ORACLE_MAX_HORIZON = 28
BATCH_TIMED = (4,)  # reaches the simplex fallback
BATCH_DRAWN = 2
BATCH_HEADER = [
    "instance_id",
    "periods",
    "peak_opt",
    "peak_ap",
    "peak_reduction",
    "avg_opt",
    "avg_ap",
    "avg_reduction",
]


@dataclass
class Op:
    table: str  # reference table the key belongs to
    key: str
    run: Callable[[], object]
    check: Callable[[object], tuple[object, str | None]]  # -> (answer, problem)


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def clear_program_caches() -> None:
    """Empty every lru cache in the program, so each operation starts cold."""
    for name, module in list(sys.modules.items()):
        if name == "aoiflow" or name.startswith("aoiflow."):
            for value in list(vars(module).values()):
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


def corpus_instance(seed: int) -> model.Instance:
    """Small random instance drawn like the acceptance corpus.

    At most 6 nodes, delays 1..5, tight rational bandwidths and a
    sender-to-receiver chain, so some periods or whole instances come out
    infeasible.
    """
    rng = random.Random(seed)
    n = rng.randint(3, 6)
    nodes = [f"v{i}" for i in range(n)]
    sender, receiver = nodes[0], nodes[-1]
    links = []
    chain = nodes[: rng.randint(2, n)]
    chain[-1] = receiver
    for a, b in zip(chain, chain[1:]):
        delay = rng.randint(1, 5)
        bandwidth = Fraction(rng.choice([1, 1, 2, 3]), rng.choice([1, 2]))
        links.append((f"e{len(links)}", a, b, delay, bandwidth))
    for _ in range(rng.randint(1, 5)):
        a, b = rng.sample(nodes, 2)
        delay = rng.randint(1, 5)
        bandwidth = Fraction(rng.choice([1, 1, 2, 3, 4]), rng.choice([1, 2]))
        links.append((f"e{len(links)}", a, b, delay, bandwidth))
    net = model.network(nodes, links)
    t_max = rng.randint(2, 6)
    t_min = max(1, t_max - rng.randint(0, 2))
    batch = Fraction(rng.choice([2, 3, 4, 6]))
    return model.Instance(
        net, sender, receiver, batch, Fraction(batch, t_max), Fraction(batch, t_min)
    )


def corpus_drawn(seed: int) -> range:
    """The seed's block of corpus instances, clear of the acceptance corpus."""
    start = len(CORPUS_TIMED) + seed * CORPUS_DRAWN
    return range(start, start + CORPUS_DRAWN)


def _validated_delay(inst, sol, period) -> tuple[int | None, str | None]:
    if sol.period != period:
        return None, f"schedule period {sol.period} != {period}"
    ok, delay, violations = model.validate_solution(inst, sol)
    if not ok:
        return None, f"schedule invalid: {violations[:3]}"
    return delay, None


# ---------------------------------------------------------------------------
# corpus-mmd: the CLI's mmd-at-period on every candidate period


def corpus_ops(index: int, workdir: Path) -> list[Op]:
    inst = corpus_instance(index)
    path = workdir / f"corpus-{index}.json"
    fileio.save_instance(inst, str(path))
    ops = []
    for period in model.feasible_periods(inst):
        sol_path = workdir / f"corpus-{index}-T{period}.sol"
        argv = ["--quiet", "mmd-at-period", str(path), str(period), "--sol", str(sol_path)]
        ops.append(
            Op(
                "corpus",
                f"{index}:{period}",
                lambda argv=argv: cli.main(argv),
                lambda code, inst=inst, period=period, sol_path=sol_path: _check_cli_mmd(
                    inst, period, sol_path, code
                ),
            )
        )
    return ops


def _check_cli_mmd(inst, period, sol_path: Path, code):
    if code == 2:
        if sol_path.exists():
            return None, "infeasible verdict but a schedule was written"
        return "infeasible", None
    if code != 0:
        return None, f"exit code {code}"
    sol, batch = fileio.load_solution(inst.network, str(sol_path))
    if batch != inst.batch:
        return None, f"schedule batch {batch} != {inst.batch}"
    return _validated_delay(inst, sol, period)


# ---------------------------------------------------------------------------
# oracle-slice: the ascending-scan oracle on corpus subproblems


def oracle_op(index: int, period: int) -> Op:
    inst = corpus_instance(index)
    return Op(
        "corpus",
        f"{index}:{period}",
        lambda: mmd.min_max_delay_oracle(inst, period),
        lambda result: _check_mmd_result(inst, period, result),
    )


def _check_mmd_result(inst, period, result):
    if result is None:
        return "infeasible", None
    delay, problem = _validated_delay(inst, result.solution, period)
    if problem is None and delay != result.max_delay:
        problem = f"schedule delay {delay} != reported {result.max_delay}"
    return delay, problem


def oracle_drawn(seed: int) -> list[tuple[int, int]]:
    """The first subproblems of the seed's corpus block whose expansion
    horizon is at most ORACLE_MAX_HORIZON; larger ones cost up to 14 s each,
    more than a run can spare for a check."""
    picked = [
        (index, period)
        for index in corpus_drawn(seed)
        if horizon_upper_bound(inst := corpus_instance(index)) <= ORACLE_MAX_HORIZON
        for period in model.feasible_periods(inst)
    ]
    return picked[:ORACLE_DRAWN]


# ---------------------------------------------------------------------------
# grid16-window: peak then average solve of a 4x4 grid at 10x capacity


def grid_op(grid_seed: int) -> Op:
    net = generate(grid_graph(4, 4, seed=grid_seed))
    inst = scaled_instance(net, "a1_1", "a4_4", 10)

    def run():
        peak = solvers.solve_optimal(inst, solvers.Objective.PEAK_AOI)
        avg = solvers.solve_optimal(inst, solvers.Objective.AVG_AOI)
        return peak, avg

    return Op("grid16", str(grid_seed), run, lambda out: _check_grid(inst, out))


def _check_grid(inst, outcomes):
    answer = []
    for outcome in outcomes:
        best = outcome.best
        delay, problem = _validated_delay(inst, outcome.solution, best.period)
        if problem is None and delay != best.max_delay:
            problem = f"schedule delay {delay} != reported {best.max_delay}"
        if problem is not None:
            return None, problem
        answer.append([best.period, best.max_delay, best.peak_aoi, str(best.avg_aoi)])
    return answer, None


# ---------------------------------------------------------------------------
# batch-complete6: `aoiflow batch complete 6 --scale 5 --periods 10`, one seed
# per call


def batch_op(c6_seed: int, workdir: Path) -> Op:
    csv_path = workdir / f"complete6-{c6_seed}.csv"
    argv = [
        "--quiet", "batch", "complete", "6", "--scale", "5", "--periods", "10",
        "--count", "1", "--seed", str(c6_seed), "--csv", str(csv_path),
    ]
    return Op(
        "complete6",
        str(c6_seed),
        lambda: cli.main(argv),
        lambda code: _check_batch(c6_seed, csv_path, code),
    )


def _check_batch(c6_seed, csv_path: Path, code):
    if code != 0:
        return None, f"exit code {code}"
    data = csv_path.read_bytes()
    rows = list(csv.reader(io.StringIO(data.decode())))
    if len(rows) != 2 or rows[0] != BATCH_HEADER:
        return None, f"unexpected CSV layout: {rows[:1]}"
    row = dict(zip(BATCH_HEADER, rows[1]))
    if row["instance_id"] != f"complete-{c6_seed}" or row["periods"] != "10":
        return None, f"unexpected CSV row: {rows[1]}"
    # the enumerated optimum never loses to the steady-rate replay
    if int(row["peak_opt"]) > int(row["peak_ap"]):
        return None, "peak_opt exceeds peak_ap"
    if Fraction(row["avg_opt"]) > Fraction(row["avg_ap"]):
        return None, "avg_opt exceeds avg_ap"
    return hashlib.sha256(data).hexdigest(), None


# ---------------------------------------------------------------------------


def _draw(workload: str, seed: int, pool: list[int], timed, k: int) -> list[int]:
    drawable = [x for x in pool if x not in timed]
    return random.Random(f"{workload}:{seed}").sample(drawable, k)


def timed_ops(workload: str, workdir: Path) -> list[Op]:
    """The workload's fixed timed operations, inputs written to workdir."""
    if workload == "grid16-window":
        return [grid_op(g) for g in GRID_TIMED]
    if workload == "corpus-mmd":
        return [op for index in CORPUS_TIMED for op in corpus_ops(index, workdir)]
    if workload == "oracle-slice":
        return [oracle_op(i, t) for i, t in ORACLE_TIMED]
    if workload == "batch-complete6":
        return [batch_op(s, workdir) for s in BATCH_TIMED]
    raise ValueError(f"unknown workload {workload!r}")


def drawn_ops(workload: str, seed: int, workdir: Path, reference: dict) -> list[Op]:
    """The operations drawn from the seed, inputs written to workdir."""
    pools = reference["pools"]
    if workload == "grid16-window":
        return [grid_op(g) for g in _draw(workload, seed, pools["grid16"], GRID_TIMED, GRID_DRAWN)]
    if workload == "corpus-mmd":
        return [op for index in corpus_drawn(seed) for op in corpus_ops(index, workdir)]
    if workload == "oracle-slice":
        return [oracle_op(i, t) for i, t in oracle_drawn(seed)]
    if workload == "batch-complete6":
        drawn = _draw(workload, seed, pools["complete6"], BATCH_TIMED, BATCH_DRAWN)
        return [batch_op(s, workdir) for s in drawn]
    raise ValueError(f"unknown workload {workload!r}")
