"""Record bench/reference.json: the seed pools and the reference answers.

    PYTHONPATH=src python3 bench/make_reference.py

Pools: the grid16-window and batch-complete6 workloads draw their checked
inputs from seeds on which no probe falls back to the exact simplex.  That
fallback is timed on fixed complete-6 seeds instead; on a 4x4 grid at 10x
capacity one fallback runs on the whole 384-layer program and takes minutes
(grid seed 0: over 6 minutes), more than one benchmark run may last.
Scanning aborts a seed as soon as the fallback starts.

Answers: every pool member and timed input, plus the acceptance corpus and
the drawn corpus blocks of seeds 0..CORPUS_SEEDS-1, solved by the code at
hand.  Re-record only when the program's answers are meant to change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from aoiflow import flowlp  # noqa: E402

import workloads  # noqa: E402


GRID_POOL_SEEDS = 40
COMPLETE6_POOL_SEEDS = 150
CORPUS_SEEDS = 42


class _Fallback(Exception):
    pass


def _refuse_fallback(*args, **kwargs):
    raise _Fallback


def _answer(op):
    output = op.run()
    workloads.clear_program_caches()
    answer, problem = op.check(output)
    if problem is not None:
        raise AssertionError(f"{op.table}/{op.key}: {problem}")
    return answer


def _scan(ops, answers):
    """Answers of the ops that finish without the simplex fallback."""
    kept = []
    real = flowlp.solve_lp_reaching
    flowlp.solve_lp_reaching = _refuse_fallback
    try:
        for op in ops:
            try:
                answers[op.key] = _answer(op)
            except _Fallback:
                workloads.clear_program_caches()
                print(f"  {op.table}/{op.key}: simplex fallback, left out", flush=True)
                continue
            kept.append(int(op.key))
    finally:
        flowlp.solve_lp_reaching = real
    return kept


def _grid16(n_seeds, answers):
    print("grid16 pool", flush=True)
    pool = _scan([workloads.grid_op(g) for g in range(n_seeds)], answers)
    for g in workloads.GRID_TIMED:
        op = workloads.grid_op(g)
        answers[op.key] = _answer(op)
    return pool


def _complete6(n_seeds, answers, workdir):
    print("complete6 pool", flush=True)
    pool = _scan([workloads.batch_op(s, workdir) for s in range(n_seeds)], answers)
    for s in workloads.BATCH_TIMED:
        op = workloads.batch_op(s, workdir)
        answers[op.key] = _answer(op)
    return pool


def main() -> int:
    answers: dict[str, dict] = {"grid16": {}, "complete6": {}, "corpus": {}}
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        pools = {
            "grid16": _grid16(GRID_POOL_SEEDS, answers["grid16"]),
            "complete6": _complete6(COMPLETE6_POOL_SEEDS, answers["complete6"], workdir),
        }
        print("corpus", flush=True)
        indices = list(workloads.CORPUS_TIMED)
        for seed in range(CORPUS_SEEDS):
            indices += workloads.corpus_drawn(seed)
        for index in indices:
            for op in workloads.corpus_ops(index, workdir):
                answers["corpus"][op.key] = _answer(op)

    missing = [f"{i}:{t}" for i, t in workloads.ORACLE_TIMED]
    missing = [key for key in missing if key not in answers["corpus"]]
    if missing:
        raise AssertionError(f"oracle inputs outside the recorded corpus: {missing}")
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump({"pools": pools, "answers": answers}, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
    print(
        f"grid16 pool {len(pools['grid16'])}, complete6 pool {len(pools['complete6'])}, "
        f"corpus answers {len(answers['corpus'])} -> {workloads.REFERENCE_PATH}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
