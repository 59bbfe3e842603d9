"""One pass of a workload in a fresh interpreter.

Sets the timed inputs up, runs the timed operations one after another in a
closed loop with every program cache emptied between operations, optionally
sets up and runs the seed's drawn operations the same way, then checks every
output and writes the pass's result as JSON.  run.py starts it with the checkout's `src`
on PYTHONPATH:

    python3 bench/worker.py RESULT --workload W --seed N --spawned T --workdir D
        [--setup-only] [--drawn] [--trace SPANS]

`--spawned` is the wall-clock time at which the parent started this process,
so the reported set-up time runs from interpreter start to the first timed
operation.

Times are reported twice: as measured (`wall_*`), and scaled to reference
machine speed (`setup_s`, `solve_s`) by the factor `speed.Meter` measures
from samples taken while the set-up and the timed operations run.  The time
spent in samples is left out of both.  The traced pass runs its operations
without the meter, so that no probe lands in a span, and reports wall times
only.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from speed import SETUP_INTERVAL_S, Meter

METER = Meter()
METER.start(SETUP_INTERVAL_S)  # set-up is scaled by the samples taken during it

import workloads  # noqa: E402


def run_ops(ops, tracer, meter=None):
    """Run each operation once; returns latencies and (output, error) pairs.

    The time of any meter samples taken inside an operation is left out of
    its latency.
    """
    latencies, outputs = [], []
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        taken = len(meter.samples) if meter else 0
        start = time.perf_counter()
        try:
            outputs.append((op.run(), None))
        except Exception as exc:  # counted as a failed operation
            outputs.append((None, f"{type(exc).__name__}: {exc}"))
        elapsed = time.perf_counter() - start
        latencies.append(elapsed - (meter.probe_s(taken) if meter else 0))
        workloads.clear_program_caches()
    return latencies, outputs


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("result")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--drawn", action="store_true", help="also run the drawn set")
    parser.add_argument("--trace", help="write spans here and report layer metrics")
    args = parser.parse_args()

    workdir = Path(args.workdir)
    timed = workloads.timed_ops(args.workload, workdir)
    METER.stop()
    wall_setup_s = time.time() - args.spawned - METER.probe_s()
    result = {
        "setup_s": wall_setup_s * METER.scale(),
        "wall_setup_s": wall_setup_s,
        "ops": len(timed),
    }
    tracer = meter = None
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return 0

    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.active = True
    else:
        meter = METER
        first = len(meter.samples)
        meter.start()
    latencies, outputs = run_ops(timed, tracer, meter)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.active = False
    else:
        meter.stop()
        result["solve_s"] = sum(latencies) * meter.scale(first)
        result["speed_samples"] = len(meter.samples) - first
    reference = workloads.load_reference()
    drawn = []
    if args.drawn:
        drawn = workloads.drawn_ops(args.workload, args.seed, workdir, reference)
        result["ops"] += len(drawn)
    drawn_latencies, drawn_outputs = run_ops(drawn, None)

    failures = []
    checked = 0
    for op, (output, problem) in zip(timed + drawn, outputs + drawn_outputs):
        if problem is None:
            try:
                answer, problem = op.check(output)
            except Exception as exc:  # an unreadable output fails its check
                problem = f"check raised {type(exc).__name__}: {exc}"
        expected = reference["answers"].get(op.table, {}).get(op.key)
        if problem is None and expected is not None:
            checked += 1
            if json.loads(json.dumps(answer)) != expected:
                problem = f"answer {answer!r} != reference {expected!r}"
        if problem is not None:
            failures.append(f"{op.table}/{op.key}: {problem}")

    result.update(
        wall_solve_s=sum(latencies),
        latencies=latencies,
        peak_rss_mb=peak_rss_mb,
        drawn_latencies={f"{op.table}/{op.key}": x for op, x in zip(drawn, drawn_latencies)},
        reference_checked=checked,
        failures=failures,
    )
    if tracer is not None:
        tracer.write_spans(args.trace)
        result["layers"] = tracer.layer_metrics()
        result["op_counts"] = {
            f"{op.table}/{op.key}": dict(tracer.op_counts.get(i, {}))
            for i, op in enumerate(timed)
        }
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        METER.stop()  # a pending alarm would kill the exiting interpreter
    sys.exit(code)
