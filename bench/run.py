"""aoiflow benchmark: one workload, one seed, every metric on the last line.

    python3 bench/run.py --workload corpus-mmd --seed 3 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its `src`.
Each pass is a fresh interpreter (bench/worker.py) that sets its inputs up
and solves them one operation at a time, so the program's lru caches and
its lazy scipy import start cold in every pass.

--trace 0 repeats passes while the next one is expected to finish within
--seconds (at least MIN_PASSES), takes extra set-up-only interpreters until
there are SETUP_SAMPLES set-up times, and reports `setup_s` and
`peak_rss_mb` as medians and `solve_s` as the trimmed mean over passes.
`setup_s` and `solve_s` are scaled to a reference machine speed (see
speed.py); the wall times are printed and kept in the report.

--trace 1 runs one untraced and one traced pass and reports the per-layer
metrics of the traced one plus the tracing overhead; its spans go to
.bench_runs/<run>/spans.jsonl.

The last stdout line is {"correct", "attempted", "failed", "metrics"}.  The
exit code is 1 when an output fails its check, 2 when the benchmark cannot
run (no program to import, a pass that crashed or overran the time limit).
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("grid16-window", "corpus-mmd", "oracle-slice", "batch-complete6")
MIN_PASSES = 3
SETUP_SAMPLES = 9
TIME_LIMIT_S = 170  # a run must end within 180 s


class BenchError(Exception):
    pass


def environment() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    try:
        import gmpy2  # noqa: F401

        has_gmpy2 = True
    except ImportError:
        has_gmpy2 = False
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "gmpy2": has_gmpy2,
        "nproc": len(os.sched_getaffinity(0)),
    }


class Runner:
    def __init__(self, workload: str, seed: int, run_dir: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.deadline = deadline
        self.count = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
        )

    def run(self, setup_only=False, drawn=False, trace=False) -> dict:
        """One worker process; returns its result and its wall duration."""
        self.count += 1
        name = f"pass{self.count}"
        workdir = self.run_dir / name
        workdir.mkdir()
        result_path = self.run_dir / f"{name}.json"
        cmd = [
            sys.executable,
            str(BENCH / "worker.py"),
            str(result_path),
            "--workload", self.workload,
            "--seed", str(self.seed),
            "--workdir", str(workdir),
        ]
        if setup_only:
            cmd.append("--setup-only")
        if drawn:
            cmd.append("--drawn")
        if trace:
            cmd += ["--trace", str(self.run_dir / "spans.jsonl")]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("time limit reached before a pass could start")
        start = time.monotonic()
        cmd += ["--spawned", repr(time.time())]
        try:
            proc = subprocess.run(
                cmd,
                cwd=ROOT,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=sys.stderr,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            raise BenchError(f"{name} overran the {TIME_LIMIT_S} s limit") from None
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0 or not result_path.exists():
            raise BenchError(f"{name} exited with code {proc.returncode}")
        result = json.loads(result_path.read_text())
        result["wall_s"] = time.monotonic() - start
        return result


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def trimmed_mean(values: list[float]) -> float:
    """Mean without the lowest and the highest value once there are four."""
    values = sorted(values)
    if len(values) >= 4:
        values = values[1:-1]
    return statistics.mean(values)


def end_to_end(runner: Runner, seconds: float, started: float) -> tuple[dict, list, list]:
    passes = [runner.run(drawn=True)]
    while True:
        expected = statistics.median(p["wall_s"] for p in passes[1:] or passes)
        if len(passes) >= MIN_PASSES and time.monotonic() - started + expected > seconds:
            break
        passes.append(runner.run())
    setups = [p["setup_s"] for p in passes]
    wall_setups = [p["wall_setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        extra = runner.run(setup_only=True)
        setups.append(extra["setup_s"])
        wall_setups.append(extra["wall_setup_s"])

    def median_over_passes(stat):
        return statistics.median(stat(p) for p in passes)

    def op_ms(q):
        return lambda p: percentile([x * 1000 for x in p["latencies"]], q)

    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        # scaled pass times scatter little, so a mean beats a median of 3-5
        "solve_s": (trimmed_mean([p["solve_s"] for p in passes]), "s"),
        "peak_rss_mb": (median_over_passes(lambda p: p["peak_rss_mb"]), "MB"),
    }
    notes = [
        f"passes={len(passes)} timed_ops_per_pass={len(passes[0]['latencies'])} "
        f"drawn_ops={len(passes[0]['drawn_latencies'])} setup_samples={len(setups)} "
        f"op_p50_ms={median_over_passes(op_ms(50)):.4g} "
        f"op_p95_ms={median_over_passes(op_ms(95)):.4g} "
        f"wall_solve_s={median_over_passes(lambda p: p['wall_solve_s']):.4g} "
        f"wall_setup_s={statistics.median(wall_setups):.4g}"
    ]
    return metrics, passes, notes


def traced(runner: Runner) -> tuple[dict, list, list]:
    plain = runner.run(drawn=True)
    spans = runner.run(trace=True)
    metrics = {name: tuple(pair) for name, pair in spans["layers"].items()}
    for q in (50, 95):
        ms = [x * 1000 for x in plain["latencies"]]
        metrics[f"ops.p{q}_ms"] = (percentile(ms, q), "ms")
    metrics["trace.untraced_solve_s"] = (plain["wall_solve_s"], "s")
    metrics["trace.traced_solve_s"] = (spans["wall_solve_s"], "s")
    metrics["trace.overhead_s"] = (spans["wall_solve_s"] - plain["wall_solve_s"], "s")
    notes = [f"spans={runner.run_dir / 'spans.jsonl'}"]
    if len(spans["op_counts"]) <= 10:  # engine counts per timed operation
        for op, counts in spans["op_counts"].items():
            engines = {k: v for k, v in sorted(counts.items()) if "engine." in k}
            notes.append(
                f"{op}: flowlp.probe_reaches.calls={sum(engines.values())} "
                + " ".join(f"{k}={v}" for k, v in engines.items())
            )
    return metrics, [plain, spans], notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="aoiflow benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "aoiflow" / "__init__.py").is_file():
        print(f"error: no aoiflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run_dir = ROOT / ".bench_runs" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    )
    run_dir.mkdir(parents=True)
    runner = Runner(args.workload, args.seed, run_dir, started + TIME_LIMIT_S)
    env = environment()
    try:
        if args.trace:
            metrics, passes, notes = traced(runner)
        else:
            metrics, passes, notes = end_to_end(runner, args.seconds, started)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted = sum(p["ops"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failures": failures,
        "drawn_latencies": passes[0]["drawn_latencies"],
        "reference_checked": sum(p["reference_checked"] for p in passes),
        "op_counts": passes[-1].get("op_counts"),
        "passes": [
            {
                k: p.get(k)
                for k in (
                    "setup_s", "solve_s", "wall_setup_s", "wall_solve_s", "wall_s",
                    "peak_rss_mb", "speed_samples",
                )
            }
            for p in passes
        ],
    }
    (run_dir / "report.json").write_text(json.dumps(report, indent=1) + "\n")

    print(" ".join(f"{k}={v}" for k, v in env.items()))
    for note in notes:
        print(note)
    print(
        f"attempted={attempted} failed={len(failures)} "
        f"failed_frac={report['failed_frac']:.4f} "
        f"reference_checked={report['reference_checked']} report={run_dir / 'report.json'}"
    )
    for failure in failures[:10]:
        print(f"FAILED {failure}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": report["metrics"],
            }
        )
    )
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
