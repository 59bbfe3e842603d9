"""Command-line front end.

The parser tree, the top-level parser and one subparser per command, is
built once when the module is imported; `main` only parses with it.

Exit codes: 0 success, 1 bad input (a usage error included), 2 infeasible
instance.  Exit 1 with ``error: ...`` on stderr reports bad input; a solver
fault, such as a broken invariant, raises `AssertionError`, which `main`
does not catch.
"""

from __future__ import annotations

import argparse
import sys

from . import experiments, fileio
from .model import ModelError, aoi_from_max_delay, validate_network, validate_solution
from .mmd import min_max_delay
from .solvers import AllInfeasibleError, Objective, approx_solve, solve_optimal

OBJECTIVES = {
    "mpa": Objective.PEAK_AOI,
    "maa": Objective.AVG_AOI,
    "mmd": Objective.MAX_DELAY,
}

KINDS = tuple(experiments.TOPOLOGIES)


def _fr(value) -> str:
    return fileio.format_rational(value)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _spec_for(kind: str, params: list[str], seed: int) -> experiments.TopologySpec:
    types, _ = experiments.TOPOLOGIES[kind]
    try:
        values = tuple(parse(v) for parse, v in zip(types, params, strict=True))
    except ValueError as exc:
        raise ModelError(f"bad parameters for {kind}: {params}") from exc
    return experiments.TopologySpec(kind, values, seed)


def _emit(args, text: str) -> None:
    if not args.quiet:
        print(text)


def _solve_arguments(p) -> None:
    p.add_argument("objective", choices=["mpa", "maa", "mmd"])
    p.add_argument("instance")
    p.add_argument("--sol", help="write the schedule here")
    p.add_argument("--csv", help="write the per-period sweep here")
    p.add_argument("--mu-override", type=int, help="search ceiling override")


def _cmd_solve(args) -> int:
    inst = fileio.load_instance(args.instance)
    objective = OBJECTIVES[args.objective]
    try:
        outcome = solve_optimal(inst, objective, args.mu_override)
    except AllInfeasibleError:
        _emit(args, "infeasible at every period")
        return 2
    if args.sol:
        fileio.save_solution(inst.network, outcome.solution, inst.batch, args.sol)
    if args.csv:
        rows = experiments.run_sweep(inst, args.mu_override)
        experiments.write_sweep_csv(rows, args.instance, args.csv)
    best = outcome.best
    rates = ",".join(_fr(r) for r in sorted(outcome.optimal_throughputs))
    _emit(
        args,
        f"objective={args.objective} R={_fr(best.throughput)} T={best.period} "
        f"M={best.max_delay} peak={best.peak_aoi} avg={_fr(best.avg_aoi)} "
        f"optimal_throughputs={{{rates}}}",
    )
    return 0


def _approx_arguments(p) -> None:
    p.add_argument("objective", choices=["mpa", "maa"])
    p.add_argument("instance")
    p.add_argument("--sol", help="write the schedule here")
    p.add_argument("--alpha", default="1", help="declared backend guarantee (p/q)")


def _cmd_approx(args) -> int:
    inst = fileio.load_instance(args.instance)
    objective = OBJECTIVES[args.objective]
    try:
        outcome = approx_solve(
            inst, objective, alpha=fileio.parse_rational(args.alpha)
        )
    except AllInfeasibleError:
        _emit(args, "infeasible at every period")
        return 2
    if args.sol:
        fileio.save_solution(inst.network, outcome.solution, inst.batch, args.sol)
    rep = outcome.report
    _emit(
        args,
        f"objective={args.objective} R={_fr(rep.throughput)} T={rep.period} "
        f"M={rep.max_delay} peak={rep.peak_aoi} avg={_fr(rep.avg_aoi)} "
        f"ratio_bound={_fr(outcome.ratio_bound)}",
    )
    return 0


def _validate_arguments(p) -> None:
    p.add_argument("instance")
    p.add_argument("solution")


def _cmd_validate(args) -> int:
    inst = fileio.load_instance(args.instance)
    sol, batch = fileio.load_solution(inst.network, args.solution)
    if batch != inst.batch:
        _emit(args, f"schedule batch {_fr(batch)} != instance batch {_fr(inst.batch)}")
        return 2
    ok, max_delay, violations = validate_solution(inst, sol)
    if not ok:
        for v in violations:
            _emit(args, f"violation {v}")
        return 2
    peak, avg = aoi_from_max_delay(max_delay, sol.period)
    _emit(args, f"ok M={max_delay} peak={peak} avg={_fr(avg)} T={sol.period}")
    return 0


def _mmd_at_period_arguments(p) -> None:
    p.add_argument("instance")
    p.add_argument("period", type=int)
    p.add_argument("--sol", help="write the schedule here")
    p.add_argument("--mu-override", type=int)


def _cmd_mmd_at_period(args) -> int:
    inst = fileio.load_instance(args.instance)
    result = min_max_delay(inst, args.period, args.mu_override)
    if result is None:
        _emit(args, f"infeasible at period {args.period}")
        return 2
    if args.sol:
        fileio.save_solution(inst.network, result.solution, inst.batch, args.sol)
    peak, avg = aoi_from_max_delay(result.max_delay, result.period)
    _emit(
        args,
        f"T={result.period} M={result.max_delay} peak={peak} avg={_fr(avg)} "
        f"probes={len(result.probes)}",
    )
    return 0


def _gen_arguments(p) -> None:
    p.add_argument("kind", choices=KINDS)
    p.add_argument("params", nargs="*", help="model parameters (see docs)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)


def _cmd_gen(args) -> int:
    spec = _spec_for(args.kind, args.params, args.seed)
    net = experiments.generate(spec)
    problems = validate_network(net)
    if problems:
        raise ModelError(f"generated network invalid: {problems}")
    fileio.save_network(net, args.out)
    _emit(
        args,
        f"{args.kind} nodes={len(net.nodes)} "
        f"undirected_edges={experiments.undirected_edge_count(net)} -> {args.out}",
    )
    return 0


def _sweep_arguments(p) -> None:
    p.add_argument("instance")
    p.add_argument("--csv", required=True)
    p.add_argument("--mu-override", type=int)


def _cmd_sweep(args) -> int:
    inst = fileio.load_instance(args.instance)
    rows = experiments.run_sweep(inst, args.mu_override)
    experiments.write_sweep_csv(rows, args.instance, args.csv)
    if all(row.opt is None for row in rows):
        _emit(args, "infeasible at every period")
        return 2
    _emit(args, f"{len(rows)} periods -> {args.csv}")
    return 0


def _batch_arguments(p) -> None:
    p.add_argument("kind", choices=KINDS)
    p.add_argument("params", nargs="*")
    p.add_argument("--count", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=int, default=5, help="batch = scale * capacity")
    p.add_argument("--periods", type=int, default=10)
    p.add_argument("--csv", required=True)


def _cmd_batch(args) -> int:
    if args.count < 1:
        raise ModelError(f"count must be at least 1, got {args.count}")
    summaries = []
    for i in range(args.count):
        spec = _spec_for(args.kind, args.params, args.seed + i)
        net = experiments.generate(spec)
        sender, receiver = experiments.pick_endpoints(net, args.seed + i)
        inst = experiments.scaled_instance(
            net, sender, receiver, args.scale, args.periods
        )
        name = f"{args.kind}-{args.seed + i}"
        summaries.append(experiments.summarize_instance(name, inst))
    experiments.write_batch_csv(summaries, args.csv)
    _emit(args, f"{len(summaries)} instances -> {args.csv}")
    return 0


# name -> (help line, adds the command's arguments, handler)
COMMANDS = {
    "solve": ("optimal solve over the period window", _solve_arguments, _cmd_solve),
    "approx": ("steady-rate approximation framework", _approx_arguments, _cmd_approx),
    "validate": (
        "check a schedule file against an instance",
        _validate_arguments,
        _cmd_validate,
    ),
    "mmd-at-period": (
        "minimum maximum delay at one period",
        _mmd_at_period_arguments,
        _cmd_mmd_at_period,
    ),
    "gen": ("generate a topology", _gen_arguments, _cmd_gen),
    "sweep": ("per-period optimal vs replay table", _sweep_arguments, _cmd_sweep),
    "batch": ("summary over seeded random instances", _batch_arguments, _cmd_batch),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="aoiflow",
        description="Periodic multi-path schedules minimizing age-of-information",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress human output")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (summary, add_arguments, _) in COMMANDS.items():
        add_arguments(sub.add_parser(name, help=summary))
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    _, _, run = COMMANDS[args.command]
    try:
        return run(args)
    except (ValueError, OSError) as exc:  # ModelError, bad JSON, bad numbers
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # an expansion or HiGHS outgrew the machine: no verdict
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
