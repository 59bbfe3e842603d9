"""Periodic multi-path routing schedules minimizing age-of-information.

The library computes, for a batch that must be shipped from a sender to a
receiver every T slots over a capacitated delay network, the periodic
schedule minimizing peak or average information age (or maximum delay),
exactly, plus a fast steady-rate approximation with a certified ratio.
"""

from .model import (
    AoiReport,
    Instance,
    Link,
    ModelError,
    Network,
    PeriodicSolution,
    ScheduleEntry,
    Violation,
    aoi_from_max_delay,
    feasible_periods,
    network,
    report_for,
    residue_loads,
    simulate_aoi,
    validate_network,
    validate_solution,
)
from .expander import ExpandedNetwork, build_expanded, horizon_upper_bound
from .lp import LinearProgram, LpSolution, solve_lp
from .flowlp import build_flow_lp, extract_edge_flow
from .mmd import MmdResult, decompose, lift_path_flow, min_max_delay, min_max_delay_oracle
from .solvers import (
    AllInfeasibleError,
    ApproxOutcome,
    Objective,
    PathFlow,
    SolveOutcome,
    approx_solve,
    check_objective_relations,
    mmd1_exact,
    solve_optimal,
)
from .experiments import (
    TopologySpec,
    batch_capacity,
    generate,
    run_sweep,
    scaled_instance,
)

__all__ = [
    # model
    "AoiReport",
    "Instance",
    "Link",
    "ModelError",
    "Network",
    "PeriodicSolution",
    "ScheduleEntry",
    "Violation",
    "aoi_from_max_delay",
    "feasible_periods",
    "network",
    "report_for",
    "residue_loads",
    "simulate_aoi",
    "validate_network",
    "validate_solution",
    # expander
    "ExpandedNetwork",
    "build_expanded",
    "horizon_upper_bound",
    # lp, flowlp
    "LinearProgram",
    "LpSolution",
    "solve_lp",
    "build_flow_lp",
    "extract_edge_flow",
    # mmd
    "MmdResult",
    "decompose",
    "lift_path_flow",
    "min_max_delay",
    "min_max_delay_oracle",
    # solvers
    "AllInfeasibleError",
    "ApproxOutcome",
    "Objective",
    "PathFlow",
    "SolveOutcome",
    "approx_solve",
    "check_objective_relations",
    "mmd1_exact",
    "solve_optimal",
    # experiments
    "TopologySpec",
    "batch_capacity",
    "generate",
    "run_sweep",
    "scaled_instance",
]
__version__ = "0.1.0"
