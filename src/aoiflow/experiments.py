"""Topology generators and the sweep/batch measurement harness.

`run_sweep` pairs every period's optimum with the steady-rate replay at its
rate (`sweep`, `solve --csv`).  A `batch` row needs only the two optima over
the window and the replay at r_min: `solve_optimal` and `approx_solve`.

Generated graphs are undirected; every undirected edge becomes two directed
links operating independently, each drawing its own delay from
`DEFAULT_DELAYS` and bandwidth from `DEFAULT_BANDWIDTHS`.  All draws come
from one seeded PRNG in a fixed order (edges first, then attributes in
sorted edge order), so a spec + seed pins the network byte for byte.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from fractions import Fraction

from .fileio import format_rational
from .maxflow import max_flow, shortest_delay
from .mmd import min_max_delay
from .model import (
    AoiReport,
    Instance,
    ModelError,
    Network,
    Link,
    feasible_periods,
    report_for,
)
from .solvers import Objective, approx_solve, mmd1_exact, solve_optimal

DEFAULT_DELAYS = (1, 2, 3, 4, 5)
DEFAULT_BANDWIDTHS = (
    Fraction(10),
    Fraction(20),
    Fraction(30),
    Fraction(40),
    Fraction(50),
)


@dataclass(frozen=True)
class TopologySpec:
    kind: str  # a key of TOPOLOGIES
    params: tuple
    seed: int


def complete_graph(n: int, seed: int) -> TopologySpec:
    return TopologySpec("complete", (n,), seed)


def grid_graph(rows: int, cols: int, seed: int) -> TopologySpec:
    return TopologySpec("grid", (rows, cols), seed)


def erdos_renyi(n: int, m: int, seed: int) -> TopologySpec:
    return TopologySpec("erdos-renyi", (n, m), seed)


def watts_strogatz(n: int, k: int, p: float, seed: int) -> TopologySpec:
    return TopologySpec("watts-strogatz", (n, k, p), seed)


def copying_model(n: int, p: float, seed: int) -> TopologySpec:
    return TopologySpec("copying", (n, p), seed)


def _check_probability(kind: str, p: float) -> None:
    if not 0 <= p <= 1:  # also false for NaN
        raise ModelError(f"{kind} probability p must lie in [0, 1], got {p}")


_Edges = tuple[list[str], list[tuple[str, str]]]


def _complete(rng: random.Random, n: int) -> _Edges:
    if n < 2:
        raise ModelError("complete graph needs at least 2 nodes")
    nodes = [f"a{i}" for i in range(1, n + 1)]
    edges = [(nodes[i], nodes[j]) for i in range(n) for j in range(i + 1, n)]
    return nodes, edges


def _grid(rng: random.Random, rows: int, cols: int) -> _Edges:
    if rows < 2 or cols < 2:
        raise ModelError("grid needs at least 2x2")
    nodes = [f"a{r}_{c}" for r in range(1, rows + 1) for c in range(1, cols + 1)]
    edges = []
    for r in range(1, rows + 1):
        for c in range(1, cols + 1):
            if c < cols:
                edges.append((f"a{r}_{c}", f"a{r}_{c + 1}"))
            if r < rows:
                edges.append((f"a{r}_{c}", f"a{r + 1}_{c}"))
    return nodes, edges


def _erdos_renyi(rng: random.Random, n: int, m: int) -> _Edges:
    if n < 2:
        raise ModelError(f"erdos-renyi node count n must be at least 2, got {n}")
    nodes = [f"a{i}" for i in range(1, n + 1)]
    pairs = [(nodes[i], nodes[j]) for i in range(n) for j in range(i + 1, n)]
    if m < 0:
        raise ModelError(f"erdos-renyi edge count m must be at least 0, got {m}")
    if m > len(pairs):
        raise ModelError("more edges requested than node pairs")
    return nodes, sorted(rng.sample(pairs, m))


def _watts_strogatz(rng: random.Random, n: int, k: int, p: float) -> _Edges:
    _check_probability("watts-strogatz", p)
    if k < 1:
        raise ModelError(f"watts-strogatz ring degree k must be at least 1, got {k}")
    half = (k + 1) // 2  # odd ring degrees round up to the next even one
    if n < 2 * half + 1:
        raise ModelError("ring too small for the requested degree")
    nodes = [f"a{i}" for i in range(1, n + 1)]
    edges = set()
    ring = []
    for i in range(n):
        for j in range(1, half + 1):
            a, b = i, (i + j) % n
            ring.append((min(a, b), max(a, b)))
    for a, b in ring:
        pair = (a, b)
        if rng.random() < p:
            for _ in range(8):  # rewire, keeping the edge on failure
                c = rng.randrange(n)
                if c != a and (min(a, c), max(a, c)) not in edges:
                    pair = (min(a, c), max(a, c))
                    break
        if pair not in edges:
            edges.add(pair)
    return nodes, sorted((nodes[a], nodes[b]) for a, b in edges)


def _copying(rng: random.Random, n: int, p: float) -> _Edges:
    _check_probability("copying", p)
    if n < 2:
        raise ModelError("copying model needs at least 2 nodes")
    nodes = [f"a{i}" for i in range(1, n + 1)]
    edges = {(0, 1)}
    neighbors = {0: {1}, 1: {0}}
    for v in range(2, n):
        proto = rng.randrange(v)
        # proto has a neighbour, and each gives a target below v: v gains a link
        attached = set()
        for w in sorted(neighbors[proto]):
            attached.add(rng.randrange(v) if rng.random() < p else w)
        neighbors[v] = set()
        for w in attached:
            edges.add((min(v, w), max(v, w)))
            neighbors[v].add(w)
            neighbors[w].add(v)
    return nodes, sorted((nodes[a], nodes[b]) for a, b in edges)


# kind -> (the types of a spec's params, in order; its undirected edges,
# drawn from the seeded PRNG and the params)
TOPOLOGIES = {
    "complete": ((int,), _complete),
    "grid": ((int, int), _grid),
    "erdos-renyi": ((int, int), _erdos_renyi),
    "watts-strogatz": ((int, int, float), _watts_strogatz),
    "copying": ((int, float), _copying),
}


def generate(spec: TopologySpec) -> Network:
    """Deterministic network for the spec (two directed links per edge)."""
    if spec.kind not in TOPOLOGIES:
        raise ModelError(f"unknown topology kind {spec.kind!r}")
    rng = random.Random(spec.seed)
    nodes, edges = TOPOLOGIES[spec.kind][1](rng, *spec.params)
    links = []
    for u, v in sorted(edges):
        for tail, head in ((u, v), (v, u)):
            links.append(
                Link(
                    id=f"{tail}>{head}",
                    tail=tail,
                    head=head,
                    delay=rng.choice(DEFAULT_DELAYS),
                    bandwidth=rng.choice(DEFAULT_BANDWIDTHS),
                )
            )
    return Network(nodes=tuple(nodes), links=tuple(links))


def undirected_edge_count(net: Network) -> int:
    return len(net.links) // 2


def batch_capacity(net: Network, sender: str, receiver: str) -> Fraction:
    """Largest amount streamable per slot from sender to receiver.

    This equals the static max-flow rate: a periodic schedule averages to a
    static flow of its throughput, and any static flow replayed every slot is
    a valid unit-period schedule.
    """
    if sender == receiver:
        raise ModelError("sender and receiver must differ")
    return max_flow(net, sender, receiver)[1]


def scaled_instance(
    net: Network, sender: str, receiver: str, scale: int, n_periods: int = 10
) -> Instance:
    """Batch = scale * capacity with n_periods candidate periods from scale up."""
    if scale < 1:
        raise ModelError(f"scale must be at least 1, got {scale}")
    if n_periods < 1:
        raise ModelError(f"n_periods must be at least 1, got {n_periods}")
    cap = batch_capacity(net, sender, receiver)
    if cap <= 0:
        raise ModelError("sender cannot reach receiver")
    batch = scale * cap
    return Instance(
        network=net,
        sender=sender,
        receiver=receiver,
        batch=batch,
        r_min=Fraction(batch, scale + n_periods - 1),
        r_max=Fraction(batch, scale),
    )


@dataclass(frozen=True)
class SweepRow:
    period: int
    throughput: Fraction
    opt: AoiReport | None  # None: this period's throughput is unsupportable
    ap: AoiReport | None  # the steady-rate replay at the same throughput


def run_sweep(inst: Instance, horizon: int | None = None) -> list[SweepRow]:
    """Every period's optimal report next to the steady-rate replay's."""
    rows = []
    for period in feasible_periods(inst):
        throughput = Fraction(inst.batch, period)
        result = min_max_delay(inst, period, horizon)
        if result is None:
            rows.append(SweepRow(period, throughput, None, None))
            continue
        ap = mmd1_exact(inst.network, inst.sender, inst.receiver, throughput)
        if ap is None:
            raise AssertionError("steady-rate problem infeasible at a feasible period")
        rows.append(
            SweepRow(
                period,
                throughput,
                report_for(throughput, period, result.max_delay),
                report_for(throughput, period, ap.max_delay + period - 1),
            )
        )
    return rows


SWEEP_HEADER = [
    "instance_id",
    "T",
    "R",
    "M_opt",
    "peak_opt",
    "avg_opt",
    "peak_ap",
    "avg_ap",
    "status",
]


def write_sweep_csv(rows: list[SweepRow], instance_id: str, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_HEADER)
        for row in rows:
            opt, ap = row.opt, row.ap
            if opt is None:
                values = ["", "", "", "", "", "infeasible"]
            else:
                values = [
                    opt.max_delay,
                    opt.peak_aoi,
                    format_rational(opt.avg_aoi),
                    ap.peak_aoi,
                    format_rational(ap.avg_aoi),
                    "ok",
                ]
            throughput = format_rational(row.throughput)
            writer.writerow([instance_id, row.period, throughput, *values])


@dataclass(frozen=True)
class BatchSummary:
    instance_id: str
    periods: int
    peak_opt: int
    peak_ap: int
    peak_reduction: Fraction
    avg_opt: Fraction
    avg_ap: Fraction
    avg_reduction: Fraction


def summarize_instance(instance_id: str, inst: Instance) -> BatchSummary:
    """Optimal-vs-replay comparison for one instance.

    The replay framework commits to the lowest throughput (largest period),
    mirroring how it would be deployed; reductions are exact fractions,
    rounded only when written out.
    """
    peak_opt = solve_optimal(inst, Objective.PEAK_AOI).best.peak_aoi
    avg_opt = solve_optimal(inst, Objective.AVG_AOI).best.avg_aoi
    ap = approx_solve(inst, Objective.PEAK_AOI).report
    return BatchSummary(
        instance_id=instance_id,
        periods=len(feasible_periods(inst)),
        peak_opt=peak_opt,
        peak_ap=ap.peak_aoi,
        peak_reduction=Fraction(ap.peak_aoi - peak_opt, ap.peak_aoi),
        avg_opt=avg_opt,
        avg_ap=ap.avg_aoi,
        avg_reduction=(ap.avg_aoi - avg_opt) / ap.avg_aoi,
    )


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


def write_batch_csv(summaries: list[BatchSummary], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(BATCH_HEADER)
        for s in summaries:
            writer.writerow(
                [
                    s.instance_id,
                    s.periods,
                    s.peak_opt,
                    s.peak_ap,
                    f"{float(s.peak_reduction):.4f}",
                    format_rational(s.avg_opt),
                    format_rational(s.avg_ap),
                    f"{float(s.avg_reduction):.4f}",
                ]
            )


def pick_endpoints(net: Network, seed: int) -> tuple[str, str]:
    """Uniform distinct sender/receiver pair, derived deterministically.

    A pair whose receiver the sender cannot reach is redrawn from the same
    generator; ModelError when no ordered pair is connected.
    """
    if not any(link.tail != link.head for link in net.links):
        raise ModelError("no node reaches another")
    rng = random.Random(f"endpoints:{seed}")
    sender, receiver = rng.sample(list(net.nodes), 2)
    while receiver not in shortest_delay(net, sender):
        sender, receiver = rng.sample(list(net.nodes), 2)
    return sender, receiver
