"""Domain model for periodic multi-path transmission schedules.

A network is a directed graph with integer link delays (slots) and exact
rational link bandwidths (data units per slot).  A sender emits a batch of
``D`` data units every ``T`` slots and the batch must reach the receiver over
one or more paths.  A schedule assigns amounts to (path, offset-vector) pairs
and is replayed every period; overlapping periods share link bandwidth, so
capacity is checked per offset residue class mod ``T``.

Bandwidths, batches and amounts are exact rationals: an ``int`` when the
value is integral and a `fractions.Fraction` otherwise (`exact`), so an
instance with integer bandwidths and batch is solved in ``int`` arithmetic
throughout.  A division always goes through `Fraction`, never ``/`` on two
ints.  The throughput bounds ``r_min``/``r_max`` stay `Fraction`, since
they are only ever divided into.  Delays, offsets and periods are plain
ints.  Nothing in the solver path ever rounds.

Offset convention: an entry over hops ``e_1..e_H`` stores
``offsets = (u_0, u_1, ..., u_H)`` with ``u_0 = 0``, where ``u_i`` is the
arrival slot at the head of hop ``i`` relative to batch generation.  The push
slot onto hop ``i`` is ``u_i - delay_i``, the holding time spent at the tail
of hop ``i`` is ``u_i - delay_i - u_{i-1}``, and delivery happens at ``u_H``.
Data is never parked at the receiver: the last offset *is* the arrival.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple


# an exact rational value: int when integral, Fraction otherwise
Rational = int | Fraction


def exact(value) -> Rational:
    """``value`` as an exact rational: an int when integral, else a Fraction."""
    if type(value) is int:
        return value
    value = value if type(value) is Fraction else Fraction(value)
    return value.numerator if value.denominator == 1 else value


class ModelError(ValueError):
    """Structurally invalid input (bad path, unknown link, bad instance)."""


@dataclass(frozen=True)
class Violation:
    """One broken invariant, naming the offending element."""

    code: str
    subject: str
    detail: str = ""

    def __str__(self) -> str:
        msg = f"{self.code}: {self.subject}"
        return f"{msg} ({self.detail})" if self.detail else msg


@dataclass(frozen=True)
class Link:
    id: str
    tail: str
    head: str
    delay: int
    bandwidth: Rational

    def __post_init__(self):
        object.__setattr__(self, "bandwidth", exact(self.bandwidth))


@dataclass(frozen=True)
class Network:
    """Directed multigraph; parallel links are distinct by link id."""

    nodes: tuple[str, ...]
    links: tuple[Link, ...]

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "links", tuple(self.links))

    @cached_property
    def _hash(self) -> int:
        return hash((self.nodes, self.links))

    def __hash__(self) -> int:
        """The dataclass's field hash, computed once: every lru cache keyed
        by a network or an instance hashes it on each call."""
        return self._hash

    def __getstate__(self) -> dict:
        # a str hashes differently in another process, so a pickle leaves
        # the cached hash behind
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    @cached_property
    def link_index(self) -> dict[str, Link]:
        """Link id -> link, built on first use; callers only read it."""
        return {link.id: link for link in self.links}

    @cached_property
    def view(self) -> _View:
        """The network by position, built on first use; callers only read it."""
        pos = {v: i for i, v in enumerate(self.nodes)}
        out: list[list[int]] = [[] for _ in self.nodes]
        into: list[list[int]] = [[] for _ in self.nodes]
        for l, link in enumerate(self.links):
            out[pos[link.tail]].append(l)
            into[pos[link.head]].append(l)
        by_link = [(pos[x.tail], pos[x.head], x.delay, x.bandwidth) for x in self.links]
        columns = map(tuple, zip(*by_link)) if by_link else ((),) * 4
        return _View(pos, *columns, out, into)


class _View(NamedTuple):
    """A network with nodes and links numbered by their position in it, for
    the static-flow kernels: link l runs from node tail[l] to head[l]."""

    pos: dict[str, int]  # node -> position
    tail: tuple[int, ...]  # by link
    head: tuple[int, ...]
    delay: tuple[int, ...]
    bandwidth: tuple[Rational, ...]
    out: list[list[int]]  # by node, the links leaving it in link order
    into: list[list[int]]  # by node, the links entering it in link order


def network(nodes: Iterable[str], links: Iterable[tuple]) -> Network:
    """Build a Network from (id, tail, head, delay, bandwidth) tuples."""
    return Network(
        nodes=tuple(nodes),
        links=tuple(Link(i, t, h, d, b) for i, t, h, d, b in links),
    )


@dataclass(frozen=True)
class Instance:
    """A solvable problem: network, endpoints, batch size, throughput window.

    ``r_min``/``r_max`` bound the throughput ``batch / period``; both
    ``batch / r_min`` and ``batch / r_max`` must be positive integers, so the
    candidate periods form the integer range [batch/r_max, batch/r_min].
    The network must pass `validate_network`.
    """

    network: Network
    sender: str
    receiver: str
    batch: Rational
    r_min: Fraction
    r_max: Fraction

    def __post_init__(self):
        object.__setattr__(self, "batch", exact(self.batch))
        object.__setattr__(self, "r_min", Fraction(self.r_min))
        object.__setattr__(self, "r_max", Fraction(self.r_max))
        problems = validate_network(self.network)
        if problems:
            raise ModelError("invalid network: " + "; ".join(map(str, problems)))
        if self.batch <= 0:
            raise ModelError("batch must be positive")
        if self.sender == self.receiver:
            raise ModelError("sender and receiver must differ")
        if self.sender not in self.network.nodes:
            raise ModelError(f"sender {self.sender!r} not in network")
        if self.receiver not in self.network.nodes:
            raise ModelError(f"receiver {self.receiver!r} not in network")
        if self.r_min <= 0 or self.r_max <= 0:
            raise ModelError("throughput requirements must be positive")
        if self.r_min > self.r_max:
            raise ModelError("r_min exceeds r_max")
        for name, rate in (("r_min", self.r_min), ("r_max", self.r_max)):
            if (self.batch / rate).denominator != 1:
                raise ModelError(f"batch/{name} must be a positive integer")

    @cached_property
    def max_period(self) -> int:
        return int(self.batch / self.r_min)

    @cached_property
    def min_period(self) -> int:
        return int(self.batch / self.r_max)


def _link(index: dict[str, Link], link_id: str) -> Link:
    """The link of ``index`` that ``link_id`` names; ModelError if none does."""
    link = index.get(link_id)
    if link is None:
        raise ModelError(f"entry references unknown link {link_id!r}")
    return link


@dataclass(frozen=True)
class ScheduleEntry:
    """One (path, offsets, amount) assignment.

    ``links`` are hop link ids in order; ``offsets`` follow the arrival
    convention described in the module docstring.
    """

    links: tuple[str, ...]
    offsets: tuple[int, ...]
    amount: Rational

    def __post_init__(self):
        # most entries arrive in normal form; a field is re-set only when not
        if type(self.links) is not tuple:
            object.__setattr__(self, "links", tuple(self.links))
        if type(self.offsets) is not tuple:
            object.__setattr__(self, "offsets", tuple(self.offsets))
        if exact(self.amount) is not self.amount:
            object.__setattr__(self, "amount", exact(self.amount))
        wrong = [u for u in self.offsets if type(u) is not int]
        if wrong:
            raise ModelError(f"offsets must be integers, not {wrong!r}")
        if len(self.offsets) != len(self.links) + 1:
            raise ModelError("offsets must have one entry per hop plus the origin")
        if not self.links:
            raise ModelError("entry needs at least one hop")
        if self.offsets[0] != 0:
            raise ModelError("first offset must be 0")

    @property
    def delivery(self) -> int:
        return self.offsets[-1]

    def path_nodes(self, net: Network) -> tuple[str, ...]:
        index = net.link_index
        nodes = [_link(index, self.links[0]).tail]
        for link_id in self.links:
            link = _link(index, link_id)
            if link.tail != nodes[-1]:
                raise ModelError(f"hops are not contiguous at link {link_id!r}")
            nodes.append(link.head)
        return tuple(nodes)

    def push_offsets(self, net: Network) -> tuple[int, ...]:
        """Per-hop push slots (offset the data is put onto each link)."""
        index = net.link_index
        return tuple(
            self.offsets[i + 1] - index[link_id].delay
            for i, link_id in enumerate(self.links)
        )


@dataclass(frozen=True)
class PeriodicSolution:
    period: int
    entries: tuple[ScheduleEntry, ...]

    def __post_init__(self):
        if type(self.entries) is not tuple:
            object.__setattr__(self, "entries", tuple(self.entries))
        if type(self.period) is not int or self.period < 1:
            raise ModelError("period must be a positive integer")

    @property
    def total_amount(self) -> Rational:
        return sum(e.amount for e in self.entries)

    @property
    def max_delay(self) -> int:
        return max((e.delivery for e in self.entries if e.amount > 0), default=0)


@dataclass(frozen=True)
class AoiReport:
    """Per-throughput optimum: delay plus the two closed-form age values."""

    throughput: Fraction
    period: int
    max_delay: int
    peak_aoi: int
    avg_aoi: Fraction


def report_for(throughput: Fraction, period: int, max_delay: int) -> AoiReport:
    peak, avg = aoi_from_max_delay(max_delay, period)
    return AoiReport(Fraction(throughput), period, max_delay, peak, avg)


# ---------------------------------------------------------------------------
# operations


def _unwritable(kind: str, name: str, separator: str) -> Violation | None:
    """Why ``name`` cannot be carried by a schedule file, if it cannot.

    A schedule line is split on whitespace, its path on '>' and its link
    list on ','.
    """
    if not name:
        return Violation("empty-name", kind)
    if separator in name or any(ch.isspace() for ch in name):
        return Violation(
            f"unwritable-{kind}", name, f"whitespace or {separator!r} in the name"
        )
    return None


def validate_network(net: Network) -> list[Violation]:
    """Return all structural violations; an empty list means the net is sane."""
    violations: list[Violation] = []
    declared = set(net.nodes)
    seen_ids: set[str] = set()
    if len(declared) != len(net.nodes):
        violations.append(Violation("duplicate-node", "nodes", "repeated node id"))
    for node in net.nodes:
        problem = _unwritable("node-name", node, ">")
        if problem is not None:
            violations.append(problem)
    for link in net.links:
        problem = _unwritable("link-id", link.id, ",")
        if problem is not None:
            violations.append(problem)
        if link.id in seen_ids:
            violations.append(Violation("duplicate-link-id", link.id))
        seen_ids.add(link.id)
        if isinstance(link.delay, bool) or not isinstance(link.delay, int):
            violations.append(Violation("non-integer-delay", link.id, f"delay={link.delay!r}"))
        elif link.delay < 1:
            violations.append(
                Violation("nonpositive-delay", link.id, f"delay={link.delay}")
            )
        if link.bandwidth < 0:
            violations.append(
                Violation("negative-bandwidth", link.id, f"bandwidth={link.bandwidth}")
            )
        if link.tail == link.head:
            violations.append(Violation("self-loop", link.id))
        for endpoint in (link.tail, link.head):
            if endpoint not in declared:
                violations.append(
                    Violation("unknown-endpoint", link.id, f"node={endpoint}")
                )
    return violations


def feasible_periods(inst: Instance) -> list[int]:
    """The whole period window, ascending; a period T is feasible only when
    the static max flow reaches D/T, and `min_max_delay` is None elsewhere."""
    return list(range(inst.min_period, inst.max_period + 1))


def aoi_from_max_delay(max_delay: int, period: int) -> tuple[int, Fraction]:
    """Closed-form peak and average age for a schedule with the given delay.

    The age trajectory of a periodic schedule rises linearly from the maximum
    delay up to max_delay + period - 1 and repeats, so the peak is the top of
    that ramp and the average is its midpoint.
    """
    if max_delay < 1 or period < 1:
        raise ModelError("max_delay and period must be positive")
    peak = max_delay + period - 1
    avg = Fraction(max_delay) + Fraction(period - 1, 2)
    return peak, avg


def residue_loads(
    net: Network, sol: PeriodicSolution
) -> dict[tuple[str, int], Rational]:
    """Aggregate amount pushed onto each link per offset residue class;
    raises ModelError for an entry on an unknown link."""
    loads: dict[tuple[str, int], Rational] = {}
    index = net.link_index
    period = sol.period
    tables: dict[tuple[str, ...], tuple[tuple[int, str, int], ...]] = {}  # by path
    for entry in sol.entries:
        hops = tables.get(entry.links)
        if hops is None:  # (hop, link id, delay) of each of its hops
            hops = tables[entry.links] = tuple(
                (i, link_id, _link(index, link_id).delay)
                for i, link_id in enumerate(entry.links, start=1)
            )
        offsets, amount = entry.offsets, entry.amount
        for i, link_id, delay in hops:
            key = (link_id, (offsets[i] - delay) % period)
            loads[key] = loads.get(key, 0) + amount
    return loads


# an entry's path violations as (code, detail) pairs, and its hop delays
_PathShape = tuple[tuple[tuple[str, str], ...], tuple[int, ...]]


def _path_shape(inst: Instance, entry: ScheduleEntry) -> _PathShape:
    """What an entry's links alone decide about it; raises ModelError on bad
    structure."""
    nodes = entry.path_nodes(inst.network)
    problems = []
    if nodes[0] != inst.sender:
        problems.append(("path-start", f"starts at {nodes[0]}"))
    if nodes[-1] != inst.receiver:
        problems.append(("path-end", f"ends at {nodes[-1]}"))
    if len(set(nodes)) != len(nodes):
        problems.append(("path-not-simple", ""))
    index = inst.network.link_index
    return tuple(problems), tuple(index[link_id].delay for link_id in entry.links)


def validate_solution(
    inst: Instance, sol: PeriodicSolution
) -> tuple[bool, int, list[Violation]]:
    """Check a schedule against an instance.

    Verifies the batch total, the period window, per-hop offset monotonicity,
    path shape (sender-to-receiver, simple), and the residue-class bandwidth
    constraints.  Returns (ok, max_delay, violations); max_delay is the
    largest delivery offset among positive entries.  A path several entries
    share is checked once; each of those entries still reports its
    violations, in entry order.

    Raises ModelError for structurally malformed entries (unknown links,
    non-contiguous hops).
    """
    violations: list[Violation] = []
    net = inst.network
    index = net.link_index

    shapes: dict[tuple[str, ...], _PathShape] = {}
    for pos, entry in enumerate(sol.entries):
        shape = shapes.get(entry.links)
        if shape is None:
            shape = shapes[entry.links] = _path_shape(inst, entry)
        problems, delays = shape
        offsets = entry.offsets
        late = []  # hops arriving before they can be pushed
        previous = offsets[0]
        for hop, delay in enumerate(delays, start=1):
            arrival = offsets[hop]
            if arrival < previous + delay:
                late.append(hop)
            previous = arrival
        if problems or late or entry.amount <= 0:
            label = f"entry[{pos}]"
            violations += (Violation(code, label, detail) for code, detail in problems)
            if entry.amount <= 0:
                violations.append(Violation("nonpositive-amount", label))
            violations += (
                Violation("offset-order", label, f"hop {hop} arrives before it can be pushed")
                for hop in late
            )

    total = sol.total_amount
    if total != inst.batch:
        violations.append(
            Violation("throughput", "solution", f"total {total} != batch {inst.batch}")
        )
    if sol.period not in range(inst.min_period, inst.max_period + 1):
        violations.append(
            Violation("period-window", "solution", f"T={sol.period} outside window")
        )

    loads = residue_loads(net, sol)
    over = sorted(key for key, load in loads.items() if load > index[key[0]].bandwidth)
    for key in over:
        link_id, residue = key
        cap = index[link_id].bandwidth
        violations.append(
            Violation("bandwidth", link_id, f"residue {residue} carries {loads[key]} > {cap}")
        )

    return (not violations, sol.max_delay, violations)


def simulate_aoi(sol: PeriodicSolution) -> tuple[int, Fraction]:
    """Slot-level age trace over one steady-state window.

    Replays the schedule's deliveries: a generation made at k*T is complete
    once the last positive entry has arrived, i.e. at k*T + C with C taken
    from the entries themselves.  The age at slot t is t minus the newest
    complete generation, t - T*floor((t - C)/T), which repeats every T
    slots; scanning t over [C, C + T) covers one full period of it exactly.
    """
    period = sol.period
    completion = sol.max_delay
    if completion <= 0:
        raise ModelError("solution delivers nothing")
    ages = []
    for t in range(completion, completion + period):
        # newest generation k*T whose batch fully arrived by t
        k = (t - completion) // period
        ages.append(t - k * period)
    return max(ages), Fraction(sum(ages), period)
