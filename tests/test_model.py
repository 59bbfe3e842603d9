import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoiflow import (
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
    residue_loads,
    simulate_aoi,
    validate_network,
    validate_solution,
)
from conftest import make_fastslow_instance, make_fastslow_network, make_triple_instance


def codes(violations):
    return [v.code for v in violations]


# --- validate_network -------------------------------------------------------


def test_fastslow_network_is_clean():
    assert validate_network(make_fastslow_network()) == []


def test_zero_delay_rejected():
    net = network(["s", "r"], [("e1", "s", "r", 0, 1)])
    assert "nonpositive-delay" in codes(validate_network(net))


@pytest.mark.parametrize("delay", [2.9, 2.5, True, "3"])
def test_non_integer_delay_rejected(delay):
    # a delay is a whole number of slots: none is truncated or solved as 1
    for net in (
        network(["s", "r"], [("e1", "s", "r", delay, 1)]),
        Network(("s", "r"), (Link("e1", "s", "r", delay, 1),)),
    ):
        assert codes(validate_network(net)) == ["non-integer-delay"]
        with pytest.raises(ModelError, match="non-integer-delay: e1"):
            Instance(net, "s", "r", 1, F(1, 2), 1)


def test_unknown_endpoint_rejected():
    net = network(["s", "r"], [("e1", "s", "x", 1, 1)])
    assert "unknown-endpoint" in codes(validate_network(net))


def test_self_loop_and_negative_bandwidth_rejected():
    net = network(["s", "r"], [("e1", "s", "s", 1, 1), ("e2", "s", "r", 1, F(-1))])
    found = codes(validate_network(net))
    assert "self-loop" in found
    assert "negative-bandwidth" in found


# --- instance construction ---------------------------------------------------


def test_instance_requires_integral_period_bounds():
    net = make_fastslow_network()
    with pytest.raises(ModelError):
        Instance(net, "s", "r", F(10), F(3), F(5))  # 10/3 not integral


def test_instance_rejects_zero_batch():
    with pytest.raises(ModelError):
        Instance(make_fastslow_network(), "s", "r", F(0), F(1), F(1))


def test_instance_rejects_equal_endpoints():
    with pytest.raises(ModelError):
        Instance(make_fastslow_network(), "s", "s", F(1), F(1), F(1))


# --- feasible_periods --------------------------------------------------------


def test_fastslow_period_window():
    assert feasible_periods(make_fastslow_instance()) == [7, 8, 9, 10]


def test_degenerate_window_single_period():
    net = network(["s", "r"], [("e1", "s", "r", 1, 5)])
    inst = Instance(net, "s", "r", F(5), F(1), F(1))
    assert feasible_periods(inst) == [5]


def test_knee_period_window():
    net = network(["s", "r"], [("e1", "s", "r", 1, 1)])
    inst = Instance(net, "s", "r", F(5), F(5, 6), F(5, 3))
    assert feasible_periods(inst) == [3, 4, 5, 6]


# --- aoi_from_max_delay ------------------------------------------------------


@pytest.mark.parametrize(
    "max_delay,period,peak,avg",
    [
        (10, 10, 19, F(29, 2)),
        (7, 2, 8, F(15, 2)),
        (5, 1, 5, F(5)),
        (6, 4, 9, F(15, 2)),
    ],
)
def test_aoi_closed_form(max_delay, period, peak, avg):
    assert aoi_from_max_delay(max_delay, period) == (peak, avg)


def test_aoi_needs_a_positive_delay():
    with pytest.raises(ModelError, match="must be positive"):
        aoi_from_max_delay(0, 1)


def test_simulation_needs_a_delivery():
    with pytest.raises(ModelError, match="delivers nothing"):
        simulate_aoi(PeriodicSolution(3, ()))


# --- ScheduleEntry -----------------------------------------------------------


@pytest.mark.parametrize(
    "links,offsets,message",
    [
        (("e1",), (0,), "one entry per hop plus the origin"),
        ((), (0,), "at least one hop"),
        (("e1",), (1, 2), "first offset must be 0"),
        # an offset is a whole slot: none is truncated, and True is not slot 1
        *((("e1",), (0, u), "offsets must be integers") for u in (2.9, 2.5, True, "3")),
    ],
)
def test_malformed_entry_rejected(links, offsets, message):
    with pytest.raises(ModelError, match=message):
        ScheduleEntry(links, offsets, F(1))


@pytest.mark.parametrize("period", [2.5, True])
def test_non_integer_period_rejected(period):
    with pytest.raises(ModelError, match="period must be a positive integer"):
        PeriodicSolution(period, (ScheduleEntry(("e",), (0, 3), 1),))


def test_entry_fields_take_normal_form():
    entry = ScheduleEntry(["e"], [0, 3], F(4, 2))
    assert entry.links == ("e",) and type(entry.links) is tuple
    assert entry.offsets == (0, 3) and type(entry.offsets) is tuple
    assert entry.amount == 2 and type(entry.amount) is int
    assert type(ScheduleEntry(("e",), (0, 3), F(1, 2)).amount) is F
    # fields already in normal form are kept as passed
    links, offsets, amount = ("e",), (0, 3), F(1, 2)
    entry = ScheduleEntry(links, offsets, amount)
    assert entry.links is links and entry.offsets is offsets and entry.amount is amount
    entries = (entry,)
    assert PeriodicSolution(4, entries).entries is entries
    assert PeriodicSolution(4, [entry]).entries == entries


def test_path_nodes_names_an_unknown_later_link():
    entry = ScheduleEntry(("e1", "e9"), (0, 1, 2), F(1))
    with pytest.raises(ModelError, match="unknown link 'e9'"):
        entry.path_nodes(make_fastslow_network())


# --- validate_solution -------------------------------------------------------


def triple_unit_rate_solution():
    entries = tuple(
        ScheduleEntry(("e1",), (0, i + 1), F(1)) for i in range(5)
    )
    return PeriodicSolution(5, entries)


def test_validate_triple_streaming_schedule():
    inst = make_triple_instance()
    ok, max_delay, violations = validate_solution(inst, triple_unit_rate_solution())
    assert ok and max_delay == 5 and violations == []


def test_validate_flags_short_batch():
    inst = make_triple_instance()
    entries = tuple(ScheduleEntry(("e1",), (0, i + 1), F(1)) for i in range(4))
    ok, _, violations = validate_solution(inst, PeriodicSolution(4, entries))
    assert not ok
    assert "throughput" in codes(violations)


def test_validate_fastslow_mixed_schedule():
    inst = make_fastslow_instance()
    entries = tuple(
        ScheduleEntry(("e1",), (0, i + 1), F(1)) for i in range(7)
    ) + (ScheduleEntry(("e2",), (0, 11), F(3)),)
    ok, max_delay, violations = validate_solution(inst, PeriodicSolution(7, entries))
    assert ok and max_delay == 11


def test_validate_flags_overloaded_residue():
    inst = make_triple_instance()
    entries = (
        ScheduleEntry(("e1",), (0, 1), F(2)),  # 2 units at residue 0 on b=1
        ScheduleEntry(("e2",), (0, 6), F(2)),
        ScheduleEntry(("e3",), (0, 7), F(1)),
    )
    ok, _, violations = validate_solution(inst, PeriodicSolution(5, entries))
    assert not ok
    assert "bandwidth" in codes(violations)


def test_validate_reports_a_shared_bad_path_at_every_entry():
    # entries 0, 2 and 4 share one path, which starts at a and visits a
    # twice; its check runs once, yet each entry reports it, and entry 4's
    # own offsets still break the hop order.  Entry 3's loop shares its
    # first link with entry 1's good path.
    net = network(
        ["s", "a", "r"],
        [("sa", "s", "a", 1, 5), ("as", "a", "s", 1, 5), ("ar", "a", "r", 1, 5),
         ("sr", "s", "r", 1, 5)],
    )
    inst = Instance(net, "s", "r", F(5), F(5, 2), F(5))
    bad = ("as", "sa", "ar")
    entries = (
        ScheduleEntry(bad, (0, 1, 2, 3), F(1)),
        ScheduleEntry(("sa", "ar"), (0, 1, 2), F(1)),
        ScheduleEntry(bad, (0, 2, 3, 4), F(1)),
        ScheduleEntry(("sa", "as", "sr"), (0, 1, 2, 3), F(1)),
        ScheduleEntry(bad, (0, 1, 1, 3), F(1)),
    )
    ok, _, violations = validate_solution(inst, PeriodicSolution(2, entries))
    assert not ok

    def bad_path(pos):
        return [
            Violation("path-start", f"entry[{pos}]", "starts at a"),
            Violation("path-not-simple", f"entry[{pos}]"),
        ]

    assert violations == [
        *bad_path(0),
        *bad_path(2),
        Violation("path-not-simple", "entry[3]"),
        *bad_path(4),
        Violation("offset-order", "entry[4]", "hop 2 arrives before it can be pushed"),
    ]


def test_validate_sorts_overloaded_residues_by_link_and_residue():
    # loads meet (e3, 2), then (e1, 3), (e2, 1) and (e1, 0); the three over
    # a bandwidth of 1 come out sorted
    inst = make_triple_instance()
    entries = (
        ScheduleEntry(("e3",), (0, 9), F(3, 2)),
        ScheduleEntry(("e1",), (0, 4), F(3, 2)),
        ScheduleEntry(("e2",), (0, 7), F(1, 2)),
        ScheduleEntry(("e1",), (0, 1), F(1)),
        ScheduleEntry(("e1",), (0, 6), F(1, 2)),
    )
    ok, _, violations = validate_solution(inst, PeriodicSolution(5, entries))
    assert not ok
    assert violations == [
        Violation("bandwidth", "e1", "residue 0 carries 3/2 > 1"),
        Violation("bandwidth", "e1", "residue 3 carries 3/2 > 1"),
        Violation("bandwidth", "e3", "residue 2 carries 3/2 > 1"),
    ]


def test_network_hash_is_the_field_hash():
    net = make_fastslow_network()
    assert hash(net) == hash((net.nodes, net.links))
    assert hash(net) == hash(make_fastslow_network())


def test_unpickled_network_hashes_like_its_fields():
    # string hashes differ between processes: a network hashed and pickled
    # under one hash seed must hash by its fields under another
    dump = (
        "import pickle, sys; from conftest import make_fastslow_network; "
        "net = make_fastslow_network(); hash(net); "
        "sys.stdout.buffer.write(pickle.dumps(net))"
    )
    load = (
        "import pickle, sys; net = pickle.loads(sys.stdin.buffer.read()); "
        "print(hash(net) == hash((net.nodes, net.links)))"
    )
    path = os.pathsep.join([str(Path(__file__).parent), *sys.path])
    data = subprocess.run(
        [sys.executable, "-c", dump],
        env={**os.environ, "PYTHONHASHSEED": "1", "PYTHONPATH": path},
        capture_output=True,
        check=True,
    ).stdout
    out = subprocess.run(
        [sys.executable, "-c", load],
        input=data,
        env={**os.environ, "PYTHONHASHSEED": "2", "PYTHONPATH": path},
        capture_output=True,
        check=True,
    ).stdout
    assert out == b"True\n"


def test_validate_rejects_unknown_link_structurally():
    inst = make_triple_instance()
    entries = (ScheduleEntry(("nope",), (0, 1), F(5)),)
    with pytest.raises(ModelError):
        validate_solution(inst, PeriodicSolution(5, entries))


def test_validate_invariant_under_reorder_and_split():
    inst = make_fastslow_instance()
    base = tuple(
        ScheduleEntry(("e1",), (0, i + 1), F(1)) for i in range(7)
    ) + (ScheduleEntry(("e2",), (0, 11), F(3)),)
    reordered = PeriodicSolution(7, tuple(reversed(base)))
    split = PeriodicSolution(
        7,
        base[:-1]
        + (
            ScheduleEntry(("e2",), (0, 11), F(5, 4)),
            ScheduleEntry(("e2",), (0, 11), F(7, 4)),
        ),
    )
    results = [validate_solution(inst, PeriodicSolution(7, base))]
    results.append(validate_solution(inst, reordered))
    results.append(validate_solution(inst, split))
    assert all(ok for ok, _, _ in results)
    assert len({max_delay for _, max_delay, _ in results}) == 1


def test_residue_loads_match_slotwise_brute_force():
    inst = make_fastslow_instance()
    net = inst.network
    sol = PeriodicSolution(
        7,
        tuple(ScheduleEntry(("e1",), (0, i + 1), F(1)) for i in range(7))
        + (ScheduleEntry(("e2",), (0, 11), F(3)),),
    )
    loads = residue_loads(net, sol)
    horizon = 3 * (42 + sol.period)  # several times the search ceiling
    index = net.link_index
    for t in range(horizon):
        for link in net.links:
            slot_load = sum(
                (
                    entry.amount
                    for entry in sol.entries
                    for i, lid in enumerate(entry.links)
                    if lid == link.id
                    and (entry.offsets[i + 1] - index[lid].delay) % sol.period
                    == t % sol.period
                ),
                F(0),
            )
            assert slot_load == loads.get((link.id, t % sol.period), F(0))


def test_residue_loads_name_an_unknown_link():
    sol = PeriodicSolution(7, (ScheduleEntry(("e1", "e9"), (0, 1, 2), F(1)),))
    with pytest.raises(ModelError, match="unknown link 'e9'"):
        residue_loads(make_fastslow_network(), sol)


# --- simulate_aoi ------------------------------------------------------------


def test_simulate_matches_triple_unit_rate():
    sol = triple_unit_rate_solution()
    assert simulate_aoi(sol) == (9, F(7))


def test_simulate_constant_when_period_one():
    net_entries = (ScheduleEntry(("e",), (0, 3), F(1)),)
    sol = PeriodicSolution(1, net_entries)
    assert simulate_aoi(sol) == (3, F(3))


def test_simulate_triple_t4():
    entries = tuple(
        ScheduleEntry(("e1",), (0, i + 1), F(1)) for i in range(4)
    ) + (ScheduleEntry(("e2",), (0, 6), F(1)),)
    sol = PeriodicSolution(4, entries)
    assert simulate_aoi(sol) == (9, F(15, 2))


@given(period=st.integers(1, 32), max_delay=st.integers(1, 64))
@settings(max_examples=120, deadline=None)
def test_simulate_equals_closed_form(period, max_delay):
    net_entries = (
        ScheduleEntry(("e",), (0, max_delay), F(2)),
        ScheduleEntry(("e",), (0, max_delay), F(1)),
    )
    sol = PeriodicSolution(period, net_entries)
    assert simulate_aoi(sol) == aoi_from_max_delay(max_delay, period)
