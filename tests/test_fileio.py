import re
from fractions import Fraction as F

import pytest

from aoiflow import ModelError, PeriodicSolution, ScheduleEntry
from aoiflow.fileio import (
    format_rational,
    load_instance,
    load_network,
    load_solution,
    network_from_dict,
    parse_rational,
    save_instance,
    save_network,
    save_solution,
    solution_from_text,
    solution_to_text,
)
from aoiflow.maxflow import min_cost_prefixes
from conftest import make_fastslow_instance, make_triple_instance


@pytest.mark.parametrize(
    "text,value",
    [("3", F(3)), ("-2", F(-2)), ("10/7", F(10, 7)), (" 5/2 ", F(5, 2))],
)
def test_parse_rational(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize("bad", ["", "x", "1/0", "1.5", "1/2/3"])
def test_parse_rational_rejects_garbage(bad):
    with pytest.raises(ModelError):
        parse_rational(bad)


def test_format_rational_roundtrip():
    for value in (F(3), F(-7, 2), F(0), F(22, 7)):
        assert parse_rational(format_rational(value)) == value


def test_network_roundtrip(tmp_path):
    net = make_fastslow_instance().network
    path = tmp_path / "net.json"
    save_network(net, str(path))
    assert load_network(str(path)) == net
    # byte stability
    first = path.read_bytes()
    save_network(net, str(path))
    assert path.read_bytes() == first


def test_instance_roundtrip(tmp_path):
    inst = make_fastslow_instance()
    path = tmp_path / "inst.json"
    save_instance(inst, str(path))
    assert load_instance(str(path)) == inst


def test_an_instance_loaded_twice_hits_the_prefix_cache(tmp_path):
    # two loads build two equal networks, which key one cache entry
    path = tmp_path / "inst.json"
    save_instance(make_fastslow_instance(), str(path))
    first, second = load_instance(str(path)), load_instance(str(path))
    assert first.network is not second.network
    min_cost_prefixes.cache_clear()
    for inst in (first, second):
        min_cost_prefixes(inst.network, inst.sender, inst.receiver)
    assert min_cost_prefixes.cache_info().hits == 1


def test_solution_roundtrip(tmp_path):
    inst = make_triple_instance()
    sol = PeriodicSolution(
        5,
        tuple(ScheduleEntry(("e1",), (0, i + 1), F(1)) for i in range(4))
        + (ScheduleEntry(("e2",), (0, 8), F(1)),),
    )
    path = tmp_path / "sched.sol"
    save_solution(inst.network, sol, inst.batch, str(path))
    loaded, batch = load_solution(inst.network, str(path))
    assert loaded == sol
    assert batch == inst.batch


def test_solution_text_layout():
    inst = make_triple_instance()
    sol = PeriodicSolution(5, (ScheduleEntry(("e2",), (0, 9), F(5, 2)),))
    text = solution_to_text(inst.network, sol, inst.batch)
    lines = text.splitlines()
    assert lines[0] == "period=5 batch=5"
    # push at 3 on a d=6 link, delivered at 9
    assert lines[1] == "5/2 path=s>r via=e2 offsets=0,3,9"


def test_solution_parse_rejects_bad_delivery():
    inst = make_triple_instance()
    text = "period=5 batch=5\n5 path=s>r via=e1 offsets=0,0,9\n"
    with pytest.raises(ModelError):
        solution_from_text(inst.network, text)


def test_solution_parse_rejects_wrong_path():
    inst = make_triple_instance()
    text = "period=5 batch=5\n5 path=r>s via=e1 offsets=0,0,1\n"
    with pytest.raises(ModelError):
        solution_from_text(inst.network, text)


def test_solution_parse_rejects_unknown_link():
    inst = make_triple_instance()
    text = "period=5 batch=5\n5 path=s>r via=zz offsets=0,0,1\n"
    with pytest.raises(ModelError):
        solution_from_text(inst.network, text)


@pytest.mark.parametrize(
    "text",
    [
        "period=5 batch=5\n5 path=s>r offsets=0,0,1 extra=1\n",
        "period=5 batch=5\n5 path=s>r junk offsets=0,0,1\n",
        "period=5 batch=5\n5 path=s>r via=e1 offsets\n",
        "period=5 batch=5\n5 path=s>r via=e1 offsets=0,x,1\n",
        "period=5 batch=5\nfive path=s>r via=e1 offsets=0,0,1\n",
    ],
)
def test_solution_parse_names_bad_line(text):
    inst = make_triple_instance()
    line = text.splitlines()[1]
    with pytest.raises(ModelError, match=re.escape(repr(line))):
        solution_from_text(inst.network, text)


@pytest.mark.parametrize(
    "header",
    [
        "period=5 batch",
        "period=5 5",
        "batch=5",
        "period=abc batch=5",
        "period=5 batch=1/x",
    ],
)
def test_solution_parse_names_bad_header(header):
    inst = make_triple_instance()
    text = f"{header}\n5 path=s>r via=e1 offsets=0,0,1\n"
    with pytest.raises(ModelError, match=re.escape(header)):
        solution_from_text(inst.network, text)


def test_malformed_network_data_raises():
    with pytest.raises(ModelError):
        from aoiflow.fileio import network_from_dict

        network_from_dict({"nodes": ["s"], "links": [{"id": "e"}]})


@pytest.mark.parametrize("field", ["nodes", "links"])
@pytest.mark.parametrize("value", ["sr", {"s": 1, "r": 2}])
def test_network_fields_must_be_arrays(field, value):
    # "nodes": "sr" would otherwise iterate into the nodes s and r
    data = {"nodes": ["s", "r"], "links": [], field: value}
    with pytest.raises(ModelError, match=f"{field} must be an array"):
        network_from_dict(data)
