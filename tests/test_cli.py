import argparse
import json
import sys
from fractions import Fraction as F

import pytest

from aoiflow import Instance, network
from aoiflow.cli import main
from aoiflow.fileio import instance_to_dict, save_instance
from conftest import make_fastslow_instance, make_triple_instance


@pytest.fixture
def fastslow_path(tmp_path):
    path = tmp_path / "fastslow.inst"
    save_instance(make_fastslow_instance(), str(path))
    return str(path)


@pytest.fixture
def triple_path(tmp_path):
    path = tmp_path / "triple.inst"
    save_instance(make_triple_instance(), str(path))
    return str(path)


@pytest.fixture
def dead_path(tmp_path):
    """An instance whose one link has zero bandwidth: no period is feasible."""
    net = network(["s", "r"], [("e", "s", "r", 1, 0)])
    path = tmp_path / "dead.inst"
    save_instance(Instance(net, "s", "r", F(2), F(1), F(2)), str(path))
    return str(path)


def test_solve_mpa_fastslow(fastslow_path, tmp_path, capsys):
    sol = tmp_path / "fastslow.sol"
    assert main(["solve", "mpa", fastslow_path, "--sol", str(sol)]) == 0
    out = capsys.readouterr().out
    assert "R=10/7" in out and "peak=17" in out
    assert sol.exists()
    assert main(["validate", fastslow_path, str(sol)]) == 0
    out = capsys.readouterr().out
    assert "ok M=11" in out and "peak=17" in out and "avg=14" in out


def test_solve_then_validate_roundtrip_triple(triple_path, tmp_path, capsys):
    sol = tmp_path / "triple.sol"
    assert main(["solve", "maa", triple_path, "--sol", str(sol)]) == 0
    first = capsys.readouterr().out
    assert "R=1" in first and "avg=7" in first
    assert main(["validate", triple_path, str(sol)]) == 0
    second = capsys.readouterr().out
    assert "ok M=5 peak=9 avg=7" in second


def test_solve_infeasible_exits_2(dead_path, capsys):
    assert main(["solve", "mpa", dead_path]) == 2
    assert capsys.readouterr() == ("infeasible at every period\n", "")


def test_bad_input_exits_1(tmp_path, capsys):
    missing = str(tmp_path / "nope.inst")
    assert main(["solve", "mpa", missing]) == 1
    bad = tmp_path / "bad.inst"
    bad.write_text("{not json")
    rc = main(["solve", "mpa", str(bad)])
    assert rc == 1
    # nesting past the parser's recursion limit is bad input too
    deep = tmp_path / "deep.inst"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    sol = tmp_path / "any.sol"
    sol.write_text("period=1 batch=1\n")
    capsys.readouterr()
    for argv in (["solve", "mpa", str(deep)], ["validate", str(deep), str(sol)]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "pos,field,value,code",
    [
        (1, "id", "e1", "duplicate-link-id"),
        (0, "delay", 0, "nonpositive-delay"),
        (0, "delay", -1, "nonpositive-delay"),
        (1, "to", "x", "unknown-endpoint"),
        (0, "delay", 2.9, "non-integer-delay"),
        (0, "delay", True, "non-integer-delay"),
        # names a schedule file could not carry back to `validate`
        (0, "id", "e,1", "unwritable-link-id"),
        (0, "id", "e 1", "unwritable-link-id"),
        (0, "id", "", "empty-name"),
        (None, "node", "s x", "unwritable-node-name"),
        (None, "node", "s>a", "unwritable-node-name"),
        (None, "node", "", "empty-name"),
    ],
)
def test_ill_formed_network_exits_1(pos, field, value, code, tmp_path, capsys):
    data = instance_to_dict(make_fastslow_instance())
    if field == "node":  # rename the sender s wherever it appears
        data = json.loads(json.dumps(data).replace('"s"', json.dumps(value)))
    else:
        data["links"][pos][field] = value
    path = tmp_path / "ill.inst"
    path.write_text(json.dumps(data))
    assert main(["solve", "mpa", str(path)]) == 1
    err = capsys.readouterr().err
    assert code in err and "Traceback" not in err


def test_string_nodes_exit_1(tmp_path, capsys):
    # the fastslow nodes are s and r, so "sr" would iterate into a solvable
    # instance
    data = instance_to_dict(make_fastslow_instance())
    data["nodes"] = "sr"
    path = tmp_path / "ill.inst"
    path.write_text(json.dumps(data))
    assert main(["solve", "mpa", str(path)]) == 1
    assert "nodes must be an array" in capsys.readouterr().err


def test_repeated_node_exits_1(tmp_path, capsys):
    data = instance_to_dict(make_fastslow_instance())
    data["nodes"].append("s")
    path = tmp_path / "ill.inst"
    path.write_text(json.dumps(data))
    assert main(["solve", "mpa", str(path)]) == 1
    assert capsys.readouterr() == (
        "",
        "error: invalid network: duplicate-node: nodes (repeated node id)\n",
    )


def test_validate_detects_batch_mismatch(fastslow_path, tmp_path, capsys):
    sol = tmp_path / "s.sol"
    assert main(["solve", "mpa", fastslow_path, "--sol", str(sol)]) == 0
    capsys.readouterr()
    tampered = sol.read_text().replace("batch=10", "batch=5", 1)
    sol.write_text(tampered)
    assert main(["validate", fastslow_path, str(sol)]) == 2


def test_approx_fastslow(fastslow_path, capsys):
    assert main(["approx", "mpa", fastslow_path]) == 0
    out = capsys.readouterr().out
    assert "peak=19" in out and "ratio_bound=27/7" in out


def test_approx_alpha_below_one_exits_1(fastslow_path, capsys):
    assert main(["approx", "mpa", fastslow_path, "--alpha", "-1"]) == 1
    captured = capsys.readouterr()
    assert "ratio_bound" not in captured.out
    assert "alpha must be at least 1" in captured.err


def test_approx_infeasible_exits_2(dead_path, capsys):
    assert main(["approx", "mpa", dead_path]) == 2
    assert capsys.readouterr() == ("infeasible at every period\n", "")


def test_mmd_at_period(fastslow_path, capsys):
    assert main(["mmd-at-period", fastslow_path, "7"]) == 0
    assert "M=11" in capsys.readouterr().out
    assert main(["mmd-at-period", fastslow_path, "10"]) == 0
    assert "M=10" in capsys.readouterr().out


def test_mu_override(fastslow_path, capsys):
    assert main(["mmd-at-period", fastslow_path, "7", "--mu-override", "12"]) == 0
    assert "M=11" in capsys.readouterr().out
    assert main(["mmd-at-period", fastslow_path, "7", "--mu-override", "11"]) == 0
    assert "M=11" in capsys.readouterr().out
    assert main(["mmd-at-period", fastslow_path, "7", "--mu-override", "10"]) == 2
    assert "infeasible" in capsys.readouterr().out
    for ceiling in ("0", "-3"):
        assert main(["mmd-at-period", fastslow_path, "7", "--mu-override", ceiling]) == 1
        assert "horizon must be at least 1" in capsys.readouterr().err


def test_gen_deterministic_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.net", tmp_path / "b.net"
    assert main(["gen", "complete", "6", "--seed", "5", "--out", str(a)]) == 0
    assert main(["gen", "complete", "6", "--seed", "5", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    out = capsys.readouterr().out
    assert "undirected_edges=15" in out


def test_sweep_csv_stable(fastslow_path, tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", fastslow_path, "--csv", str(a)]) == 0
    assert main(["sweep", fastslow_path, "--csv", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().count("\n") == 5  # header + 4 periods


def test_sweep_infeasible_at_every_period_exits_2(dead_path, tmp_path, capsys):
    out = tmp_path / "dead.csv"
    assert main(["sweep", dead_path, "--csv", str(out)]) == 2
    assert capsys.readouterr().out == "infeasible at every period\n"
    assert out.read_text().splitlines()[1:] == [
        f"{dead_path},1,2,,,,,,infeasible",
        f"{dead_path},2,1,,,,,,infeasible",
    ]


def test_batch_summary(tmp_path, capsys):
    out = tmp_path / "batch.csv"
    rc = main(
        [
            "batch",
            "complete",
            "4",
            "--count",
            "2",
            "--seed",
            "11",
            "--scale",
            "5",
            "--periods",
            "3",
            "--csv",
            str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("instance_id,periods")
    assert len(lines) == 3


def test_batch_redraws_disconnected_endpoints(tmp_path, capsys):
    # seed 9 first draws an unreachable receiver; its endpoints are redrawn
    out = tmp_path / "er.csv"
    argv = ["batch", "erdos-renyi", "8", "8", "--count", "10", "--csv", str(out)]
    assert main(argv) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 10
    assert rows[-1].startswith("erdos-renyi-9,")


@pytest.mark.parametrize(
    "options,name",
    [(["--scale", "0"], "scale"), (["--scale", "1", "--periods", "0"], "n_periods")],
)
def test_batch_bad_scale_or_periods_exits_1(options, name, tmp_path, capsys):
    out = tmp_path / "o.csv"
    argv = ["batch", "grid", "2", "2", "--count", "1", *options, "--csv", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"error: {name} must be at least 1" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("count", ["0", "-1"])
def test_batch_bad_count_exits_1(count, tmp_path, capsys):
    out = tmp_path / "o.csv"
    assert main(["batch", "complete", "4", "--count", count, "--csv", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: count must be at least 1, got {count}" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen", "batch"])
@pytest.mark.parametrize(
    "params,message",
    [
        (["watts-strogatz", "5", "2", "1.5"], "p must lie in [0, 1], got 1.5"),
        (["copying", "5", "nan"], "p must lie in [0, 1], got nan"),
        (["erdos-renyi", "5", "-1"], "edge count m must be at least 0, got -1"),
        (["erdos-renyi", "0", "0"], "node count n must be at least 2, got 0"),
        (["watts-strogatz", "5", "-3", "0.5"], "ring degree k must be at least 1, got -3"),
        (["watts-strogatz", "5", "0", "0.5"], "ring degree k must be at least 1, got 0"),
    ],
)
def test_bad_generator_parameter_exits_1(command, params, message, tmp_path, capsys):
    out = tmp_path / "o.out"
    if command == "gen":
        target = ["--out", str(out)]
    else:
        target = ["--count", "1", "--csv", str(out)]
    assert main([command, *params, *target]) == 1
    err = capsys.readouterr().err
    assert f"error: {params[0]} " in err and message in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "params,message",
    [
        (["grid", "4"], "bad parameters for grid: ['4']"),
        (["complete", "x"], "bad parameters for complete: ['x']"),
        (["watts-strogatz", "4", "4", "0.5"], "ring too small for the requested degree"),
        (["copying", "1", "0.5"], "copying model needs at least 2 nodes"),
    ],
)
def test_gen_unbuildable_topology_exits_1(params, message, tmp_path, capsys):
    out = tmp_path / "o.inst"
    assert main(["gen", *params, "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["mmd-at-period", "inst.json", "abc"],
        ["solve", "mpa", "inst.json", "--mu-override", "x"],
        ["solve"],
    ],
)
def test_usage_error_exits_1(argv, capsys):
    # 2 means "infeasible", so a mistyped command line must not exit 2
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: aoiflow") and "error:" in err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: aoiflow" in capsys.readouterr().out


def test_quiet_suppresses_output(fastslow_path, capsys):
    assert main(["--quiet", "solve", "mpa", fastslow_path]) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "mpa", "{inst}", "--sol", "{bad}"],
        ["solve", "mpa", "{inst}", "--csv", "{bad}"],
        ["approx", "mpa", "{inst}", "--sol", "{bad}"],
        ["mmd-at-period", "{inst}", "7", "--sol", "{bad}"],
    ],
)
def test_failed_write_prints_no_result(argv, fastslow_path, tmp_path, capsys):
    # the result line is printed only once every requested file is written
    bad = str(tmp_path / "missing" / "out")
    assert main([a.format(inst=fastslow_path, bad=bad) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert bad in captured.err and "Traceback" not in captured.err


def test_main_builds_no_parser(fastslow_path, monkeypatch):
    # the parser tree is built once, when aoiflow.cli is imported
    built = []
    init = argparse.ArgumentParser.__init__

    def recording_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", recording_init)
    assert main(["--quiet", "mmd-at-period", fastslow_path, "7"]) == 0
    assert built == []
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert built == []


def run_validate(tmp_path, schedule, capsys):
    """`aoiflow validate` of ``schedule`` on s -> a -> r with a two-cycle
    a <-> b, every link delay 1 and bandwidth 10, batch 2 and periods 2..4."""
    net = network(
        ["s", "a", "b", "r"],
        [
            ("sa", "s", "a", 1, 10),
            ("ab", "a", "b", 1, 10),
            ("ba", "b", "a", 1, 10),
            ("ar", "a", "r", 1, 10),
        ],
    )
    inst = tmp_path / "cycle.inst"
    save_instance(Instance(net, "s", "r", F(2), F(1, 2), F(1)), str(inst))
    sol = tmp_path / "hand.sol"
    sol.write_text(schedule)
    code = main(["validate", str(inst), str(sol)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_accepts_the_hand_schedule(tmp_path, capsys):
    schedule = "period=2 batch=2\n2 path=s>a>r via=sa,ar offsets=0,0,1,2\n"
    assert run_validate(tmp_path, schedule, capsys) == (0, "ok M=2 peak=3 avg=5/2 T=2\n", "")


@pytest.mark.parametrize(
    "period,lines,violation",
    [
        (2, ["2 path=a>r via=ar offsets=0,0,1"], "path-start: entry[0] (starts at a)"),
        (2, ["2 path=s>a via=sa offsets=0,0,1"], "path-end: entry[0] (ends at a)"),
        (
            2,
            ["2 path=s>a>b>a>r via=sa,ab,ba,ar offsets=0,0,1,2,3,4"],
            "path-not-simple: entry[0]",
        ),
        (
            2,
            [
                "2 path=s>a>r via=sa,ar offsets=0,0,1,2",
                "0 path=s>a>r via=sa,ar offsets=0,0,1,2",
            ],
            "nonpositive-amount: entry[1]",
        ),
        (
            2,
            ["2 path=s>a>r via=sa,ar offsets=0,0,0,1"],
            "offset-order: entry[0] (hop 2 arrives before it can be pushed)",
        ),
        (
            5,
            ["2 path=s>a>r via=sa,ar offsets=0,0,1,2"],
            "period-window: solution (T=5 outside window)",
        ),
    ],
)
def test_validate_reports_each_violation(period, lines, violation, tmp_path, capsys):
    schedule = "\n".join([f"period={period} batch=2", *lines]) + "\n"
    assert run_validate(tmp_path, schedule, capsys) == (2, f"violation {violation}\n", "")


@pytest.mark.parametrize(
    "line,message",
    [
        (
            "2 path=s>a>r via=sa,ar",
            "malformed schedule line: '2 path=s>a>r via=sa,ar'",
        ),
        (
            "2 path=s>a>r via=sa,ar offsets=0,0,2",
            "offset vector has wrong length: '2 path=s>a>r via=sa,ar offsets=0,0,2'",
        ),
        (
            "2 path=s>a>r via=sa,ar offsets=1,1,2,3",
            "offset vector must start at 0: '2 path=s>a>r via=sa,ar offsets=1,1,2,3'",
        ),
        (
            "2 path=a>r>s via=ar,sa offsets=0,0,1,2",
            "hops are not contiguous at link 'sa'",
        ),
    ],
)
def test_bad_schedule_line_exits_1(line, message, tmp_path, capsys):
    schedule = f"period=2 batch=2\n{line}\n"
    assert run_validate(tmp_path, schedule, capsys) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("sender", "x", "sender 'x' not in network"),
        ("receiver", "x", "receiver 'x' not in network"),
        ("r_min", "0", "throughput requirements must be positive"),
        ("r_min", "-1/7", "throughput requirements must be positive"),
        ("r_min", "20/7", "r_min exceeds r_max"),
        ("batch", None, "instance file missing field 'batch'"),
        ("receiver", None, "instance file missing field 'receiver'"),
    ],
)
def test_bad_instance_exits_1(field, value, message, tmp_path, capsys):
    data = instance_to_dict(make_fastslow_instance())
    if value is None:
        del data[field]
    else:
        data[field] = value
    path = tmp_path / "bad.inst"
    path.write_text(json.dumps(data))
    assert main(["solve", "mpa", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


# (argv, exit code, stdout, stderr) at COLUMNS=80
CLI_TEXT = [
    (
        ["--help"],
        0,
        """\
usage: aoiflow [-h] [--quiet]
               {solve,approx,validate,mmd-at-period,gen,sweep,batch} ...

Periodic multi-path schedules minimizing age-of-information

positional arguments:
  {solve,approx,validate,mmd-at-period,gen,sweep,batch}
    solve               optimal solve over the period window
    approx              steady-rate approximation framework
    validate            check a schedule file against an instance
    mmd-at-period       minimum maximum delay at one period
    gen                 generate a topology
    sweep               per-period optimal vs replay table
    batch               summary over seeded random instances

options:
  -h, --help            show this help message and exit
  --quiet               suppress human output
""",
        "",
    ),
    (
        [],
        1,
        "",
        """\
usage: aoiflow [-h] [--quiet]
               {solve,approx,validate,mmd-at-period,gen,sweep,batch} ...
aoiflow: error: the following arguments are required: command
""",
    ),
    (
        ["frobnicate"],
        1,
        "",
        """\
usage: aoiflow [-h] [--quiet]
               {solve,approx,validate,mmd-at-period,gen,sweep,batch} ...
aoiflow: error: argument command: invalid choice: 'frobnicate' (choose from 'solve', 'approx', 'validate', 'mmd-at-period', 'gen', 'sweep', 'batch')
""",
    ),
    (
        ["solve", "-h"],
        0,
        """\
usage: aoiflow solve [-h] [--sol SOL] [--csv CSV] [--mu-override MU_OVERRIDE]
                     {mpa,maa,mmd} instance

positional arguments:
  {mpa,maa,mmd}
  instance

options:
  -h, --help            show this help message and exit
  --sol SOL             write the schedule here
  --csv CSV             write the per-period sweep here
  --mu-override MU_OVERRIDE
                        search ceiling override
""",
        "",
    ),
    (
        ["approx", "-h"],
        0,
        """\
usage: aoiflow approx [-h] [--sol SOL] [--alpha ALPHA] {mpa,maa} instance

positional arguments:
  {mpa,maa}
  instance

options:
  -h, --help     show this help message and exit
  --sol SOL      write the schedule here
  --alpha ALPHA  declared backend guarantee (p/q)
""",
        "",
    ),
    (
        ["validate", "-h"],
        0,
        """\
usage: aoiflow validate [-h] instance solution

positional arguments:
  instance
  solution

options:
  -h, --help  show this help message and exit
""",
        "",
    ),
    (
        ["mmd-at-period", "-h"],
        0,
        """\
usage: aoiflow mmd-at-period [-h] [--sol SOL] [--mu-override MU_OVERRIDE]
                             instance period

positional arguments:
  instance
  period

options:
  -h, --help            show this help message and exit
  --sol SOL             write the schedule here
  --mu-override MU_OVERRIDE
""",
        "",
    ),
    (
        ["gen", "-h"],
        0,
        """\
usage: aoiflow gen [-h] [--seed SEED] --out OUT
                   {complete,grid,erdos-renyi,watts-strogatz,copying}
                   [params ...]

positional arguments:
  {complete,grid,erdos-renyi,watts-strogatz,copying}
  params                model parameters (see docs)

options:
  -h, --help            show this help message and exit
  --seed SEED
  --out OUT
""",
        "",
    ),
    (
        ["sweep", "-h"],
        0,
        """\
usage: aoiflow sweep [-h] --csv CSV [--mu-override MU_OVERRIDE] instance

positional arguments:
  instance

options:
  -h, --help            show this help message and exit
  --csv CSV
  --mu-override MU_OVERRIDE
""",
        "",
    ),
    (
        ["batch", "-h"],
        0,
        """\
usage: aoiflow batch [-h] [--count COUNT] [--seed SEED] [--scale SCALE]
                     [--periods PERIODS] --csv CSV
                     {complete,grid,erdos-renyi,watts-strogatz,copying}
                     [params ...]

positional arguments:
  {complete,grid,erdos-renyi,watts-strogatz,copying}
  params

options:
  -h, --help            show this help message and exit
  --count COUNT
  --seed SEED
  --scale SCALE         batch = scale * capacity
  --periods PERIODS
  --csv CSV
""",
        "",
    ),
    (
        ["solve", "xyz", "inst.json"],
        1,
        "",
        """\
usage: aoiflow solve [-h] [--sol SOL] [--csv CSV] [--mu-override MU_OVERRIDE]
                     {mpa,maa,mmd} instance
aoiflow solve: error: argument objective: invalid choice: 'xyz' (choose from 'mpa', 'maa', 'mmd')
""",
    ),
    (
        ["approx", "mmd", "inst.json"],
        1,
        "",
        """\
usage: aoiflow approx [-h] [--sol SOL] [--alpha ALPHA] {mpa,maa} instance
aoiflow approx: error: argument objective: invalid choice: 'mmd' (choose from 'mpa', 'maa')
""",
    ),
    (
        ["validate", "inst.json"],
        1,
        "",
        """\
usage: aoiflow validate [-h] instance solution
aoiflow validate: error: the following arguments are required: solution
""",
    ),
    (
        ["mmd-at-period", "inst.json", "abc"],
        1,
        "",
        """\
usage: aoiflow mmd-at-period [-h] [--sol SOL] [--mu-override MU_OVERRIDE]
                             instance period
aoiflow mmd-at-period: error: argument period: invalid int value: 'abc'
""",
    ),
    (
        ["gen", "complete", "6"],
        1,
        "",
        """\
usage: aoiflow gen [-h] [--seed SEED] --out OUT
                   {complete,grid,erdos-renyi,watts-strogatz,copying}
                   [params ...]
aoiflow gen: error: the following arguments are required: --out
""",
    ),
    (
        ["sweep", "inst.json", "--mu-override", "x"],
        1,
        "",
        """\
usage: aoiflow sweep [-h] --csv CSV [--mu-override MU_OVERRIDE] instance
aoiflow sweep: error: argument --mu-override: invalid int value: 'x'
""",
    ),
    (
        ["batch", "complete", "6", "--csv", "o.csv", "--bogus"],
        1,
        "",
        """\
usage: aoiflow [-h] [--quiet]
               {solve,approx,validate,mmd-at-period,gen,sweep,batch} ...
aoiflow: error: unrecognized arguments: --bogus
""",
    ),
]


@pytest.mark.skipif(
    sys.version_info[:2] not in {(3, 10), (3, 11), (3, 12), (3, 13)},
    reason="recorded with Python 3.11 and matched on 3.10, 3.12 and 3.13; other "
    "argparse versions may word and lay out help differently",
)
@pytest.mark.parametrize(
    "argv,code,out,err", CLI_TEXT, ids=[" ".join(c[0]) or "no-command" for c in CLI_TEXT]
)
def test_cli_text_is_exact(argv, code, out, err, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        got = main(argv)
    except SystemExit as exc:
        got = exc.code
    captured = capsys.readouterr()
    assert (got, captured.out, captured.err) == (code, out, err)
