import json
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


def test_solve_infeasible_exits_2(tmp_path, capsys):
    net = network(["s", "r"], [("e", "s", "r", 1, 0)])
    inst = Instance(net, "s", "r", F(2), F(1), F(2))
    path = tmp_path / "dead.inst"
    save_instance(inst, str(path))
    assert main(["solve", "mpa", str(path)]) == 2
    assert "infeasible" in capsys.readouterr().out


def test_bad_input_exits_1(tmp_path, capsys):
    missing = str(tmp_path / "nope.inst")
    assert main(["solve", "mpa", missing]) == 1
    bad = tmp_path / "bad.inst"
    bad.write_text("{not json")
    rc = main(["solve", "mpa", str(bad)])
    assert rc == 1


@pytest.mark.parametrize(
    "pos,field,value,code",
    [
        (1, "id", "e1", "duplicate-link-id"),
        (0, "delay", 0, "nonpositive-delay"),
        (0, "delay", -1, "nonpositive-delay"),
        (1, "to", "x", "unknown-endpoint"),
        (0, "delay", 2.9, "non-integer-delay"),
        (0, "delay", True, "non-integer-delay"),
    ],
)
def test_ill_formed_network_exits_1(pos, field, value, code, tmp_path, capsys):
    data = instance_to_dict(make_fastslow_instance())
    data["links"][pos][field] = value
    path = tmp_path / "ill.inst"
    path.write_text(json.dumps(data))
    assert main(["solve", "mpa", str(path)]) == 1
    err = capsys.readouterr().err
    assert code in err and "Traceback" not in err


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
