from fractions import Fraction as F

import pytest

from aoiflow import Instance, batch_capacity, network, validate_network
from aoiflow.experiments import (
    BatchSummary,
    TopologySpec,
    complete_graph,
    copying_model,
    erdos_renyi,
    generate,
    grid_graph,
    pick_endpoints,
    run_sweep,
    scaled_instance,
    summarize_instance,
    undirected_edge_count,
    watts_strogatz,
    write_batch_csv,
    write_sweep_csv,
)
from aoiflow.fileio import network_to_dict
from aoiflow.model import ModelError
from conftest import corpus_instance, make_fastslow_instance, make_fastslow_network


def test_complete_six_node_counts():
    net = generate(complete_graph(6, seed=1))
    assert len(net.nodes) == 6
    assert undirected_edge_count(net) == 15
    assert len(net.links) == 30
    assert validate_network(net) == []


def test_grid_counts():
    net = generate(grid_graph(4, 4, seed=1))
    assert len(net.nodes) == 16
    assert undirected_edge_count(net) == 24


def test_erdos_renyi_counts():
    net = generate(erdos_renyi(20, 50, seed=1))
    assert len(net.nodes) == 20
    assert undirected_edge_count(net) == 50


def test_watts_strogatz_rounds_ring_degree_up():
    net = generate(watts_strogatz(20, 3, 0.1, seed=1))
    assert len(net.nodes) == 20
    # ring degree 4 gives 2n edges before rewiring; rewiring may only dedupe
    assert undirected_edge_count(net) <= 40
    assert undirected_edge_count(net) >= 30
    assert validate_network(net) == []


def test_copying_model_generates_connected_growth():
    net = generate(copying_model(20, 0.1, seed=1))
    assert len(net.nodes) == 20
    assert undirected_edge_count(net) >= 19 - 1
    assert validate_network(net) == []


def test_generation_deterministic_bytewise():
    for spec in (
        complete_graph(6, seed=9),
        grid_graph(3, 4, seed=9),
        erdos_renyi(12, 20, seed=9),
        watts_strogatz(12, 3, 0.2, seed=9),
        copying_model(12, 0.3, seed=9),
    ):
        first = network_to_dict(generate(spec))
        second = network_to_dict(generate(spec))
        assert first == second


def test_different_seeds_differ():
    a = network_to_dict(generate(complete_graph(6, seed=1)))
    b = network_to_dict(generate(complete_graph(6, seed=2)))
    assert a != b


def test_attribute_choices_respected():
    net = generate(complete_graph(5, seed=4))
    for link in net.links:
        assert link.delay in {1, 2, 3, 4, 5}
        assert link.bandwidth in {10, 20, 30, 40, 50}


def test_invalid_parameters_rejected():
    with pytest.raises(ModelError):
        generate(complete_graph(1, seed=0))
    with pytest.raises(ModelError):
        generate(grid_graph(1, 5, seed=0))
    with pytest.raises(ModelError):
        generate(erdos_renyi(4, 100, seed=0))


def test_unknown_kind_rejected():
    with pytest.raises(ModelError, match="unknown topology kind 'ring'"):
        generate(TopologySpec("ring", (4,), 0))


def test_batch_capacity_examples():
    assert batch_capacity(make_fastslow_network(), "s", "r") == 11
    single = network(["s", "r"], [("e", "s", "r", 3, F(7, 2))])
    assert batch_capacity(single, "s", "r") == F(7, 2)
    dead = network(["s", "r"], [("e", "s", "r", 1, 0)])
    assert batch_capacity(dead, "s", "r") == 0
    disconnected = network(["s", "r", "x"], [("e", "s", "x", 1, 5)])
    assert batch_capacity(disconnected, "s", "r") == 0


def test_batch_capacity_refuses_one_endpoint_for_both():
    with pytest.raises(ModelError, match="must differ"):
        batch_capacity(make_fastslow_network(), "s", "s")


def test_scaled_instance_window():
    net = generate(complete_graph(5, seed=4))
    inst = scaled_instance(net, "a1", "a5", 5)
    cap = batch_capacity(net, "a1", "a5")
    assert inst.batch == 5 * cap
    assert inst.min_period == 5 and inst.max_period == 14


def test_scaled_instance_refuses_an_unreachable_receiver():
    net = network(["s", "m", "r"], [("sm", "s", "m", 1, 5), ("rm", "r", "m", 1, 5)])
    with pytest.raises(ModelError, match="sender cannot reach receiver"):
        scaled_instance(net, "s", "r", 5)


def test_run_sweep_fastslow(tmp_path):
    inst = make_fastslow_instance()
    rows = run_sweep(inst)
    assert [r.opt.peak_aoi for r in rows] == [17, 18, 19, 19]
    for r in rows:
        assert r.ap.peak_aoi >= r.opt.peak_aoi
        assert r.ap.avg_aoi >= r.opt.avg_aoi
    out = tmp_path / "sweep.csv"
    write_sweep_csv(rows, "fastslow", str(out))
    text = out.read_text().splitlines()
    assert text[0].startswith("instance_id,T,R,M_opt")
    # steady rate 10/7 exceeds the fast link's bandwidth, so the replay rides
    # the d=11 link: M_ap = 11 + 6, peak 23, avg 20
    assert text[1] == "fastslow,7,10/7,11,17,14,23,20,ok"
    # replay pins the lowest throughput: its value upper-bounds the optimum
    summary = summarize_instance("fastslow", inst)
    assert summary.peak_opt <= summary.peak_ap
    assert summary.avg_opt <= summary.avg_ap
    assert summary.peak_opt == 17 and summary.peak_ap == 19


def test_sweep_marks_infeasible_rows():
    net = network(["s", "r"], [("e", "s", "r", 1, 1)])
    inst = Instance(net, "s", "r", F(6), F(1), F(3))
    rows = run_sweep(inst)
    assert [r.opt is not None for r in rows] == [False] * 4 + [True]
    assert summarize_instance("one-link", inst) == sweep_summary("one-link", rows)


def test_batch_csv_rounds_only_at_the_edge(tmp_path):
    inst = make_fastslow_instance()
    summary = summarize_instance("fastslow", inst)
    assert summary.peak_reduction == F(19 - 17, 19)  # exact fraction inside
    out = tmp_path / "batch.csv"
    write_batch_csv([summary], str(out))
    line = out.read_text().splitlines()[1]
    assert line.startswith("fastslow,4,17,19,0.1053,")


def sweep_summary(instance_id, rows):
    """The batch row built from every period's sweep row."""
    ok = [r for r in rows if r.opt is not None]
    peak_opt = min(r.opt.peak_aoi for r in ok)
    avg_opt = min(r.opt.avg_aoi for r in ok)
    last = ok[-1].ap  # largest feasible period = lowest throughput
    return BatchSummary(
        instance_id=instance_id,
        periods=len(rows),
        peak_opt=peak_opt,
        peak_ap=last.peak_aoi,
        peak_reduction=F(last.peak_aoi - peak_opt, last.peak_aoi),
        avg_opt=avg_opt,
        avg_ap=last.avg_aoi,
        avg_reduction=(last.avg_aoi - avg_opt) / last.avg_aoi,
    )


def test_summary_matches_the_full_sweep_on_complete6_batches():
    # `aoiflow batch complete 6 --scale 5 --periods 10`, seeds 0-29
    for seed in range(30):
        net = generate(complete_graph(6, seed))
        inst = scaled_instance(net, *pick_endpoints(net, seed), 5, 10)
        name = f"complete-{seed}"
        assert summarize_instance(name, inst) == sweep_summary(name, run_sweep(inst))


def test_feasible_periods_are_a_suffix_of_the_window():
    # max-flow rate * T >= D holds from some period on, so the largest
    # period is feasible whenever any is: the replay at r_min is the sweep's
    # last "ok" row
    for seed in range(200):
        feasible = [r.opt is not None for r in run_sweep(corpus_instance(seed))]
        ok = feasible.count(True)
        assert feasible == [False] * (len(feasible) - ok) + [True] * ok, seed


def test_pick_endpoints_deterministic():
    net = generate(erdos_renyi(10, 15, seed=3))
    assert pick_endpoints(net, 42) == pick_endpoints(net, 42)
    s, r = pick_endpoints(net, 42)
    assert s != r and s in net.nodes and r in net.nodes


def test_pick_endpoints_redraws_until_the_receiver_is_reachable():
    # erdos-renyi 8 8 seed 9 first draws a8 -> a3, which no path joins
    net = generate(erdos_renyi(8, 8, seed=9))
    assert pick_endpoints(net, 9) == ("a4", "a8")
    for seed in range(10):
        sender, receiver = pick_endpoints(net, seed)
        assert batch_capacity(net, sender, receiver) > 0, seed


def test_pick_endpoints_without_a_connected_pair_raises():
    net = generate(erdos_renyi(4, 0, seed=0))
    with pytest.raises(ModelError, match="no node reaches another"):
        pick_endpoints(net, 0)
