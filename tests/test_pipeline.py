"""A disjoint union analysed once gives each part's own analysis, and a
matching handed to ``analyze`` must be one of the network."""

import numpy as np
import pytest
from conftest import random_digraph

from netcontrol import (DirectedNetwork, GenSpec, Matching, analyze, generate,
                        reports)
from netcontrol.cli import main
from netcontrol.pipeline import part_reports


def _parts():
    return [
        generate(GenSpec(model="er", n=300, avg_degree=4, seed=1)),
        generate(GenSpec(model="sf", n=300, avg_degree=6, seed=2)),
        generate(GenSpec(model="er", n=7, avg_degree=0, seed=3)),  # edgeless
        DirectedNetwork(5, [(0, 1), (1, 2), (2, 0), (3, 1)]),  # 4 isolated
        random_digraph(40, 0.05, seed=4),
        generate(GenSpec(model="sf", n=200, avg_degree=2, seed=5)),
    ]


def _union(nets):
    """The networks side by side: part i's ids follow those before it."""
    bounds = np.cumsum([0] + [g.n for g in nets])
    return DirectedNetwork(int(bounds[-1]), np.concatenate(
        [np.column_stack((g.edge_sources(), g.out_idx)) + lo
         for g, lo in zip(nets, bounds)]))


def test_union_analysis_equals_each_part_alone():
    nets = _parts()
    bounds = np.cumsum([0] + [g.n for g in nets]).tolist()
    whole = analyze(_union(nets))
    match_out = whole.matching.match_out
    comp_of = whole.report.comp_of
    rows = list(part_reports(whole, bounds))
    assert len(rows) == len(nets)
    for net, lo, hi, (possible, report) in zip(nets, bounds, bounds[1:],
                                                rows):
        alone = analyze(net)
        own = match_out[lo:hi]
        np.testing.assert_array_equal(np.where(own >= 0, own - lo, -1),
                                      alone.matching.match_out)
        np.testing.assert_array_equal(possible,
                                      alone.input_graph.possible_inputs)
        c0 = comp_of[lo]
        c1 = comp_of[hi] if hi < whole.network.n else comp_of.max() + 1
        np.testing.assert_array_equal(comp_of[lo:hi] - c0,
                                      alone.report.comp_of)
        np.testing.assert_array_equal(whole.report.sizes[c0:c1],
                                      alone.report.sizes)
        np.testing.assert_array_equal(whole.report.kinds[c0:c1],
                                      alone.report.kinds)
        assert report.cc_max == alone.report.cc_max
        for field in ("comp_of", "sizes", "kinds"):
            np.testing.assert_array_equal(getattr(report, field),
                                          getattr(alone.report, field))


def _analyses(monkeypatch):
    """(nodes, edges) of each network the sweep analyses, in call order."""
    calls = []

    def counted(net, seed=0):
        calls.append((net.n, net.edge_count))
        return analyze(net, seed)

    monkeypatch.setattr("netcontrol.cli.analyze", counted)
    return calls


# k=2 costs n, k=4 costs 2n: under a cap of 5n the first union holds the
# three k=2 networks and one k=4 network, the second the other two k=4
# ones; under a cap below any one network's cost each is analysed alone.
@pytest.mark.parametrize("model, cap, unions", [
    pytest.param(model, cap, unions, id=model + suffix)
    for model in ("er", "sf")
    for cap, unions, suffix in ((5, [4, 2], ""), (0.5, [1] * 6, "-alone"))])
def test_sweep_split_across_unions_equals_per_network_rows(
        model, cap, unions, monkeypatch, capsys):
    n, seeds = 200, range(3)
    monkeypatch.setattr("netcontrol.cli._UNION_SIZE", int(cap * n))
    calls = _analyses(monkeypatch)
    assert main(["sweep", "--model", model, "-n", str(n), "--k-list", "2,4",
                 "--replicates", "3"]) == 0
    assert [nodes for nodes, _ in calls] == [parts * n for parts in unions]
    want = [reports.SWEEP_HEADER]
    for k in (2, 4):
        for seed in seeds:
            alone = analyze(generate(GenSpec(model=model, n=n, avg_degree=k,
                                             seed=seed)))
            want.append(reports.sweep_row(model, n, k, seed,
                                          alone.input_graph.possible_inputs,
                                          alone.report))
    assert capsys.readouterr().out == "\n".join(want) + "\n"


def test_sweep_packs_the_benchmark_grid_into_four_unions(monkeypatch):
    calls = _analyses(monkeypatch)
    assert main(["sweep", "--model", "sf", "-n", "2000", "--k-list",
                 "2,4,6,8,10,12", "--replicates", "5"]) == 0
    assert len(calls) == 4
    assert all(nodes <= 1 << 16 and edges <= 1 << 16
               for nodes, edges in calls)


def test_part_reports_refuse_a_shuffled_matching():
    nets = _parts()[:2]
    bounds = [0, nets[0].n, nets[0].n + nets[1].n]
    whole = analyze(_union(nets), seed=3)
    with pytest.raises(ValueError, match="not separable"):
        list(part_reports(whole, bounds))


def test_a_given_matching_must_be_one_of_the_network():
    net = DirectedNetwork(3, [(0, 1), (1, 2)])
    assert analyze(net, matching=Matching([1, 2, -1])).input_set.tolist() == [0]
    with pytest.raises(ValueError, match="no edge joins"):
        analyze(net, matching=Matching([2, -1, -1]))
    with pytest.raises(ValueError, match="network of 3"):
        analyze(net, matching=Matching([1, -1]))
