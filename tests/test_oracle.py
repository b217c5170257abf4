from collections import defaultdict

import numpy as np
import pytest

from netcontrol import (NodeClass, OracleGuard, OracleInfeasibleError,
                        classify_exhaustive, enumerate_maximum_matchings,
                        maximum_matching)
from netcontrol.input_graph import build_input_graph, classify_nodes
from netcontrol.network import DirectedNetwork

from conftest import (brute_input_sets, brute_maximum_matchings, class_names,
                      random_digraph, worked_networks)
from test_memory import traced


def test_dilation_enumeration(dilation_net):
    result = enumerate_maximum_matchings(dilation_net)
    assert result.matching_count == 2
    labelled = [sorted(dilation_net.labels[v] for v in s)
                for s in result.input_sets]
    assert labelled == [["a", "c"], ["b", "c"]]


def test_path_enumeration(path4):
    result = enumerate_maximum_matchings(path4)
    assert result.matching_count == 1
    assert result.input_sets == (frozenset({0}),)


def test_five_node_enumeration(five_node):
    result = enumerate_maximum_matchings(five_node)
    ids = five_node.id_of
    assert set(result.input_sets) == {
        frozenset({ids("u"), ids("c1"), ids("w")}),
        frozenset({ids("b"), ids("c1"), ids("w")})}
    assert ids("a") not in result.in_some_set


def test_matches_subset_brute_force():
    for seed in range(12):
        net = random_digraph(5, 0.4, seed)
        if net.edge_count > 16:
            continue
        result = enumerate_maximum_matchings(net)
        expected = brute_maximum_matchings(net)
        if not net.edge_count:
            continue
        assert result.matching_count == len(expected)
        assert set(result.input_sets) == brute_input_sets(net)


def test_sizes_agree_with_matching_module():
    for seed in range(15):
        net = random_digraph(7, 0.3, seed)
        result = enumerate_maximum_matchings(net)
        hk = maximum_matching(net, 0)
        for input_set in result.input_sets:
            assert len(input_set) == net.n - hk.size


def test_node_count_guard():
    net = DirectedNetwork(17, [])
    with pytest.raises(OracleInfeasibleError):
        enumerate_maximum_matchings(net)


def test_count_guard_is_hard_error():
    # a 6-node bipartite clique has 6! + ... many matchings; cap below that
    edges = [(u, v) for u in range(3) for v in range(3, 6)]
    net = DirectedNetwork(6, edges)
    with pytest.raises(OracleInfeasibleError):
        enumerate_maximum_matchings(net, OracleGuard(max_count=2))


def test_enumeration_keeps_no_matching():
    # complete digraph on 8 nodes: 14 833 maximum matchings (the derangements
    # of 8), each matching every in-copy; as pair tuples they take ~16 MB
    net = DirectedNetwork(8, [(u, v) for u in range(8) for v in range(8)
                              if u != v])
    peak, result = traced(enumerate_maximum_matchings, net)
    assert result.matching_count == 14833
    assert result.input_sets == (frozenset(),)
    assert peak < 1 << 20


def test_classify_exhaustive_dilation(dilation_net):
    classes = class_names(classify_exhaustive(dilation_net))
    assert classes[dilation_net.id_of("c")] is NodeClass.CRITICAL
    assert classes[dilation_net.id_of("a")] is NodeClass.INTERMITTENT
    assert classes[dilation_net.id_of("b")] is NodeClass.INTERMITTENT


def test_zero_in_degree_nodes_are_critical():
    for seed in range(10):
        net = random_digraph(6, 0.3, seed)
        classes = class_names(classify_exhaustive(net))
        assert len(classes) == net.n
        in_degree = np.diff(net.in_ptr)
        for node, cls in enumerate(classes):
            assert (cls is NodeClass.CRITICAL) == (in_degree[node] == 0)


def test_oracle_agrees_with_pipeline_on_worked_networks():
    for net in worked_networks():
        truth = classify_exhaustive(net)
        ig = build_input_graph(net, maximum_matching(net, 0))
        assert np.array_equal(classify_nodes(ig), truth)


def symmetric_difference_components(net, pairs_a, pairs_b):
    """Connected pieces of the two matchings' symmetric difference, over
    the split node set."""
    diff = set(pairs_a) ^ set(pairs_b)
    adj = defaultdict(list)
    for u, v in diff:
        adj[("out", u)].append(("in", v))
        adj[("in", v)].append(("out", u))
    seen, groups = set(), []
    for start in sorted(adj):
        if start in seen:
            continue
        stack, group = [start], set()
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            group.add(node)
            stack.extend(adj[node])
        groups.append(group)
    return groups, diff


def test_symmetric_difference_structure():
    """Pairwise, maximum matchings differ by alternating paths/even cycles."""
    for seed in range(8):
        net = random_digraph(6, 0.35, seed)
        sample = brute_maximum_matchings(net)[:6]
        for i in range(len(sample)):
            for j in range(i + 1, len(sample)):
                groups, diff = symmetric_difference_components(
                    net, sample[i], sample[j])
                only_a = set(sample[i]) - set(sample[j])
                for group in groups:
                    degrees = []
                    for node in group:
                        deg = sum(1 for u, v in diff
                                  if (node in (("out", u), ("in", v))))
                        degrees.append(deg)
                    assert all(d <= 2 for d in degrees)
                    edges_inside = sum(
                        1 for u, v in diff
                        if ("out", u) in group and ("in", v) in group)
                    if all(d == 2 for d in degrees):  # cycle: must alternate
                        inside_a = sum(1 for e in only_a
                                       if ("out", e[0]) in group)
                        assert edges_inside % 2 == 0
                        assert inside_a * 2 == edges_inside
