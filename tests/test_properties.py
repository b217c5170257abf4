"""Hypothesis-driven invariants on small random digraphs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from netcontrol import (build_input_graph, classify_exhaustive, classify_nodes,
                        exchange, input_nodes, is_maximum, maximum_matching,
                        unsaturated_nodes)
from netcontrol.network import DirectedNetwork
from netcontrol.oracle import enumerate_maximum_matchings

from conftest import report_for


@st.composite
def digraphs(draw, max_nodes=8):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True,
                          max_size=len(pairs)) if pairs else st.just([]))
    return DirectedNetwork(n, edges)


@given(digraphs())
def test_matching_is_maximum_and_counts_align(net):
    m = maximum_matching(net, 0)
    assert is_maximum(net, m)
    assert len(input_nodes(net, m)) == net.n - m.size
    assert len(unsaturated_nodes(net, m)) == net.n - m.size


@given(digraphs(), st.integers(min_value=1, max_value=1000))
def test_matching_number_is_seed_invariant(net, seed):
    assert maximum_matching(net, seed).size == maximum_matching(net, 0).size


@given(digraphs())
def test_exchange_swaps_exactly_one_node(net):
    m = maximum_matching(net, 0)
    before = set(input_nodes(net, m))
    for node in before:
        for via in net.in_adj[node]:
            result = exchange(net, m, node, via)
            assert is_maximum(net, result.matching)
            after = set(input_nodes(net, result.matching))
            assert len(before ^ after) == 2
            assert node in before - after


@given(digraphs())
def test_always_input_iff_no_in_edge(net):
    truth = classify_exhaustive(net)
    for v in range(net.n):
        in_every = truth[v].value == "critical"
        assert in_every == (net.in_degree(v) == 0)


@given(digraphs())
def test_pipeline_matches_oracle(net):
    m = maximum_matching(net, 0)
    ig = build_input_graph(net, m)
    assert classify_nodes(ig) == classify_exhaustive(net)
    union = frozenset().union(*enumerate_maximum_matchings(net).input_sets)
    assert ig.possible_inputs == union


@given(digraphs())
def test_structural_invariants(net):
    m = maximum_matching(net, 0)
    ig = build_input_graph(net, m)
    poss = ig.possible_inputs
    assert all(e.src in poss and e.dst in poss for e in ig.possible_edges)
    assert not any(e.src in poss or e.dst in poss for e in ig.redundant_edges)
    assert ig.edge_count <= net.edge_count
    report = report_for(net, m, ig)
    assert sum(c.size for c in report.components) == net.n
    for comp in report.components:
        inside = comp.members <= poss
        assert inside or comp.members.isdisjoint(poss)
        assert (comp.kind.value == "IC") == inside


@settings(max_examples=40)
@given(digraphs(max_nodes=7), st.integers(min_value=0, max_value=4))
def test_classification_seed_stable(net, seed):
    base = classify_nodes(build_input_graph(net, maximum_matching(net, 0)))
    other = classify_nodes(build_input_graph(net, maximum_matching(net, seed)))
    assert base == other
