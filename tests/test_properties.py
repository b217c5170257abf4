"""Hypothesis-driven invariants on small random digraphs."""

from collections import deque
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netcontrol import (Matching, NotMaximumMatchingError, build_input_graph,
                        classify_exhaustive, classify_nodes, exchange,
                        find_components, input_nodes, is_maximum,
                        maximum_matching, unsaturated_nodes)
from netcontrol import matching, network
from netcontrol.network import DirectedNetwork
from netcontrol.oracle import enumerate_maximum_matchings

from conftest import (adjacency_edges, class_names, component_sets, node_set,
                      report_for)


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
    assert len(node_set(input_nodes(m))) == net.n - m.size
    assert len(node_set(unsaturated_nodes(m))) == net.n - m.size


@given(digraphs(), st.integers(min_value=1, max_value=1000))
def test_matching_number_is_seed_invariant(net, seed):
    assert maximum_matching(net, seed).size == maximum_matching(net, 0).size


@given(digraphs())
def test_exchange_swaps_exactly_one_node(net):
    m = maximum_matching(net, 0)
    before = node_set(input_nodes(m))
    for node in before:
        for via in net.predecessors(node).tolist():
            result = exchange(net, m, node, via)
            assert is_maximum(net, result.matching)
            after = node_set(input_nodes(result.matching))
            assert len(before ^ after) == 2
            assert node in before - after


@given(digraphs())
def test_always_input_iff_no_in_edge(net):
    truth = class_names(classify_exhaustive(net))
    assert len(truth) == net.n
    in_degree = np.diff(net.in_ptr)
    for v in range(net.n):
        in_every = truth[v].value == "critical"
        assert in_every == (in_degree[v] == 0)


@given(digraphs())
def test_pipeline_matches_oracle(net):
    m = maximum_matching(net, 0)
    ig = build_input_graph(net, m)
    assert np.array_equal(classify_nodes(ig), classify_exhaustive(net))
    union = frozenset().union(*enumerate_maximum_matchings(net).input_sets)
    assert node_set(ig.possible_inputs) == union


@given(digraphs())
def test_structural_invariants(net):
    m = maximum_matching(net, 0)
    ig = build_input_graph(net, m)
    poss = node_set(ig.possible_inputs)
    possible, redundant = adjacency_edges(ig)
    assert all(src in poss and dst in poss for src, dst, _ in possible)
    assert not any(src in poss or dst in poss for src, dst, _ in redundant)
    assert ig.edge_count <= net.edge_count
    report = report_for(net, m, ig)
    comps = component_sets(report.comp_of)
    assert sum(map(len, comps)) == net.n
    assert report.sizes.tolist() == list(map(len, comps))
    for ident, members in enumerate(comps):
        inside = members <= poss
        assert inside or members.isdisjoint(poss)
        assert (report.kind(ident).value == "IC") == inside


@settings(max_examples=40)
@given(digraphs(max_nodes=7), st.integers(min_value=0, max_value=4))
def test_classification_seed_stable(net, seed):
    base = classify_nodes(build_input_graph(net, maximum_matching(net, 0)))
    other = classify_nodes(build_input_graph(net, maximum_matching(net, seed)))
    assert np.array_equal(base, other)


def _closure_reference(net, m):
    """The two-pass closure the array pass replaced, kept as reference.

    Returns the possible inputs and the possible-side and redundant-side
    ``(src, dst, witness)`` edges, or raises for a non-maximum matching.
    """
    match_out, match_in = m.match_out.tolist(), m.match_in.tolist()
    possible = set(v for v in range(net.n) if match_in[v] < 0)
    queue = deque(sorted(possible))
    possible_edges = []
    while queue:
        x = queue.popleft()
        for c in net.predecessors(x).tolist():
            b = match_out[c]
            if b < 0:
                raise NotMaximumMatchingError("augmenting path")
            if b == x:
                continue
            possible_edges.append((x, b, c))
            if b not in possible:
                possible.add(b)
                queue.append(b)
    redundant_edges = []
    for x in range(net.n):
        if x in possible:
            continue
        w = match_in[x]
        for c in net.successors(w).tolist():
            if c != x:
                assert c not in possible
                redundant_edges.append((c, x, w))
    return possible, possible_edges, redundant_edges


def _matching_reference(net):
    """The seed-0 search of ``maximum_matching`` in plain Python.

    Level-synchronous phases from the free out-copies in id order, each
    scanning adjacency in ascending order: the first claim of an in-copy
    wins, a tree stops growing at its first free end, and each phase flips
    its paths. The first phase is taken in closed form, as there: each
    in-copy is claimed by its smallest in-neighbour, and each out-copy is
    matched to the smallest in-copy it claimed.
    """
    n = net.n
    adj = [net.successors(u).tolist() for u in range(n)]
    match_out, match_in = [-1] * n, [-1] * n
    for v in range(n):
        pred = net.predecessors(v).tolist()
        if pred and match_out[pred[0]] < 0:
            match_out[pred[0]], match_in[v] = v, pred[0]
    while True:
        frontier = [u for u in range(n) if match_out[u] < 0]
        root_of = {u: u for u in frontier}
        parent, done, ends = {}, set(), []
        while frontier:
            claims = []
            for u in frontier:
                for v in adj[u]:
                    if v not in parent:
                        parent[v] = u
                        claims.append(v)
            for v in claims:
                tree = root_of[parent[v]]
                if match_in[v] < 0 and tree not in done:
                    done.add(tree)
                    ends.append(v)
            frontier = []
            for v in claims:
                tree = root_of[parent[v]]
                if match_in[v] >= 0 and tree not in done:
                    root_of[match_in[v]] = tree
                    frontier.append(match_in[v])
        if not ends:
            return match_out
        for v in ends:
            while v >= 0:
                u = parent[v]
                prev = match_out[u]
                match_out[u], match_in[v] = v, u
                v = prev


def _components_reference(n, edges):
    """The union-find the label propagation replaced, kept as reference."""
    parent = list(range(n))

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for src, dst, _ in edges:
        ra, rb = find(src), find(dst)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    groups = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    return [frozenset(members) for _, members in sorted(groups.items())]


@st.composite
def digraphs_with_loops(draw, max_nodes=24):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return DirectedNetwork(n, draw(st.lists(pairs, max_size=3 * n)))


@contextmanager
def numpy_levels():
    """Every BFS level and flip round in numpy: the sizes below which the
    matcher and ``network.reach`` walk in Python set to 0.

    The digraphs here have at most 72 edges, so with the shipped sizes no
    level of theirs is wide enough for the numpy code.
    """
    with mock.patch.multiple(matching, _THIN_LEVEL=0, _THIN_FLIP=0), \
            mock.patch.object(network, "_THIN_FRONTIER", 0):
        yield


def _seed0_matches_reference(net):
    assert maximum_matching(net, 0).match_out.tolist() == \
        _matching_reference(net)


@settings(max_examples=300, deadline=None)
@given(digraphs_with_loops())
def test_seed0_matching_matches_reference(net):
    _seed0_matches_reference(net)


@settings(max_examples=300, deadline=None)
@given(digraphs_with_loops())
def test_seed0_matching_matches_reference_in_numpy_levels(net):
    with numpy_levels():
        _seed0_matches_reference(net)


@st.composite
def wide_blobs_with_thin_chains(draw):
    """A dense random blob beside a reversed double chain, a few edges each
    way between them, ids shuffled or not.

    The blob's BFS levels gather more edges than the matcher walks in
    Python and the chain's fewer, so most phases switch level kinds, and
    in about a third of the draws one switches both ways.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    w, m = draw(st.integers(30, 60)), draw(st.integers(50, 300))
    blob = np.argwhere(rng.random((w, w)) < draw(st.floats(0.1, 0.3)))
    c = np.arange(m)
    chain = w + np.concatenate((np.column_stack((c, m - 1 - c)),
                                np.column_stack((c[:-1], m - 2 - c[:-1]))))
    k = draw(st.integers(1, 5))
    into, out_of = rng.integers(0, w, (2, k)), rng.integers(w, w + m, (2, k))
    edges = np.concatenate((blob, chain, np.column_stack((into[0], out_of[0])),
                            np.column_stack((out_of[1], into[1]))))
    if draw(st.booleans()):
        edges = rng.permutation(w + m)[edges]
    return DirectedNetwork(w + m, edges)


@settings(max_examples=100, deadline=None)
@given(wide_blobs_with_thin_chains())
def test_matching_and_closure_match_references_across_level_kinds(net):
    m = maximum_matching(net, 0)
    assert m.match_out.tolist() == _matching_reference(net)
    possible = build_input_graph(net, m).possible_inputs
    assert node_set(possible) == _closure_reference(net, m)[0]


@settings(max_examples=300, deadline=None)
@given(digraphs_with_loops())
def test_seeded_matching_is_the_reference_on_its_relabelling(net):
    for seed in (3, -3, 7):
        new_id = np.random.default_rng(abs(seed)).permutation(net.n).tolist()
        relabelled = DirectedNetwork(net.n, [
            (new_id[u], new_id[v])
            for u in range(net.n) for v in net.successors(u).tolist()])
        found = _matching_reference(relabelled)
        old_id = {new: old for old, new in enumerate(new_id)}
        expected = [old_id.get(found[new_id[u]], -1) for u in range(net.n)]
        m = maximum_matching(net, seed)
        assert m.match_out.tolist() == expected
        assert maximum_matching(net, -seed) == m


@settings(max_examples=300, deadline=None)
@given(digraphs_with_loops(), st.integers(min_value=0, max_value=5))
def test_array_closure_and_components_match_references(net, seed):
    _closure_and_components_match_references(net, seed)


@settings(max_examples=300, deadline=None)
@given(digraphs_with_loops(), st.integers(min_value=0, max_value=5))
def test_array_closure_and_components_match_references_in_numpy_levels(
        net, seed):
    with numpy_levels():
        _closure_and_components_match_references(net, seed)


def _closure_and_components_match_references(net, seed):
    m = maximum_matching(net, seed)
    ig = build_input_graph(net, m)
    possible, possible_edges, redundant_edges = _closure_reference(net, m)
    assert node_set(ig.possible_inputs) == possible
    got_possible, got_redundant = adjacency_edges(ig)
    assert sorted(got_possible) == sorted(possible_edges)
    assert sorted(got_redundant) == sorted(redundant_edges)
    reference = _components_reference(net.n, possible_edges + redundant_edges)
    comp_of = find_components(ig)
    assert component_sets(comp_of) == reference
    assert set(comp_of.tolist()) == set(range(len(reference)))
    # dropping a matched pair raises in both exactly when it is not maximum
    for drop in np.flatnonzero(m.match_out >= 0)[:3].tolist():
        match_out = m.match_out.copy()
        match_out[drop] = -1
        smaller = Matching(match_out)
        try:
            _closure_reference(net, smaller)
        except NotMaximumMatchingError:
            with pytest.raises(NotMaximumMatchingError):
                build_input_graph(net, smaller)
        else:
            build_input_graph(net, smaller)
