import time

import networkx as nx
import numpy as np
import pytest

from netcontrol import (NODE_CLASSES, DirectedNetwork, GenSpec, Matching,
                        NodeClass, NotMaximumMatchingError, build_input_graph,
                        classify_nodes, control_reachable_from, exchange,
                        generate, input_nodes, maximum_matching)
from netcontrol.oracle import enumerate_maximum_matchings

from conftest import (adjacency_edges, brute_input_sets, class_names,
                      edge_pairs, is_maximum_reference, matching_of, node_set,
                      random_digraph, worked_networks)


def test_dilation_input_graph(dilation_net, dilation_matching):
    ids = dilation_net.id_of
    ig = build_input_graph(dilation_net, dilation_matching)
    assert node_set(ig.possible_inputs) == {ids("a"), ids("b"), ids("c")}
    possible, redundant = adjacency_edges(ig)
    assert possible == [(ids("a"), ids("b"), ids("c"))]
    assert redundant == []


def test_path_has_no_adjacencies(path4):
    m = maximum_matching(path4, 0)
    ig = build_input_graph(path4, m)
    assert adjacency_edges(ig) == ([], [])
    assert node_set(ig.possible_inputs) == {0}


def test_five_node_excludes_cross_class_pair(five_node, five_node_matching):
    """A literal witness scan relates redundant a to possible b; the
    constructed graph must not contain that pair in either direction."""
    net, m = five_node, five_node_matching
    ids = net.id_of
    ig = build_input_graph(net, m)
    assert node_set(ig.possible_inputs) == {ids("u"), ids("c1"), ids("w"),
                                            ids("b")}
    possible, redundant = adjacency_edges(ig)
    assert possible + redundant == [(ids("u"), ids("b"), ids("c1"))]

    # the cross-class pair exists under the raw definition...
    raw_pairs = set()
    for c in range(net.n):
        b = int(m.match_out[c])
        if b < 0:
            continue
        for a in net.successors(c).tolist():
            if a != b:
                raw_pairs.add((a, b))
    assert (ids("a"), ids("b")) in raw_pairs
    # ...and a is redundant while b is possible, so it must stay excluded
    classes = class_names(classify_nodes(ig))
    assert classes[ids("a")] is NodeClass.REDUNDANT
    assert classes[ids("b")].possible_input
    constructed = {(src, dst) for src, dst, _ in possible + redundant}
    assert (ids("a"), ids("b")) not in constructed
    assert (ids("b"), ids("a")) not in constructed


def test_redundant_side_edges():
    # two sources into one chain: 3->1 adjacency on the redundant side
    from netcontrol import load_edge_list
    net = load_edge_list("1 3\n2 3\n2 1\n")
    m = matching_of(net, [(net.id_of("1"), net.id_of("3")),
                          (net.id_of("2"), net.id_of("1"))])
    ig = build_input_graph(net, m)
    classes = class_names(classify_nodes(ig))
    assert classes[net.id_of("2")].possible_input
    redundant_pairs = set(adjacency_edges(ig)[1])
    assert redundant_pairs == {(net.id_of("3"), net.id_of("1"), net.id_of("2"))}


def test_rejects_non_maximum_matching(dilation_net):
    """The closure pass is the Berge check: it must raise exactly when the
    independent alternating search (``is_maximum_reference``) finds an
    augmenting path."""
    with pytest.raises(NotMaximumMatchingError):
        build_input_graph(dilation_net, matching_of(dilation_net, []))
    rejected = 0
    for seed in range(25):
        net = random_digraph(9, 0.2, seed)
        full = maximum_matching(net, seed).match_out
        candidates = [full, np.full(net.n, -1)]
        for drop in np.flatnonzero(full >= 0).tolist():
            candidates.append(full.copy())
            candidates[-1][drop] = -1
        for match_out in candidates:
            m = Matching(match_out)
            if is_maximum_reference(net, m):
                build_input_graph(net, m)
            else:
                rejected += 1
                with pytest.raises(NotMaximumMatchingError):
                    build_input_graph(net, m)
    assert rejected > 25


def test_classify_dilation(dilation_net, dilation_matching):
    classes = class_names(
        classify_nodes(build_input_graph(dilation_net, dilation_matching)))
    ids = dilation_net.id_of
    assert classes[ids("c")] is NodeClass.CRITICAL
    assert classes[ids("a")] is NodeClass.INTERMITTENT
    assert classes[ids("b")] is NodeClass.INTERMITTENT


def test_classify_path(path4):
    classes = class_names(
        classify_nodes(build_input_graph(path4, maximum_matching(path4, 0))))
    assert classes[0] is NodeClass.CRITICAL
    assert all(classes[v] is NodeClass.REDUNDANT for v in (1, 2, 3))


def test_classify_confluence(confluence):
    m = maximum_matching(confluence, 0)
    classes = class_names(classify_nodes(build_input_graph(confluence, m)))
    assert classes[confluence.id_of("1")] is NodeClass.CRITICAL
    assert classes[confluence.id_of("2")] is NodeClass.CRITICAL
    assert classes[confluence.id_of("3")] is NodeClass.REDUNDANT


def test_reachability_dilation(dilation_net, dilation_matching):
    ids = dilation_net.id_of
    ig = build_input_graph(dilation_net, dilation_matching)
    assert control_reachable_from(ig, ids("a")).tolist() == sorted(
        [ids("a"), ids("b")])
    assert control_reachable_from(ig, ids("c")).tolist() == [ids("c")]


def test_reachability_five_node(five_node, five_node_matching):
    ids = five_node.id_of
    ig = build_input_graph(five_node, five_node_matching)
    assert control_reachable_from(ig, ids("u")).tolist() == sorted(
        [ids("u"), ids("b")])


def test_reachability_is_linear_on_a_long_chain():
    # Edges c_i -> x_i and c_i -> x_(i-1) have one maximum matching,
    # c_i -> x_i, and the adjacency chain x_0 -> x_1 -> ... -> x_(L-1). A
    # rescan of every adjacency edge per step grows with L^2: 2.2 s at
    # L = 16 000 (2.0 GHz Xeon).
    steps = 30_000
    c, x = np.arange(steps), np.arange(steps, 2 * steps)
    net = DirectedNetwork(2 * steps, np.concatenate((
        np.column_stack((c, x)), np.column_stack((c[1:], x[:-1])))))
    ig = build_input_graph(net, maximum_matching(net))
    assert ig.edge_count == steps - 1
    started = time.perf_counter()
    reached = control_reachable_from(ig, steps)
    assert time.perf_counter() - started < 5
    assert np.array_equal(reached, x)


def test_a_deep_closure_pays_per_edge_not_per_level():
    # The zigzag c_i -> x_i, c_i -> x_(i+1) leaves one x free, and the
    # possible inputs grow from it one x per BFS level, through the whole
    # chain. At 2*10^5 edges a round of numpy calls per level took 1.4-3.3 s
    # (2.0 GHz Xeon); the thin levels, walked in Python, about 0.05 s.
    steps = 100_000
    c, x = np.arange(steps), np.arange(steps, 2 * steps + 1)
    net = DirectedNetwork(2 * steps + 1, np.concatenate((
        np.column_stack((c, x[:-1])), np.column_stack((c, x[1:])))))
    m = maximum_matching(net)
    assert m.size == steps
    started = time.perf_counter()
    ig = build_input_graph(net, m)
    assert time.perf_counter() - started < 0.5
    assert ig.possible_inputs.all()  # the c have no in-edge


def test_class_separation_and_edge_bound_random():
    for seed in range(25):
        net = random_digraph(12, 0.25, seed)
        ig = build_input_graph(net, maximum_matching(net, 0))
        poss = node_set(ig.possible_inputs)
        possible, redundant = adjacency_edges(ig)
        assert all(src in poss and dst in poss for src, dst, _ in possible)
        assert not any(src in poss or dst in poss
                       for src, dst, _ in redundant)
        assert ig.edge_count <= net.edge_count


def test_classification_is_matching_invariant():
    for seed in range(10):
        net = random_digraph(14, 0.25, seed)
        reference = None
        for order_seed in range(5):
            ig = build_input_graph(net, maximum_matching(net, order_seed))
            classes = classify_nodes(ig)
            if reference is None:
                reference = classes
            assert np.array_equal(classes, reference)


def test_possible_inputs_equal_union_of_all_input_sets():
    for net in worked_networks():
        union = frozenset().union(*brute_input_sets(net))
        ig = build_input_graph(net, maximum_matching(net, 0))
        assert node_set(ig.possible_inputs) == union
    for seed in range(15):
        net = random_digraph(6, 0.3, seed)
        union = frozenset().union(
            *enumerate_maximum_matchings(net).input_sets)
        ig = build_input_graph(net, maximum_matching(net, 0))
        assert node_set(ig.possible_inputs) == union


def test_exchange_chain_realizes_reachability(five_node, five_node_matching):
    """Walking adjacency edges via successive exchanges turns each reached
    node into an actual input node."""
    net, m = five_node, five_node_matching
    ids = net.id_of
    ig = build_input_graph(net, m)
    result = exchange(net, m, ids("u"), ids("c1"))
    assert ids("b") in node_set(input_nodes(result.matching))


def test_self_loop_network_agrees_with_oracle():
    from netcontrol import DirectedNetwork
    net = DirectedNetwork(2, [(0, 0), (0, 1)], labels=["a", "b"])
    ig = build_input_graph(net, maximum_matching(net, 0))
    union = frozenset().union(*enumerate_maximum_matchings(net).input_sets)
    assert node_set(ig.possible_inputs) == union == {0, 1}


def test_oracle_agreement_on_larger_graphs():
    from netcontrol import classify_exhaustive
    for n, seed in ((10, 1), (10, 2), (12, 3), (12, 4), (11, 5)):
        net = random_digraph(n, 0.18, seed)
        ig = build_input_graph(net, maximum_matching(net, 0))
        assert np.array_equal(classify_nodes(ig), classify_exhaustive(net))


@pytest.mark.parametrize("model,n,k", [("er", 200, 3.0), ("er", 2000, 6.0),
                                       ("sf", 500, 4.0), ("sf", 2000, 3.0)])
def test_possible_input_iff_removing_in_copy_keeps_matching_size(model, n, k):
    # v is in some minimum input set exactly when some maximum matching
    # leaves v_in free, i.e. when deleting v_in keeps the matching number.
    # networkx's Hopcroft-Karp gives that number far past the enumerator.
    net = generate(GenSpec(model=model, n=n, avg_degree=k, seed=n + 1))
    graph = nx.Graph()
    left = [("out", u) for u in range(net.n)]
    graph.add_nodes_from(left + [("in", v) for v in range(net.n)])
    graph.add_edges_from((("out", u), ("in", v)) for u, v in edge_pairs(net))

    def nu() -> int:
        return len(nx.bipartite.hopcroft_karp_matching(graph, left)) // 2

    full = nu()
    m = maximum_matching(net, 0)
    assert m.size == full
    ig = build_input_graph(net, m)
    possible, codes = ig.possible_inputs, classify_nodes(ig)
    rng = np.random.default_rng(n)
    sample = []  # up to 6 nodes of each class, chosen at random
    for code in range(len(NODE_CLASSES)):
        nodes = np.flatnonzero(codes == code)
        sample += rng.permutation(nodes)[:6].tolist()
    assert {NODE_CLASSES[c] for c in codes[sample].tolist()} >= {
        NodeClass.INTERMITTENT, NodeClass.REDUNDANT}
    for v in sample:
        sources = [("out", u) for u in net.predecessors(v).tolist()]
        graph.remove_node(("in", v))
        assert (nu() == full) == bool(possible[v]), v
        graph.add_node(("in", v))
        graph.add_edges_from((s, ("in", v)) for s in sources)
