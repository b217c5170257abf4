import networkx as nx
import pytest

from netcontrol import (ExchangeError, GenSpec, InternalInvariantError,
                        Matching, exchange, generate, input_nodes, is_maximum,
                        maximum_matching, unsaturated_nodes)
from netcontrol.network import DirectedNetwork

from conftest import brute_maximum_matchings, random_digraph


def nx_matching_size(net: DirectedNetwork) -> int:
    graph = nx.Graph()
    left = [("out", u) for u in range(net.n)]
    graph.add_nodes_from(left)
    for u, v in net.edges:
        graph.add_edge(("out", u), ("in", v))
    return len(nx.bipartite.hopcroft_karp_matching(graph, top_nodes=left)) // 2


def test_dilation_matching_size_and_inputs(dilation_net):
    m = maximum_matching(dilation_net, 0)
    assert m.size == 1
    mis = input_nodes(dilation_net, m)
    assert len(mis) == 2
    assert dilation_net.id_of("c") in mis


def test_path_is_matched_except_head(path4):
    m = maximum_matching(path4, 0)
    assert m.size == 3
    assert set(input_nodes(path4, m)) == {0}


def test_confluence_brute_force(confluence):
    assert len(brute_maximum_matchings(confluence)[0]) == 1
    m = maximum_matching(confluence, 0)
    assert m.size == 1
    assert set(input_nodes(confluence, m)) == {confluence.id_of("1"),
                                               confluence.id_of("2")}
    assert unsaturated_nodes(confluence, m) == {confluence.id_of("2"),
                                                confluence.id_of("3")}


def test_two_cycle_perfectly_matched(two_cycle):
    m = maximum_matching(two_cycle, 0)
    assert m.size == 2
    mis = input_nodes(two_cycle, m)
    assert mis == frozenset()
    assert unsaturated_nodes(two_cycle, m) == frozenset()


def test_dilation_unsaturated_under_full_split(dilation_net, dilation_matching):
    # a and b have no out-edges at all, so their out-copies are unmatched
    assert unsaturated_nodes(dilation_net, dilation_matching) == {dilation_net.id_of("a"),
                                                        dilation_net.id_of("b")}


def test_matching_size_is_seed_invariant():
    for seed_net in range(5):
        net = random_digraph(12, 0.25, seed_net)
        sizes = {maximum_matching(net, s).size for s in range(5)}
        assert len(sizes) == 1


def test_matching_size_matches_networkx():
    for seed in range(20):
        net = random_digraph(15, 0.2, seed)
        assert maximum_matching(net, 0).size == nx_matching_size(net)


@pytest.mark.parametrize("model,n,k", [("er", 200, 2.0), ("er", 2000, 4.0),
                                       ("sf", 300, 3.0), ("sf", 2000, 6.0)])
def test_matching_matches_networkx_on_generated_graphs(model, n, k):
    net = generate(GenSpec(model=model, n=n, avg_degree=k, seed=n))
    expected = nx_matching_size(net)
    for order_seed in (0, 3, -3):
        m = maximum_matching(net, order_seed)
        assert m.size == expected
        m.validate(net)
        assert is_maximum(net, m)


def test_reverse_chain_needs_one_long_augmenting_path():
    # u -> N-1-u and u -> N-2-u: taking first claims leaves one augmenting
    # path that zigzags through about 2N copies
    n = 2000
    edges = [(u, n - 1 - u) for u in range(n)] + \
            [(u, n - 2 - u) for u in range(n - 1)]
    net = DirectedNetwork(n, edges)
    m = maximum_matching(net, 0)
    assert m.size == n
    m.validate(net)
    assert is_maximum(net, m)


def test_edgeless_and_self_loop_only_networks():
    edgeless = DirectedNetwork(4, [])
    assert maximum_matching(edgeless, 0).size == 0
    loops = DirectedNetwork(4, [(v, v) for v in range(4)])
    for order_seed in (0, 3, -3):
        m = maximum_matching(loops, order_seed)
        assert m.matched_out == {v: v for v in range(4)}
        assert is_maximum(loops, m)


def test_matching_size_matches_brute_force():
    for seed in range(10):
        net = random_digraph(5, 0.4, seed)
        if net.edge_count > 16:
            continue
        expected = len(brute_maximum_matchings(net)[0])
        assert maximum_matching(net, 0).size == expected


def test_matching_deterministic_per_seed():
    net = random_digraph(30, 0.15, 3)
    for seed in (0, 1, 99):
        assert maximum_matching(net, seed) == maximum_matching(net, seed)


def test_is_maximum_accepts_hk_output():
    for seed in range(10):
        net = random_digraph(20, 0.15, seed)
        assert is_maximum(net, maximum_matching(net, 0))


def test_is_maximum_rejects_smaller_matchings(dilation_net, dilation_matching):
    assert is_maximum(dilation_net, dilation_matching)
    assert not is_maximum(dilation_net, Matching({}))


def test_is_maximum_rejects_any_single_removal():
    net = random_digraph(12, 0.3, 7)
    m = maximum_matching(net, 0)
    for u in list(m.matched_out):
        smaller = dict(m.matched_out)
        del smaller[u]
        assert not is_maximum(net, Matching(smaller))


def test_is_maximum_on_derived_five_node(five_node, five_node_matching):
    assert is_maximum(five_node, five_node_matching)


def test_from_pairs_validates_edges(dilation_net):
    with pytest.raises(ValueError):
        Matching.from_pairs(dilation_net, [(1, 2)])  # a->b is not an edge


def test_exchange_dilation(dilation_net, dilation_matching):
    ids = dilation_net.id_of
    result = exchange(dilation_net, dilation_matching, ids("a"), ids("c"))
    assert result.replaced == ids("b")
    assert result.matching.size == 1
    assert is_maximum(dilation_net, result.matching)
    assert set(input_nodes(dilation_net, result.matching)) == {ids("b"), ids("c")}


def test_exchange_requires_input_node(path4):
    m = maximum_matching(path4, 0)
    with pytest.raises(ExchangeError):
        exchange(path4, m, 1, 0)  # node 2 is matched


def test_exchange_requires_real_in_edge(dilation_net, dilation_matching):
    with pytest.raises(ExchangeError):
        exchange(dilation_net, dilation_matching, dilation_net.id_of("a"), dilation_net.id_of("b"))


def test_exchange_star_derived():
    net = DirectedNetwork(4, [(0, 1), (0, 2), (0, 3)])  # hub feeds 3 leaves
    m = Matching.from_pairs(net, [(0, 1)])
    result = exchange(net, m, 2, 0)
    assert result.replaced == 1
    assert result.matching.matched_out[0] == 2


def test_exchange_detects_non_maximum_matching():
    net = DirectedNetwork(3, [(0, 1), (1, 2)])
    # node 2's in-edge (1,2) with 1 unsaturated: only possible if matching
    # is not maximum, which exchange reports as an invariant violation
    m = Matching.from_pairs(net, [(0, 1)])
    with pytest.raises(InternalInvariantError):
        exchange(net, m, 2, 1)


def test_exchange_one_node_difference_everywhere():
    for seed in range(10):
        net = random_digraph(14, 0.2, seed)
        m = maximum_matching(net, 0)
        before = set(input_nodes(net, m))
        for node in sorted(before):
            partners = set()
            for via in net.predecessors(node).tolist():
                result = exchange(net, m, node, via)
                assert is_maximum(net, result.matching)
                after = set(input_nodes(net, result.matching))
                assert before - after == {node}
                assert len(after - before) == 1
                partners.update(after - before)
            # distinct witnesses always yield distinct replacements
            assert len(partners) == net.predecessors(node).size


def test_long_chain_does_not_recurse():
    # augmenting paths spanning thousands of nodes must not hit the
    # interpreter recursion limit
    n = 5000
    net = DirectedNetwork(n, [(i, i + 1) for i in range(n - 1)])
    m = maximum_matching(net, 0)
    assert m.size == n - 1
    assert is_maximum(net, m)


def test_self_loop_is_matchable():
    net = DirectedNetwork(2, [(0, 0), (0, 1)], labels=["a", "b"])
    m = maximum_matching(net, 0)
    assert m.size == 1
    assert is_maximum(net, m)
