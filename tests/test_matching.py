import hashlib
import time

import networkx as nx
import numpy as np
import pytest

from netcontrol import (COMPONENT_KINDS, ComponentKind, ExchangeError, GenSpec,
                        InternalInvariantError, Matching, analyze, exchange,
                        generate, ic_to_smc, input_nodes, is_maximum,
                        maximum_matching, umc_to_smc, unsaturated_nodes)
from netcontrol.network import DirectedNetwork

from conftest import (brute_maximum_matchings, edge_pairs, is_valid_matching,
                      matching_of, node_set, random_digraph)


def nx_matching_size(net: DirectedNetwork) -> int:
    graph = nx.Graph()
    left = [("out", u) for u in range(net.n)]
    graph.add_nodes_from(left)
    for u, v in edge_pairs(net):
        graph.add_edge(("out", u), ("in", v))
    return len(nx.bipartite.hopcroft_karp_matching(graph, top_nodes=left)) // 2


def test_dilation_matching_size_and_inputs(dilation_net):
    m = maximum_matching(dilation_net, 0)
    assert m.size == 1
    mis = node_set(input_nodes(m))
    assert len(mis) == 2
    assert dilation_net.id_of("c") in mis


def test_path_is_matched_except_head(path4):
    m = maximum_matching(path4, 0)
    assert m.size == 3
    assert node_set(input_nodes(m)) == {0}


def test_confluence_brute_force(confluence):
    assert len(brute_maximum_matchings(confluence)[0]) == 1
    m = maximum_matching(confluence, 0)
    assert m.size == 1
    assert node_set(input_nodes(m)) == {confluence.id_of("1"),
                                        confluence.id_of("2")}
    assert node_set(unsaturated_nodes(m)) == {confluence.id_of("2"),
                                              confluence.id_of("3")}


def test_two_cycle_perfectly_matched(two_cycle):
    m = maximum_matching(two_cycle, 0)
    assert m.size == 2
    mis = node_set(input_nodes(m))
    assert mis == frozenset()
    assert node_set(unsaturated_nodes(m)) == frozenset()


def test_dilation_unsaturated_under_full_split(dilation_net, dilation_matching):
    # a and b have no out-edges at all, so their out-copies are unmatched
    assert node_set(unsaturated_nodes(dilation_matching)) == {
        dilation_net.id_of("a"), dilation_net.id_of("b")}


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
        assert is_valid_matching(net, m.pairs())
        assert is_maximum(net, m)


# sha256 prefixes of match_out under order seeds 0 and 3. Sparse graphs
# hold nodes with no in-edge and isolated nodes. The last column is the
# seed-3 digest first pinned, under the per-row shuffle that nonzero seeds
# used before they became relabellings; it only names the test case, so a
# case keeps its id when its seed-3 pin is re-recorded.
PINS = [
    ("er", 50, 0.5, "c12dc35977ac0477", "6e0898ddbafd3e90", "6e0898ddbafd3e90"),
    ("er", 50, 1, "e0e264148f0d6329", "3968093f0fc7f24e", "34d967f4c592740a"),
    ("er", 50, 2, "ae848fe9d8265d4c", "bc4dde43a52a7ac0", "24ef235c08827005"),
    ("er", 50, 4, "20b6d3f4e1265969", "9f29176dbebbbfe6", "d150672ea48c9b1c"),
    ("er", 50, 10, "685081e8b53c5d48", "ec137db43000c81b", "d67bb9d3f7062073"),
    ("er", 2000, 0.5, "dff28d3f293e06c6", "d7c3a0db53261f7d", "400f6090db2989ff"),
    ("er", 2000, 1, "961968c45b948676", "101f2ca6c505da54", "e055767965f258bb"),
    ("er", 2000, 2, "7ff0cd2c81dec0d3", "6c0649c7341876d6", "aaef5ae5dbc5a973"),
    ("er", 2000, 4, "b2dd1623c90d0288", "fa92710cb5798802", "bcfb1f6d2d156c14"),
    ("er", 2000, 10, "d898e8e69151d948", "b66386d5dbcf73be", "ef76134f28b6d9e3"),
    ("sf", 50, 0.5, "34ba9f6c33eb34a3", "c01e273c9877efc0", "20c4296d5d35f217"),
    ("sf", 50, 1, "5fcc1541f888d688", "6538faa483605fd4", "3bb5c869a32a7756"),
    ("sf", 50, 2, "8d8c17a6775efd7b", "82a4b77652e11f09", "6bf6e2e915209f24"),
    ("sf", 50, 4, "29de03af4396ac70", "54d485cd763e4a43", "9675aa71e984961c"),
    ("sf", 50, 10, "7433c701a8bdc9bb", "b961e7cf8c263640", "9fa041fe9bf71670"),
    ("sf", 2000, 0.5, "71e38280afcacc3b", "757ac49ba4629dda", "f9264230992ad656"),
    ("sf", 2000, 1, "4e1b0fcd4d074b32", "9b6a8320a78f8610", "112892e2e23fcfae"),
    ("sf", 2000, 2, "a2a175efc839d204", "b7be90a1f9162144", "32e4760067cef70a"),
    ("sf", 2000, 4, "91dc9aaf33a7d7ec", "3fb04e132085678d", "279c8dde0517e1a4"),
    ("sf", 2000, 10, "fc4e606c24932e4e", "3344910878a6d9c4", "13f0d4e47e82f2de"),
    ("er", 6000, 10, "82997d093af8c5e9", "18477d7ff5a8fea0", "c8c230826f5e39e8"),
    ("er", 6000, 14, "60df4b1edee07056", "d4842c88fa3a83c3", "1bad0761d6cb265b"),
    ("sf", 6000, 10, "3d3a191ea3a3768b", "9365e581b585b4a0", "83721c8f172c00a0"),
    ("sf", 6000, 14, "2631649c249b0f10", "da82d455bd311493", "4066e6ab8c097926"),
]


@pytest.mark.parametrize(
    "model,n,k,seed0,seed3", [row[:5] for row in PINS],
    ids=["-".join(map(str, row[:4] + row[5:])) for row in PINS])
def test_matchings_are_pinned(model, n, k, seed0, seed3):
    net = generate(GenSpec(model=model, n=n, avg_degree=k, seed=n + int(10 * k)))
    digests = [hashlib.sha256(maximum_matching(net, s).match_out.tobytes())
               .hexdigest()[:16] for s in (0, 3)]
    assert digests == [seed0, seed3]


def test_reverse_chain_needs_one_long_augmenting_path():
    # u -> N-1-u and u -> N-2-u: taking first claims leaves one augmenting
    # path that zigzags through about 2N copies
    n = 2000
    edges = [(u, n - 1 - u) for u in range(n)] + \
            [(u, n - 2 - u) for u in range(n - 1)]
    net = DirectedNetwork(n, edges)
    m = maximum_matching(net, 0)
    assert m.size == n
    assert is_valid_matching(net, m.pairs())
    assert is_maximum(net, m)


def test_reverse_chain_at_scale_pays_per_edge_not_per_level():
    # At N=10^5 the one augmenting path left after the first phases runs
    # through about 2N copies, one or two edges per BFS level. A round of
    # numpy calls per level took 2.1-5 s (2.0 GHz Xeon); the levels, walked
    # in Python, take about 0.12 s.
    n = 100_000
    u = np.arange(n)
    net = DirectedNetwork(n, np.concatenate((
        np.column_stack((u, n - 1 - u)),
        np.column_stack((u[:-1], n - 2 - u[:-1])))))
    started = time.perf_counter()
    m = maximum_matching(net, 0)
    assert time.perf_counter() - started < 1
    assert m.size == n
    assert is_maximum(net, m)


def test_edgeless_and_self_loop_only_networks():
    edgeless = DirectedNetwork(4, [])
    assert maximum_matching(edgeless, 0).size == 0
    loops = DirectedNetwork(4, [(v, v) for v in range(4)])
    for order_seed in (0, 3, -3):
        m = maximum_matching(loops, order_seed)
        assert m.match_out.tolist() == list(range(4))
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
    assert not is_maximum(dilation_net, matching_of(dilation_net, []))


def test_is_maximum_rejects_any_single_removal():
    net = random_digraph(12, 0.3, 7)
    m = maximum_matching(net, 0)
    for u in np.flatnonzero(m.match_out >= 0).tolist():
        smaller = m.match_out.copy()
        smaller[u] = -1
        assert not is_maximum(net, Matching(smaller))


def test_is_maximum_on_derived_five_node(five_node, five_node_matching):
    assert is_maximum(five_node, five_node_matching)


def test_exchange_dilation(dilation_net, dilation_matching):
    ids = dilation_net.id_of
    result = exchange(dilation_net, dilation_matching, ids("a"), ids("c"))
    assert result.replaced == ids("b")
    assert result.matching.size == 1
    assert is_maximum(dilation_net, result.matching)
    assert node_set(input_nodes(result.matching)) == {ids("b"), ids("c")}


def test_exchange_requires_input_node(path4):
    m = maximum_matching(path4, 0)
    with pytest.raises(ExchangeError):
        exchange(path4, m, 1, 0)  # node 2 is matched


def test_exchange_requires_real_in_edge(dilation_net, dilation_matching):
    with pytest.raises(ExchangeError):
        exchange(dilation_net, dilation_matching, dilation_net.id_of("a"), dilation_net.id_of("b"))


def test_exchange_star_derived():
    net = DirectedNetwork(4, [(0, 1), (0, 2), (0, 3)])  # hub feeds 3 leaves
    m = matching_of(net, [(0, 1)])
    result = exchange(net, m, 2, 0)
    assert result.replaced == 1
    assert result.matching.match_out[0] == 2


def test_exchange_detects_non_maximum_matching():
    net = DirectedNetwork(3, [(0, 1), (1, 2)])
    # node 2's in-edge (1,2) with 1 unsaturated: only possible if matching
    # is not maximum, which exchange reports as an invariant violation
    m = matching_of(net, [(0, 1)])
    with pytest.raises(InternalInvariantError):
        exchange(net, m, 2, 1)


def test_exchange_one_node_difference_everywhere():
    for seed in range(10):
        net = random_digraph(14, 0.2, seed)
        m = maximum_matching(net, 0)
        before = node_set(input_nodes(m))
        for node in sorted(before):
            partners = set()
            for via in net.predecessors(node).tolist():
                result = exchange(net, m, node, via)
                assert is_maximum(net, result.matching)
                after = node_set(input_nodes(result.matching))
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


def test_matching_arrays_are_int32_read_only_and_inverse():
    nets = [random_digraph(40, 0.08, seed) for seed in range(5)]
    nets.append(generate(GenSpec(model="sf", n=500, avg_degree=4, seed=1)))
    for net in nets:
        for order_seed in (0, 3):
            m = maximum_matching(net, order_seed)
            for array in (m.match_out, m.match_in):
                assert array.dtype == np.int32 and array.shape == (net.n,)
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = -1
            u = np.flatnonzero(m.match_out >= 0)
            v = np.flatnonzero(m.match_in >= 0)
            assert u.size == v.size == m.size
            assert np.array_equal(m.match_in[m.match_out[u]], u)
            assert np.array_equal(m.match_out[m.match_in[v]], v)
    with pytest.raises(ValueError):
        Matching(np.array([1, 1, -1]))  # two sources on one target
    with pytest.raises(ValueError):
        Matching(np.array([0, 3, -1]))  # partner out of range
    with pytest.raises(ValueError):
        Matching(np.array([2 ** 32, -1, -1]))  # out of range, 0 as int32


def test_exchange_and_saturation_plans_leave_their_matching_unchanged():
    net = generate(GenSpec(model="sf", n=400, avg_degree=3, seed=2))
    analysis = analyze(net)
    m = analysis.matching
    kept = m.match_out.copy(), m.match_in.copy()
    inputs = input_nodes(m)
    node = int(inputs[np.diff(net.in_ptr)[inputs] > 0][0])
    results = [exchange(net, m, node, int(net.predecessors(node)[0])).matching]
    report = analysis.report
    for kind, build in ((ComponentKind.IC, ic_to_smc),
                        (ComponentKind.UMC, umc_to_smc)):
        code = COMPONENT_KINDS.index(kind)
        ident = int(np.flatnonzero(report.kinds == code)[0])
        results.append(build(analysis, report.component(ident)).matching_after)
    for after in results:
        assert after is not m and not np.array_equal(after.match_out,
                                                     m.match_out)
        assert np.array_equal(m.match_out, kept[0])
        assert np.array_equal(m.match_in, kept[1])
