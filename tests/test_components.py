import networkx as nx
import numpy as np
import pytest

from netcontrol import (ComponentKind, GenSpec, analyze, build_input_graph,
                        classify_nodes, find_components, generate, input_nodes,
                        load_edge_list, maximum_matching, unsaturated_nodes)
from netcontrol.components import connected_pieces, strong_pieces
from netcontrol.network import DirectedNetwork
from netcontrol.reports import component_report_dict, round_percent

from conftest import (component_sets, matching_of, node_set, random_digraph,
                      report_for)


def members_by_labels(net, comp_of):
    return sorted(tuple(sorted(net.labels[v] for v in members))
                  for members in component_sets(comp_of))


def kinds_by_members(report):
    """Member set -> kind, over every component of ``report``."""
    return {members: report.kind(i)
            for i, members in enumerate(component_sets(report.comp_of))}


def test_dilation_components(dilation_net, dilation_matching):
    ig = build_input_graph(dilation_net, dilation_matching)
    comps = find_components(ig)
    assert members_by_labels(dilation_net, comps) == [("a", "b"), ("c",)]
    report = report_for(dilation_net, dilation_matching, ig)
    kinds = {tuple(sorted(dilation_net.labels[v] for v in members)): kind
             for members, kind in kinds_by_members(report).items()}
    assert kinds == {("a", "b"): ComponentKind.IC, ("c",): ComponentKind.IC}


def test_edgeless_graph_gives_singletons():
    net = DirectedNetwork(5, [])
    m = maximum_matching(net, 0)
    comps = component_sets(find_components(build_input_graph(net, m)))
    assert len(comps) == 5
    assert all(len(c) == 1 for c in comps)


def test_five_node_components(five_node, five_node_matching):
    ig = build_input_graph(five_node, five_node_matching)
    comps = find_components(ig)
    assert members_by_labels(five_node, comps) == \
        [("a",), ("b", "u"), ("c1",), ("w",)]


def test_path_tail_components_are_smc(path4):
    m = maximum_matching(path4, 0)
    report = report_for(path4, m)
    kinds = {tuple(sorted(members)): kind
             for members, kind in kinds_by_members(report).items()}
    assert kinds == {(0,): ComponentKind.IC, (1,): ComponentKind.SMC,
                     (2,): ComponentKind.SMC, (3,): ComponentKind.SMC}


def test_confluence_has_umc(confluence):
    m = maximum_matching(confluence, 0)
    report = report_for(confluence, m)
    sink = confluence.id_of("3")
    assert report.kind(report.comp_of[sink]) is ComponentKind.UMC


def test_component_ids_deterministic_by_smallest_member(five_node,
                                                        five_node_matching):
    comp_of = find_components(build_input_graph(five_node, five_node_matching))
    comps = component_sets(comp_of)
    assert sorted(set(comp_of.tolist())) == [0, 1, 2, 3]
    assert [min(c) for c in comps] == sorted(min(c) for c in comps)


def test_report_dilation(dilation_net, dilation_matching):
    report = report_for(dilation_net, dilation_matching)
    mis_size = input_nodes(dilation_matching).size
    assert mis_size == 2
    assert round_percent(mis_size / dilation_net.n) == 66.67
    assert round_percent(report.cc_max_fraction) == 66.67
    assert report.kind(report.cc_max) is ComponentKind.IC
    assert sum(map(len, component_sets(report.comp_of))) == dilation_net.n
    assert report.sizes.sum() == dilation_net.n


def test_report_single_isolated_node():
    net = DirectedNetwork(1, [])
    m = maximum_matching(net, 0)
    report = report_for(net, m)
    assert input_nodes(m).size == 1
    assert report.kind(report.cc_max) is ComponentKind.IC


def test_perfect_matching_report(two_cycle):
    analysis = analyze(two_cycle)
    census = component_report_dict(analysis, include_members=False)
    assert census["perfectly_matched"]
    assert census["mis_size"] == 0
    report = analysis.report
    assert all(report.kind(i) is ComponentKind.SMC
               for i in range(report.component_count))


def test_cc_max_tie_breaks_toward_ic(confluence):
    # components {1}, {2}, {3} all size 1; kinds IC, IC, UMC -> pick IC id 0
    m = maximum_matching(confluence, 0)
    report = report_for(confluence, m)
    assert report.kind(report.cc_max) is ComponentKind.IC
    assert report.cc_max == 0


def test_sizes_sum_and_purity_random():
    for seed in range(25):
        net = random_digraph(15, 0.2, seed)
        m = maximum_matching(net, 0)
        ig = build_input_graph(net, m)
        report = report_for(net, m, ig)
        linked = {x for u in unsaturated_nodes(m).tolist()
                  for x in net.successors(u).tolist()}
        possible = node_set(ig.possible_inputs)
        comps = component_sets(report.comp_of)
        assert sum(map(len, comps)) == net.n
        assert report.sizes.tolist() == list(map(len, comps))
        for ident, members in enumerate(comps):
            inside = members <= possible
            outside = members.isdisjoint(possible)
            assert inside or outside
            assert (report.kind(ident) is ComponentKind.IC) == inside
            # an IC linked by an unsaturated node would augment the matching
            assert not (inside and not members.isdisjoint(linked))


def matching_independent_facts(net, m):
    """Classes, the IC partition and each node's kind under matching ``m``."""
    ig = build_input_graph(net, m)
    report = report_for(net, m, ig)
    kind_of = [report.kind(i) for i in report.comp_of.tolist()]
    ics = {members for members, kind in kinds_by_members(report).items()
           if kind is ComponentKind.IC}
    return classify_nodes(ig).tolist(), ics, kind_of


def mc_partition(net, m):
    return {members for members, kind
            in kinds_by_members(report_for(net, m)).items()
            if kind is not ComponentKind.IC}


def test_kinds_stable_across_matching_seeds():
    # The MC partition may differ between maximum matchings (see
    # test_mc_partition_depends_on_the_matching); these facts may not.
    for seed in range(8):
        net = random_digraph(14, 0.25, seed)
        reference = matching_independent_facts(net, maximum_matching(net, 0))
        for order_seed in range(1, 5):
            m = maximum_matching(net, order_seed)
            assert matching_independent_facts(net, m) == reference


@pytest.mark.parametrize("model", ["er", "sf"])
@pytest.mark.parametrize("k", [2, 4, 6, 10])
def test_kinds_stable_across_matching_seeds_at_scale(model, k):
    net = generate(GenSpec(model=model, n=2000, avg_degree=k, seed=k))
    reference = matching_independent_facts(net, maximum_matching(net, 0))
    for order_seed in (1, 2, 3, 4, -3):
        m = maximum_matching(net, order_seed)
        assert matching_independent_facts(net, m) == reference


def test_mc_partition_depends_on_the_matching():
    net = load_edge_list("p x\nq x\nq y\nr y\n")
    p, q, r, x, y = map(net.id_of, "pqrxy")
    via_q = matching_of(net, [(p, x), (q, y)])
    via_r = matching_of(net, [(p, x), (r, y)])
    assert (matching_independent_facts(net, via_q)
            == matching_independent_facts(net, via_r))
    assert mc_partition(net, via_q) == {frozenset({x, y})}
    assert mc_partition(net, via_r) == {frozenset({x}), frozenset({y})}


def test_strong_pieces_match_networkx_random():
    # 250 digraphs of 1-60 nodes; every tenth has no edge, the others hold
    # repeated edges, self-loops, 2-cycles and nodes without any edge
    seen = {"self-loop": 0, "2-cycle": 0, "isolated": 0, "no edge": 0}
    for seed in range(250):
        rng = np.random.default_rng(seed)
        n = 1 + seed % 60
        count = 0 if seed % 10 == 0 else int(rng.integers(1, 2 * n + 2))
        src = rng.integers(0, n, count).astype(np.int32)
        dst = rng.integers(0, n, count).astype(np.int32)
        back = rng.random(count) < 0.2
        src, dst = (np.concatenate((src, dst[back])),
                    np.concatenate((dst, src[back])))
        g = nx.DiGraph()
        g.add_nodes_from(range(n))
        g.add_edges_from(zip(src.tolist(), dst.tolist()))
        expected = np.empty(n, dtype=np.int64)
        for piece in nx.strongly_connected_components(g):
            expected[list(piece)] = min(piece)
        got = strong_pieces(n, src, dst)
        assert got.dtype == np.int32
        assert np.array_equal(got, expected)
        seen["self-loop"] += bool(nx.number_of_selfloops(g))
        seen["2-cycle"] += any(u != v and g.has_edge(v, u)
                               for u, v in g.edges)
        seen["isolated"] += any(g.degree(v) == 0 for v in g)
        seen["no edge"] += not count
    assert min(seen.values()) >= 20, seen


def test_connected_pieces_match_networkx_random():
    # 250 graphs of 1-60 nodes; every tenth has no edge, the others hold
    # self-loops, repeated edges (some reversed) and nodes without any edge
    seen = {"self-loop": 0, "repeat": 0, "isolated": 0, "no edge": 0}
    for seed in range(250):
        rng = np.random.default_rng(seed)
        n = 1 + seed % 60
        count = 0 if seed % 10 == 0 else int(rng.integers(1, 2 * n + 2))
        src = rng.integers(0, n, count).astype(np.int32)
        dst = rng.integers(0, n, count).astype(np.int32)
        again = rng.random(count) < 0.2
        flip = rng.random(count) < 0.5
        src, dst = (np.concatenate((src, np.where(flip, dst, src)[again])),
                    np.concatenate((dst, np.where(flip, src, dst)[again])))
        g = nx.MultiGraph()
        g.add_nodes_from(range(n))
        g.add_edges_from(zip(src.tolist(), dst.tolist()))
        expected = np.empty(n, dtype=np.int64)
        for piece in nx.connected_components(g):
            expected[list(piece)] = min(piece)
        given = src.copy(), dst.copy()
        got = connected_pieces(n, src, dst)
        assert got.dtype == np.int32
        assert np.array_equal(got, expected)
        assert np.array_equal(src, given[0]) and np.array_equal(dst, given[1])
        seen["self-loop"] += bool(nx.number_of_selfloops(g))
        seen["repeat"] += g.number_of_edges() > nx.Graph(g).number_of_edges()
        seen["isolated"] += any(g.degree(v) == 0 for v in g)
        seen["no edge"] += not count
    assert min(seen.values()) >= 20, seen


def adversarial_graph(shape: str, n: int):
    """Edge arrays of a connected graph on ``0..n-1`` whose ids run against
    the hooking order: a path visiting them ascending, descending or
    zig-zag (0, n-1, 1, n-2, ...), a star whose centre has the highest id,
    or a chain of 2-cycles (each pair joined both ways) with falling ids."""
    ids = np.arange(n, dtype=np.int32)
    if shape == "star":
        return np.full(n - 1, n - 1, dtype=np.int32), ids[:-1]
    if shape == "2-cycles":
        ids = ids[::-1]
        pairs = np.column_stack((ids[0::2], ids[1::2]))
        return (np.concatenate((pairs[:, 0], pairs[:, 1], pairs[:-1, 1])),
                np.concatenate((pairs[:, 1], pairs[:, 0], pairs[1:, 0])))
    order = {"ascending": ids, "descending": ids[::-1],
             "zig-zag": np.column_stack((ids[:n // 2],
                                         ids[::-1][:n // 2])).ravel()}[shape]
    return order[:-1], order[1:]


@pytest.mark.parametrize("shape", ["ascending", "descending", "zig-zag",
                                   "star", "2-cycles"])
def test_connected_pieces_adversarial_id_orders(shape):
    import time
    n = 100_000
    src, dst = adversarial_graph(shape, n)
    started = time.perf_counter()
    lowest = connected_pieces(n, src, dst)
    assert time.perf_counter() - started < 5.0  # about 0.02 s
    assert not lowest.any()


def test_round_percent_half_away_from_zero():
    assert round_percent(0.13185) == 13.19
    assert round_percent(29 / 122) == 23.77
    assert round_percent(21 / 122) == 17.21
    assert round_percent(0.999999) == 100.0
    assert round_percent(0.0049995) == 0.5


def test_analysis_derives_each_node_set_once(five_node):
    import sys
    from collections import Counter

    from netcontrol import analyze, matching, network, reports
    counted = {matching.input_nodes.__code__: "input_nodes",
               matching.unsaturated_nodes.__code__: "unsaturated_nodes",
               network.DirectedNetwork.self_loop_count.__code__:
                   "self_loop_count"}
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in counted:
            calls[counted[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        reports.analysis_record(analyze(five_node))
    finally:
        sys.setprofile(None)
    assert calls == Counter(counted.values())
