from netcontrol import (ComponentKind, Matching, build_input_graph,
                        classify_nodes, find_components, load_edge_list,
                        maximum_matching, unsaturated_nodes)
from netcontrol.network import DirectedNetwork
from netcontrol.reports import round_percent

from conftest import random_digraph, report_for


def members_by_labels(net, comps):
    return sorted(tuple(sorted(net.labels[v] for v in c.members)) for c in comps)


def test_dilation_components(dilation_net, dilation_matching):
    ig = build_input_graph(dilation_net, dilation_matching)
    comps = find_components(ig)
    assert members_by_labels(dilation_net, comps) == [("a", "b"), ("c",)]
    report = report_for(dilation_net, dilation_matching, ig)
    kinds = {tuple(sorted(dilation_net.labels[v] for v in c.members)): c.kind
             for c in report.components}
    assert kinds == {("a", "b"): ComponentKind.IC, ("c",): ComponentKind.IC}


def test_edgeless_graph_gives_singletons():
    net = DirectedNetwork(5, [])
    m = maximum_matching(net, 0)
    comps = find_components(build_input_graph(net, m))
    assert len(comps) == 5
    assert all(c.size == 1 for c in comps)


def test_five_node_components(five_node, five_node_matching):
    ig = build_input_graph(five_node, five_node_matching)
    comps = find_components(ig)
    assert members_by_labels(five_node, comps) == \
        [("a",), ("b", "u"), ("c1",), ("w",)]


def test_path_tail_components_are_smc(path4):
    m = maximum_matching(path4, 0)
    report = report_for(path4, m)
    kinds = {tuple(c.sorted_members()): c.kind for c in report.components}
    assert kinds == {(0,): ComponentKind.IC, (1,): ComponentKind.SMC,
                     (2,): ComponentKind.SMC, (3,): ComponentKind.SMC}


def test_confluence_has_umc(confluence):
    m = maximum_matching(confluence, 0)
    report = report_for(confluence, m)
    sink = confluence.id_of("3")
    comp = next(c for c in report.components if sink in c.members)
    assert comp.kind is ComponentKind.UMC


def test_component_ids_deterministic_by_smallest_member(five_node,
                                                        five_node_matching):
    comps = find_components(build_input_graph(five_node, five_node_matching))
    assert [c.id for c in comps] == [0, 1, 2, 3]
    assert [min(c.members) for c in comps] == sorted(min(c.members)
                                                     for c in comps)


def test_report_dilation(dilation_net, dilation_matching):
    report = report_for(dilation_net, dilation_matching)
    assert report.mis_size == 2
    assert round_percent(report.n_mis_fraction) == 66.67
    assert round_percent(report.cc_max_fraction) == 66.67
    assert report.cc_max.kind is ComponentKind.IC
    assert sum(c.size for c in report.components) == dilation_net.n


def test_report_single_isolated_node():
    net = DirectedNetwork(1, [])
    m = maximum_matching(net, 0)
    report = report_for(net, m)
    assert report.mis_size == 1
    assert round_percent(report.n_mis_fraction) == 100.0
    assert report.cc_max.kind is ComponentKind.IC


def test_perfect_matching_report(two_cycle):
    m = maximum_matching(two_cycle, 0)
    report = report_for(two_cycle, m)
    assert report.perfectly_matched
    assert report.mis_size == 0
    assert all(c.kind is ComponentKind.SMC for c in report.components)


def test_cc_max_tie_breaks_toward_ic(confluence):
    # components {1}, {2}, {3} all size 1; kinds IC, IC, UMC -> pick IC id 0
    m = maximum_matching(confluence, 0)
    report = report_for(confluence, m)
    assert report.cc_max.kind is ComponentKind.IC
    assert report.cc_max.id == 0


def test_sizes_sum_and_purity_random():
    for seed in range(25):
        net = random_digraph(15, 0.2, seed)
        m = maximum_matching(net, 0)
        ig = build_input_graph(net, m)
        report = report_for(net, m, ig)
        linked = {x for u in unsaturated_nodes(net, m)
                  for x in net.successors(u).tolist()}
        assert sum(c.size for c in report.components) == net.n
        for comp in report.components:
            inside = comp.members <= ig.possible_inputs
            outside = comp.members.isdisjoint(ig.possible_inputs)
            assert inside or outside
            assert (comp.kind is ComponentKind.IC) == inside
            # an IC linked by an unsaturated node would augment the matching
            assert not (inside and not comp.members.isdisjoint(linked))


def matching_independent_facts(net, m):
    """Classes, the IC partition and each node's kind under matching ``m``."""
    ig = build_input_graph(net, m)
    report = report_for(net, m, ig)
    kind_of = {v: c.kind for c in report.components for v in c.members}
    ics = {c.members for c in report.components if c.kind is ComponentKind.IC}
    return classify_nodes(ig), ics, kind_of


def mc_partition(net, m):
    return {c.members for c in report_for(net, m).components
            if c.kind is not ComponentKind.IC}


def test_kinds_stable_across_matching_seeds():
    # The MC partition may differ between maximum matchings (see
    # test_mc_partition_depends_on_the_matching); these facts may not.
    for seed in range(8):
        net = random_digraph(14, 0.25, seed)
        reference = matching_independent_facts(net, maximum_matching(net, 0))
        for order_seed in range(1, 5):
            m = maximum_matching(net, order_seed)
            assert matching_independent_facts(net, m) == reference


def test_mc_partition_depends_on_the_matching():
    net = load_edge_list("p x\nq x\nq y\nr y\n")
    p, q, r, x, y = map(net.id_of, "pqrxy")
    via_q = Matching.from_pairs(net, [(p, x), (q, y)])
    via_r = Matching.from_pairs(net, [(p, x), (r, y)])
    assert (matching_independent_facts(net, via_q)
            == matching_independent_facts(net, via_r))
    assert mc_partition(net, via_q) == {frozenset({x, y})}
    assert mc_partition(net, via_r) == {frozenset({x}), frozenset({y})}


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
