import numpy as np
import pytest

from netcontrol import (AlterationError, ComponentKind,
                        InsufficientInputNodesError, analyze, is_maximum,
                        load_edge_list)
from netcontrol.alteration import (alteration_report, apply_plan, ic_to_smc,
                                   plan_attains_goal, smc_to_ic_full,
                                   smc_to_ic_single, umc_to_smc)
from conftest import class_names, node_set, random_digraph, report_for


def component_of(analysis, node):
    report = analysis.report
    return report.component(int(report.comp_of[node]))


def components(analysis, kind=None):
    """Every component of ``analysis`` (of ``kind`` if given), by id."""
    report = analysis.report
    comps = map(report.component, range(report.component_count))
    return [c for c in comps if kind is None or c.kind is kind]


def largest_of(analysis, kind):
    pool = components(analysis, kind)
    assert pool, f"no {kind.value} component"
    return min(pool, key=lambda c: (-c.size, c.id))


def possible_input(analysis, v):
    return class_names(analysis.classes)[v].possible_input


def reanalyzed(net, plan):
    return analyze(apply_plan(net, plan))


def test_ic_to_smc_dilation(dilation_net):
    before = analyze(dilation_net)
    comp = component_of(before, dilation_net.id_of("a"))
    assert comp.kind is ComponentKind.IC
    plan = ic_to_smc(dilation_net, before.matching, comp)
    assert len(plan.additions) == 1
    assert plan.additions[0].reason == "saturate_input"
    assert plan.mis_after == plan.mis_before - 1
    assert is_maximum(apply_plan(dilation_net, plan), plan.matching_after)
    after = reanalyzed(dilation_net, plan)
    plan = alteration_report(before, after, plan)
    assert plan_attains_goal(plan, after)
    for v in comp.members.tolist():
        assert not possible_input(after, v)


def test_ic_to_smc_requires_ic(confluence):
    before = analyze(confluence)
    umc = largest_of(before, ComponentKind.UMC)
    with pytest.raises(AlterationError):
        ic_to_smc(confluence, before.matching, umc)


def test_umc_to_smc_confluence(confluence):
    ids = confluence.id_of
    before = analyze(confluence)
    comp = component_of(before, ids("3"))
    plan = umc_to_smc(confluence, before.matching, comp)
    assert [(a.src, a.dst) for a in plan.additions] == [(ids("2"), ids("1"))]
    assert plan.additions[0].reason == "saturate_unsaturated"
    after = reanalyzed(confluence, plan)
    plan = alteration_report(before, after, plan)
    assert plan.p == pytest.approx(0.5)
    assert plan.delta_n_d == pytest.approx(1 / 3)
    assert (plan.mis_before, plan.mis_after) == (2, 1)
    assert plan_attains_goal(plan, after)
    assert component_of(after, ids("3")).kind is ComponentKind.SMC


def test_umc_to_smc_skips_nonlinking_unsaturated_member(confluence):
    # node 3 is an unsaturated member without out-edges; saturating it is
    # unnecessary, so exactly one edge is planned
    before = analyze(confluence)
    comp = component_of(before, confluence.id_of("3"))
    plan = umc_to_smc(confluence, before.matching, comp)
    assert len(plan.additions) == 1


def test_umc_to_smc_requires_umc(path4):
    before = analyze(path4)
    smc = largest_of(before, ComponentKind.SMC)
    with pytest.raises(AlterationError):
        umc_to_smc(path4, before.matching, smc)


def test_umc_to_smc_insufficient_inputs():
    # matched 2-cycle plus a dangling linker: u is both the only input and
    # the only unsaturated node, so no receiver remains for it
    net = load_edge_list("x y\ny x\nu x\n")
    before = analyze(net)
    assert node_set(before.input_set) == {net.id_of("u")}
    comp = component_of(before, net.id_of("x"))
    assert comp.kind is ComponentKind.UMC
    with pytest.raises(InsufficientInputNodesError) as exc_info:
        umc_to_smc(net, before.matching, comp)
    assert exc_info.value.partial_additions == ()


def test_smc_to_ic_single_five_node(five_node, five_node_matching):
    ids = five_node.id_of
    before = analyze(five_node)
    # pin the worked matching rather than the seed-0 one
    from netcontrol import build_input_graph
    ig = build_input_graph(five_node, five_node_matching)
    report = report_for(five_node, five_node_matching, ig)
    comp = report.component(int(report.comp_of[ids("a")]))
    assert comp.kind is ComponentKind.SMC
    plan = smc_to_ic_single(five_node, five_node_matching, comp, ig=ig)
    assert len(plan.additions) == 1
    addition = plan.additions[0]
    assert addition.reason == "adjacency_link"
    assert addition.src == ids("w")          # matched predecessor of a
    assert addition.dst == ids("c1")         # lowest-id input node
    assert plan.matching_after == five_node_matching
    net2 = apply_plan(five_node, plan)
    assert is_maximum(net2, five_node_matching)
    after = analyze(net2)
    assert possible_input(after, ids("a"))


def test_smc_to_ic_requires_smc(confluence):
    before = analyze(confluence)
    umc = largest_of(before, ComponentKind.UMC)
    with pytest.raises(AlterationError):
        smc_to_ic_single(confluence, before.matching, umc)


def test_smc_to_ic_requires_an_input_node(two_cycle):
    before = analyze(two_cycle)
    smc = largest_of(before, ComponentKind.SMC)
    with pytest.raises(AlterationError, match="no input node"):
        smc_to_ic_single(two_cycle, before.matching, smc,
                         ig=before.input_graph)


def test_direct_link_to_umc_creates_augmenting_path(confluence):
    """Forcing an adjacency link at a UMC invalidates the matching: the new
    edge opens an augmenting path through the unsaturated linker."""
    ids = confluence.id_of
    before = analyze(confluence)
    m = before.matching
    node = ids("3")
    pred = int(m.match_in[node])
    receiver = next(d for d in before.input_set.tolist()
                    if d != pred and not confluence.has_edge(pred, d))
    forced = confluence.with_edges([(pred, receiver)])
    assert not is_maximum(forced, m)


def test_smc_to_ic_full_covers_every_member():
    net = load_edge_list("s a\ns b\nx a\nx y\ny b\n")
    analysis = analyze(net)
    smcs = components(analysis, ComponentKind.SMC)
    assert smcs
    for comp in smcs:
        plan = smc_to_ic_full(net, analysis.matching, comp,
                              ig=analysis.input_graph)
        after = reanalyzed(net, plan)
        assert plan_attains_goal(plan, after)
        assert all(possible_input(after, v) for v in comp.members.tolist())


def test_smc_to_ic_on_chain_tails(path4):
    before = analyze(path4)
    smcs = components(before, ComponentKind.SMC)
    assert [c.members.tolist() for c in smcs] == [[1], [2], [3]]
    # the head is the only input node AND the matched predecessor of node 1,
    # so that member admits no link edge (it would be a self-loop)
    with pytest.raises(AlterationError, match="no feasible addition"):
        smc_to_ic_full(path4, before.matching, smcs[0], ig=before.input_graph)
    for comp in smcs[1:]:
        plan = smc_to_ic_full(path4, before.matching, comp,
                              ig=before.input_graph)
        assert len(plan.additions) == 1
        after = reanalyzed(path4, plan)
        assert all(possible_input(after, v) for v in comp.members.tolist())


def test_identity_plan_metrics(dilation_net):
    before = analyze(dilation_net)
    after = analyze(dilation_net)
    comp = largest_of(before, ComponentKind.IC)
    plan = ic_to_smc(dilation_net, before.matching, comp)
    identity = plan.__class__(
        target_component_id=comp.id, requested_kind=plan.requested_kind,
        additions=(), matching_after=before.matching,
        affected=np.zeros(0, dtype=np.int64),
        mis_before=plan.mis_before, mis_after=plan.mis_before)
    filled = alteration_report(before, after, identity)
    assert filled.p == 0.0
    assert filled.delta_n_d == 0.0


def test_saturation_plans_keep_matchings_maximum_random():
    checked = 0
    for seed in range(30):
        net = random_digraph(12, 0.2, seed)
        before = analyze(net)
        for kind, op in ((ComponentKind.IC, ic_to_smc),
                         (ComponentKind.UMC, umc_to_smc)):
            pool = components(before, kind)
            if not pool:
                continue
            comp = min(pool, key=lambda c: (-c.size, c.id))
            try:
                plan = op(net, before.matching, comp)
            except AlterationError:
                continue
            net2 = apply_plan(net, plan)
            assert is_maximum(net2, plan.matching_after)
            assert plan.mis_after < plan.mis_before
            after = analyze(net2)
            plan = alteration_report(before, after, plan)
            assert plan_attains_goal(plan, after)
            checked += 1
    assert checked >= 20


def test_adjacency_plans_flip_closures_random():
    checked = 0
    for seed in range(30):
        net = random_digraph(12, 0.2, seed)
        before = analyze(net)
        pool = components(before, ComponentKind.SMC)
        if not pool or not before.input_set.size:
            continue
        comp = min(pool, key=lambda c: (-c.size, c.id))
        try:
            plan = smc_to_ic_full(net, before.matching, comp,
                                  ig=before.input_graph)
        except AlterationError:
            continue  # sole input node coincides with a matched predecessor
        net2 = apply_plan(net, plan)
        assert is_maximum(net2, before.matching)
        after = analyze(net2)
        plan = alteration_report(before, after, plan)
        assert plan.mis_after == plan.mis_before
        assert plan_attains_goal(plan, after)
        assert all(possible_input(after, v) for v in comp.members.tolist())
        checked += 1
    assert checked >= 10


def test_closure_masks_match_bfs_reachability():
    """SCC-condensed closure masks agree with plain forward BFS."""
    from netcontrol import control_reachable_from
    from netcontrol.alteration import _closure_masks
    for seed in range(15):
        net = random_digraph(14, 0.25, seed)
        analysis = analyze(net)
        for comp in components(analysis):
            masks = _closure_masks(analysis.input_graph, comp)
            members = comp.members.tolist()
            for node in members:
                expected = node_set(control_reachable_from(
                    analysis.input_graph, node)) & set(members)
                got = {members[i] for i in range(len(members))
                       if masks[node] >> i & 1}
                assert got == expected


def eager_cover_plan(net, m, comp, closures):
    """Reference: the eager greedy cover, re-scanning every member per pick,
    and its link edges. Returns ``(chosen, additions)``; ``additions`` is
    None when some chosen member admits no link edge."""
    members = comp.members.tolist()
    uncovered = (1 << len(members)) - 1
    chosen = []
    while uncovered:
        best = max(members,
                   key=lambda v: ((closures[v] & uncovered).bit_count(), -v))
        chosen.append(best)
        uncovered &= ~closures[best]
    match_in = m.match_in.tolist()
    receivers = [v for v in range(net.n) if match_in[v] < 0]
    additions = []
    for node in chosen:
        pred = match_in[node]
        dst = next((d for d in receivers
                    if d != pred and not net.has_edge(pred, d)
                    and (pred, d) not in additions), None)
        if dst is None:
            return chosen, None
        additions.append((pred, dst))
    return chosen, additions


def test_smc_to_ic_full_matches_eager_greedy_random():
    from netcontrol.alteration import _closure_masks
    compared = multi_pick = 0
    for seed in range(200):
        n = 12 + seed % 49
        net = random_digraph(n, (1 + seed % 5) / n, seed)
        analysis = analyze(net)
        m = analysis.matching
        for comp in components(analysis, ComponentKind.SMC):
            closures = _closure_masks(analysis.input_graph, comp)
            chosen, additions = eager_cover_plan(net, m, comp, closures)
            if additions is None:
                with pytest.raises(AlterationError):
                    smc_to_ic_full(net, m, comp, ig=analysis.input_graph)
                continue
            plan = smc_to_ic_full(net, m, comp, ig=analysis.input_graph)
            assert m.match_out[[a.src for a in plan.additions]].tolist() \
                == chosen
            assert list(plan.edge_labels) == additions
            assert np.array_equal(plan.affected, comp.members)
            compared += 1
            multi_pick += len(chosen) > 1
    assert compared >= 400 and multi_pick >= 25


def test_smc_to_ic_full_breaks_ties_to_lowest_id():
    # a and b close over each other (a -> b via c2, b -> a via c1), so both
    # closures are {a, b}; the cover must pick a, the lower id, and link
    # a's matched predecessor c1.
    net = load_edge_list("c1 a\nc1 b\nc2 a\nc2 b\n")
    analysis = analyze(net)
    ids = net.id_of
    comp = component_of(analysis, ids("a"))
    assert comp.kind is ComponentKind.SMC
    assert node_set(comp.members) == {ids("a"), ids("b")}
    plan = smc_to_ic_full(net, analysis.matching, comp,
                          ig=analysis.input_graph)
    assert plan.edge_labels == ((ids("c1"), ids("c2")),)
    assert np.array_equal(plan.affected, comp.members)
