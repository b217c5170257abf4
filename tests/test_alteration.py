import networkx as nx
import numpy as np
import pytest

from netcontrol import (AlterationError, ComponentKind, DirectedNetwork,
                        GenSpec, Matching, NotMaximumMatchingError, analyze,
                        generate, is_maximum, load_edge_list)
from netcontrol.alteration import (_first_receivers, alteration_report,
                                   apply_plan, ic_to_smc, plan_attains_goal,
                                   smc_to_ic_full, smc_to_ic_single,
                                   umc_to_smc)
from netcontrol.components import strong_pieces
from conftest import class_names, closure_masks, node_set, random_digraph


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


def node_kinds(analysis):
    return analysis.report.kinds[analysis.report.comp_of]


def planned_analysis(net, before, plan):
    """The altered network's analysis under ``plan.matching_after``, checked
    against a fresh search on that network."""
    net2 = apply_plan(net, plan)
    given = analyze(net2, matching=plan.matching_after)
    fresh = analyze(net2)
    assert np.array_equal(given.classes, fresh.classes)
    assert np.array_equal(given.input_graph.possible_inputs,
                          fresh.input_graph.possible_inputs)
    assert np.array_equal(node_kinds(given), node_kinds(fresh))
    assert plan.additions.dtype == np.int32
    assert not plan.additions.flags.writeable
    # saturation matches each addition's target; links match nothing new
    matched = plan.additions[:, 1] if plan.reason != "adjacency_link" else []
    assert np.array_equal(given.input_set,
                          np.setdiff1d(before.input_set, matched))
    pairs = given.matching.pairs()
    assert all(net2.has_edge(u, v) for u, v in pairs)
    if pairs:  # the dropped pair's edge is then an augmenting path
        match_out = plan.matching_after.match_out.copy()
        match_out[pairs[0][0]] = -1
        with pytest.raises(NotMaximumMatchingError):
            analyze(net2, matching=Matching(match_out))
    return given


def test_ic_to_smc_dilation(dilation_net):
    before = analyze(dilation_net)
    comp = component_of(before, dilation_net.id_of("a"))
    assert comp.kind is ComponentKind.IC
    plan = ic_to_smc(before, comp)
    assert len(plan.additions) == 1
    assert plan.reason == "saturate_input"
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
        ic_to_smc(before, umc)


def test_umc_to_smc_confluence(confluence):
    ids = confluence.id_of
    before = analyze(confluence)
    comp = component_of(before, ids("3"))
    plan = umc_to_smc(before, comp)
    assert plan.additions.tolist() == [[ids("2"), ids("1")]]
    assert plan.reason == "saturate_unsaturated"
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
    plan = umc_to_smc(before, comp)
    assert len(plan.additions) == 1


def test_umc_to_smc_requires_umc(path4):
    before = analyze(path4)
    smc = largest_of(before, ComponentKind.SMC)
    with pytest.raises(AlterationError):
        umc_to_smc(before, smc)


def test_umc_to_smc_insufficient_inputs():
    # matched 2-cycle plus a dangling linker: u is both the only input and
    # the only unsaturated node, so no receiver remains for it
    net = load_edge_list("x y\ny x\nu x\n")
    before = analyze(net)
    assert node_set(before.input_set) == {net.id_of("u")}
    comp = component_of(before, net.id_of("x"))
    assert comp.kind is ComponentKind.UMC
    with pytest.raises(AlterationError, match="insufficient input nodes"):
        umc_to_smc(before, comp)


def test_smc_to_ic_single_five_node(five_node, five_node_matching):
    ids = five_node.id_of
    # pin the worked matching rather than the seed-0 one
    before = analyze(five_node, matching=five_node_matching)
    comp = component_of(before, ids("a"))
    assert comp.kind is ComponentKind.SMC
    plan = smc_to_ic_single(before, comp)
    assert len(plan.additions) == 1
    src, dst = plan.additions[0].tolist()
    assert plan.reason == "adjacency_link"
    assert src == ids("w")          # matched predecessor of a
    assert dst == ids("c1")         # lowest-id input node
    assert plan.matching_after == five_node_matching
    net2 = apply_plan(five_node, plan)
    assert is_maximum(net2, five_node_matching)
    after = analyze(net2)
    assert possible_input(after, ids("a"))


def test_smc_to_ic_requires_smc(confluence):
    before = analyze(confluence)
    umc = largest_of(before, ComponentKind.UMC)
    with pytest.raises(AlterationError):
        smc_to_ic_single(before, umc)


def test_smc_to_ic_requires_an_input_node(two_cycle):
    before = analyze(two_cycle)
    smc = largest_of(before, ComponentKind.SMC)
    with pytest.raises(AlterationError, match="no input node"):
        smc_to_ic_single(before, smc)


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
        plan = smc_to_ic_full(analysis, comp)
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
        smc_to_ic_full(before, smcs[0])
    for comp in smcs[1:]:
        plan = smc_to_ic_full(before, comp)
        assert len(plan.additions) == 1
        after = reanalyzed(path4, plan)
        assert all(possible_input(after, v) for v in comp.members.tolist())


def test_link_skips_a_pred_that_is_the_lowest_input_node():
    # p is x's matched predecessor and the lowest input node; q is next
    net = load_edge_list("p x\nx y\nq z\n")
    before = analyze(net)
    ids = net.id_of
    assert before.input_set.tolist() == [ids("p"), ids("q")]
    comp = component_of(before, ids("x"))
    assert comp.kind is ComponentKind.SMC
    plan = smc_to_ic_full(before, comp)
    assert plan.additions.tolist() == [[ids("p"), ids("q")]]


def test_link_without_a_feasible_receiver():
    net = load_edge_list("p x\n")  # p, x's predecessor, is the only input
    before = analyze(net)
    x = net.id_of("x")
    with pytest.raises(AlterationError,
                       match=f"^no feasible addition for member {x}$"):
        smc_to_ic_full(before, component_of(before, x))


def test_first_receivers_skip_the_pred_and_its_successors():
    # node 0 links to receivers 1 and 2; node 3 links to node 5 only
    net = DirectedNetwork(6, [(0, 1), (0, 2), (3, 5)])
    receivers = np.array([0, 1, 2, 4])
    preds = np.array([0, 3, 1, 0], dtype=np.int32)
    assert _first_receivers(net, preds, receivers).tolist() == [3, 0, 0, 3]
    # with 4 gone, node 0 has no receiver left: the count of receivers
    assert _first_receivers(net, preds, receivers[:3]).tolist() == [3, 0, 0, 3]
    assert _first_receivers(net, preds[:0], receivers).size == 0


def test_identity_plan_metrics(dilation_net):
    before = analyze(dilation_net)
    after = analyze(dilation_net)
    comp = largest_of(before, ComponentKind.IC)
    plan = ic_to_smc(before, comp)
    identity = plan.__class__(
        target_component_id=comp.id, requested_kind=plan.requested_kind,
        additions=np.zeros((0, 2), dtype=np.int32), reason=plan.reason,
        matching_after=before.matching,
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
                plan = op(before, comp)
            except AlterationError:
                continue
            assert plan.mis_after < plan.mis_before
            after = planned_analysis(net, before, plan)
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
        for op in (smc_to_ic_full, smc_to_ic_single):
            try:
                plan = op(before, comp)
            except AlterationError:
                continue  # sole input node is a matched predecessor
            assert plan.matching_after == before.matching
            after = planned_analysis(net, before, plan)
            plan = alteration_report(before, after, plan)
            assert plan.mis_after == plan.mis_before
            assert plan_attains_goal(plan, after)
            assert all(possible_input(after, v) for v in plan.affected.tolist())
            checked += 1
    assert checked >= 20


def test_strong_pieces_match_bfs_reachability():
    """Two members share a strongly connected piece of their component's
    adjacency graph exactly when each reaches the other by plain BFS, and
    the piece's label is its lowest member index."""
    for seed in range(15):
        net = random_digraph(14, 0.25, seed)
        analysis = analyze(net)
        ig = analysis.input_graph
        for comp in components(analysis):
            masks = list(closure_masks(ig, comp).values())
            inside = np.isin(ig.src, comp.members)
            piece = strong_pieces(
                comp.size, np.searchsorted(comp.members, ig.src[inside]),
                np.searchsorted(comp.members, ig.dst[inside])).tolist()
            for i in range(comp.size):
                assert piece[piece[i]] == piece[i] <= i
                for j in range(comp.size):
                    mutual = masks[i] >> j & masks[j] >> i & 1
                    assert (piece[i] == piece[j]) == bool(mutual)


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


def random_smcs():
    """``(net, analysis, comp)`` for every SMC of 200 small random digraphs."""
    for seed in range(200):
        n = 12 + seed % 49
        net = random_digraph(n, (1 + seed % 5) / n, seed)
        analysis = analyze(net)
        for comp in components(analysis, ComponentKind.SMC):
            yield net, analysis, comp


def test_smc_to_ic_full_matches_eager_greedy_random():
    # the same picks and links as the eager greedy, listed by ascending pick
    compared = multi_pick = 0
    for net, analysis, comp in random_smcs():
        m = analysis.matching
        closures = closure_masks(analysis.input_graph, comp)
        chosen, additions = eager_cover_plan(net, m, comp, closures)
        if additions is None:
            with pytest.raises(AlterationError):
                smc_to_ic_full(analysis, comp)
            continue
        plan = smc_to_ic_full(analysis, comp)
        assert m.match_out[plan.additions[:, 0]].tolist() == sorted(chosen)
        link_of = dict(zip(chosen, additions))
        assert list(map(tuple, plan.additions.tolist())) == [
            link_of[v] for v in sorted(chosen)]
        assert np.array_equal(plan.affected, comp.members)
        compared += 1
        multi_pick += len(chosen) > 1
    assert compared >= 400 and multi_pick >= 25


def test_smc_to_ic_single_is_the_first_full_pick_random():
    # the eager greedy's first pick: the widest closure, lowest id on ties
    compared = 0
    for net, analysis, comp in random_smcs():
        closures = closure_masks(analysis.input_graph, comp)
        chosen, additions = eager_cover_plan(net, analysis.matching, comp,
                                             closures)
        if additions is None:
            continue
        widest = max(closures, key=lambda v: (closures[v].bit_count(), -v))
        assert chosen[0] == widest
        single = smc_to_ic_single(analysis, comp)
        assert single.additions.tolist() == [list(additions[0])]
        compared += 1
    assert compared >= 400


def condensation_sources(analysis, comp) -> list[int]:
    """Lowest member of each piece of the component's adjacency graph that
    no other piece enters: the in-degree-0 nodes of networkx's
    condensation, ascending."""
    ig = analysis.input_graph
    inside = np.isin(ig.src, comp.members)
    g = nx.DiGraph()
    g.add_nodes_from(comp.members.tolist())
    g.add_edges_from(zip(ig.src[inside].tolist(), ig.dst[inside].tolist()))
    dag = nx.condensation(g)
    return sorted(min(dag.nodes[c]["members"]) for c in dag
                  if not dag.in_degree(c))


def full_picks(analysis, comp) -> list[int]:
    plan = smc_to_ic_full(analysis, comp)
    return analysis.matching.match_out[plan.additions[:, 0]].tolist()


def test_smc_to_ic_full_picks_the_condensation_sources_random():
    compared = 0
    for net, analysis, comp in random_smcs():
        try:
            picks = full_picks(analysis, comp)
        except AlterationError:
            continue
        assert picks == condensation_sources(analysis, comp)
        compared += 1
    assert compared >= 400


def test_smc_to_ic_full_picks_the_condensation_sources_sf():
    # the largest SMC once the largest component of SF N=2000, k=10 is
    # saturated: 133-181 source pieces, except at seed 8, where the
    # saturated members end in a UMC and the largest SMC is one node
    wide = 0
    for seed in range(10):
        net = generate(GenSpec(model="sf", n=2000, avg_degree=10, seed=seed))
        before = analyze(net)
        comp = before.report.component(before.report.cc_max)
        saturate = ic_to_smc if comp.kind is ComponentKind.IC else umc_to_smc
        analysis = analyze(apply_plan(net, saturate(before, comp)))
        smc = largest_of(analysis, ComponentKind.SMC)
        picks = full_picks(analysis, smc)
        assert picks == condensation_sources(analysis, smc)
        wide += len(picks) > 100
    assert wide == 9


def test_smc_to_ic_single_affects_the_closure_of_its_pick_random():
    # the full cover affects every member; one link only its pick's closure
    from netcontrol import control_reachable_from
    compared = strict = 0
    for net, analysis, comp in random_smcs():
        try:
            plan = smc_to_ic_single(analysis, comp)
        except AlterationError:
            continue
        pick = int(analysis.matching.match_out[plan.additions[0, 0]])
        reach = np.intersect1d(control_reachable_from(analysis.input_graph,
                                                      pick), comp.members)
        assert np.array_equal(plan.affected, reach)
        compared += 1
        strict += reach.size < comp.size
    assert compared >= 400 and strict >= 25


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
    plan = smc_to_ic_full(analysis, comp)
    assert plan.additions.tolist() == [[ids("c1"), ids("c2")]]
    assert np.array_equal(plan.affected, comp.members)


@pytest.fixture(scope="module")
def one_pass_saturation():
    """SF N=6000, k=10, generator seed 28: the largest component, an IC of
    4 547 members, saturated by one ``ic_to_smc`` pass, and the
    re-analysis, as ``alter --component largest --to smc`` runs them."""
    net = generate(GenSpec(model="sf", n=6000, avg_degree=10, seed=28))
    before = analyze(net)
    comp = before.report.component(before.report.cc_max)
    plan = ic_to_smc(before, comp)
    after = analyze(apply_plan(net, plan), 0, plan.matching_after)
    return comp, alteration_report(before, after, plan), after


def test_one_pass_saturation_is_reported_as_attained(one_pass_saturation):
    comp, plan, after = one_pass_saturation
    assert comp.kind is ComponentKind.IC and comp.size == 4547
    assert plan_attains_goal(plan, after)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: one saturation pass leaves the former members in a "
    "UMC, and plan_attains_goal checks the members, not their component's "
    "kind; the fix removes this marker"))
def test_one_pass_saturation_leaves_its_members_in_smcs(one_pass_saturation):
    comp, _, after = one_pass_saturation
    report = after.report
    holding = np.unique(report.comp_of[comp.members])
    assert all(report.kind(c) is ComponentKind.SMC for c in holding.tolist())
