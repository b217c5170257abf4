"""Acceptance suite: one test per release criterion, one line per outcome.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criterion 9 needs the optional circuit edge lists; point
``NETCONTROL_DATA`` at a directory holding them to enable it.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from netcontrol import (ComponentKind, GenSpec, NodeClass, analyze,
                        build_input_graph, classify_exhaustive, classify_nodes,
                        exchange, generate, input_nodes, is_maximum,
                        load_edge_list, maximum_matching)
from netcontrol.alteration import (AlterationError, _closure_masks,
                                   alteration_report, apply_plan, ic_to_smc,
                                   plan_attains_goal, smc_to_ic_full,
                                   smc_to_ic_single, umc_to_smc)
from netcontrol.cli import main as cli_main
from netcontrol.oracle import enumerate_maximum_matchings
from netcontrol.reports import round_percent

from conftest import (class_names, component_sets, node_set, random_digraph,
                      worked_networks)

SWEEP_KS = (2, 4, 6, 8, 10, 12)
SWEEP_N = 2000
STABILITY_SEEDS = 5


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}", flush=True)
        raise
    print(f"[PASS] criterion {number}: {description}", flush=True)


def spearman(xs, ys) -> float:
    def rank(values):
        order = sorted(range(len(values)), key=values.__getitem__)
        out = [0] * len(values)
        for position, index in enumerate(order):
            out[index] = position
        return out

    rx, ry = rank(list(xs)), rank(list(ys))
    n = len(rx)
    d2 = sum((a - b) ** 2 for a, b in zip(rx, ry))
    return 1 - 6 * d2 / (n * (n * n - 1))


@dataclass
class SweepSummary:
    cc_means: dict          # (model, k) -> mean CC_max/N
    count_means: dict       # (model, k) -> mean component count
    k12_fracs: dict         # model -> [CC_max/N at k = 12]
    bifurcation: dict       # model -> [n_p at k = 10, 20 seeds]
    stability_failures: int
    build_seconds: float


def check_invariants_and_stability(net, analysis) -> int:
    """Seed-stability part of the structural invariants; the class
    separation, purity, size accounting, and edge-bound checks run inside
    every analyze() call already. Returns the number of violations."""
    base = analysis.classes
    for seed in range(1, STABILITY_SEEDS):
        m = maximum_matching(net, seed)
        other = classify_nodes(build_input_graph(net, m))
        if not np.array_equal(other, base):
            return 1
    return 0


def node_count(mask) -> int:
    return len(node_set(mask))


@pytest.fixture(scope="session")
def sweep_summary() -> SweepSummary:
    started = time.perf_counter()
    cc_means, count_means = {}, {}
    k12 = {"er": [], "sf": []}
    bifurcation = {"er": [], "sf": []}
    stability_failures = 0
    for model in ("er", "sf"):
        for k in SWEEP_KS:
            fracs, counts = [], []
            for seed in range(10):
                net = generate(GenSpec(model=model, n=SWEEP_N, avg_degree=k,
                                       seed=seed))
                analysis = analyze(net)
                stability_failures += check_invariants_and_stability(net,
                                                                     analysis)
                fracs.append(analysis.report.cc_max_fraction)
                counts.append(analysis.report.component_count)
                if k == 12:
                    k12[model].append(analysis.report.cc_max_fraction)
                if k == 10:
                    bifurcation[model].append(
                        node_count(analysis.input_graph.possible_inputs)
                        / SWEEP_N)
            cc_means[(model, k)] = sum(fracs) / len(fracs)
            count_means[(model, k)] = sum(counts) / len(counts)
        for seed in range(10, 20):
            net = generate(GenSpec(model=model, n=SWEEP_N, avg_degree=10,
                                   seed=seed))
            analysis = analyze(net)
            stability_failures += check_invariants_and_stability(net, analysis)
            bifurcation[model].append(
                node_count(analysis.input_graph.possible_inputs) / SWEEP_N)
    return SweepSummary(cc_means, count_means, k12, bifurcation,
                        stability_failures, time.perf_counter() - started)


def test_criterion_1_worked_example_exactness():
    with criterion(1, "three-node worked example reproduced exactly"):
        started = time.perf_counter()
        net = load_edge_list("c a\nc b\n")
        ids = net.id_of
        enum = enumerate_maximum_matchings(net)
        assert enum.matching_count == 2
        assert set(enum.input_sets) == {
            frozenset({ids("a"), ids("c")}), frozenset({ids("b"), ids("c")})}
        assert all(len(s) == 2 for s in enum.input_sets)
        analysis = analyze(net)
        classes = class_names(analysis.classes)
        assert len(classes) == net.n
        assert all(cls.possible_input for cls in classes)
        assert classes[ids("c")] is NodeClass.CRITICAL
        report = analysis.report
        comps = {tuple(sorted(net.labels[v] for v in members)): report.kind(i)
                 for i, members in enumerate(component_sets(report.comp_of))}
        assert comps == {("a", "b"): ComponentKind.IC,
                         ("c",): ComponentKind.IC}
        assert time.perf_counter() - started < 1.0


def test_criterion_2_oracle_equivalence():
    with criterion(2, "pipeline classes match exhaustive enumeration"):
        started = time.perf_counter()
        corpus = [random_digraph(n, p / 10, seed)
                  for n in range(3, 9)
                  for p in range(1, 6)
                  for seed in range(10)]
        assert len(corpus) == 300
        corpus += worked_networks()
        for net in corpus:
            truth = classify_exhaustive(net)
            ig = build_input_graph(net, maximum_matching(net, 0))
            assert np.array_equal(classify_nodes(ig), truth)
            union = frozenset().union(
                *enumerate_maximum_matchings(net).input_sets)
            assert node_set(ig.possible_inputs) == union
        assert time.perf_counter() - started < 60.0


def test_criterion_3_exchange_suite():
    with criterion(3, "every in-edge exchange stays maximum, partners = k_in"):
        for seed in range(100):
            net = generate(GenSpec(model="er", n=50, avg_degree=4, seed=seed))
            m = maximum_matching(net, 0)
            before = node_set(input_nodes(m))
            for node in sorted(before):
                if net.in_degree(node) == 0:
                    continue
                partners = set()
                for via in net.predecessors(node).tolist():
                    result = exchange(net, m, node, via)
                    assert is_maximum(net, result.matching)
                    after = node_set(input_nodes(result.matching))
                    assert before - after == {node}
                    assert len(after - before) == 1
                    partners.update(after - before)
                assert len(partners) == net.in_degree(node)


def test_criterion_4_structural_invariants(sweep_summary):
    with criterion(4, "structural invariants hold on sweeps and examples"):
        assert sweep_summary.stability_failures == 0
        for net in worked_networks():
            analysis = analyze(net)  # separation/purity/sizes checked inside
            assert analysis.input_graph.edge_count <= net.edge_count
            assert check_invariants_and_stability(net, analysis) == 0


def test_criterion_5_giant_component_emergence(sweep_summary):
    with criterion(5, "largest control component grows, count shrinks"):
        for model in ("er", "sf"):
            cc = [sweep_summary.cc_means[(model, k)] for k in SWEEP_KS]
            counts = [sweep_summary.count_means[(model, k)] for k in SWEEP_KS]
            assert spearman(SWEEP_KS, cc) >= 0.9
            assert spearman(SWEEP_KS, counts) <= -0.9
            assert all(f >= 0.8 for f in sweep_summary.k12_fracs[model])
        assert sweep_summary.build_seconds < 300.0


def test_criterion_6_bifurcation(sweep_summary):
    with criterion(6, "possible-input fraction is bimodal in dense networks"):
        for model in ("er", "sf"):
            values = sweep_summary.bifurcation[model]
            assert len(values) == 20
            in_band = sum(1 for v in values if v <= 0.25 or v >= 0.75)
            assert in_band >= 18  # at least 90% of runs


def _components(analysis):
    report = analysis.report
    return list(map(report.component, range(report.component_count)))


def _largest(analysis, kind):
    pool = [c for c in _components(analysis) if c.kind is kind]
    if not pool:
        return None
    return min(pool, key=lambda c: (-c.size, c.id))


def test_criterion_7_alteration_trends():
    with criterion(7, "alterations attain goals; cost shrinks with density"):
        mean_p = {"ic": {}, "umc": {}}
        for k in (4, 8, 12):
            p_ic, p_umc = [], []
            for seed in range(5):
                net = generate(GenSpec(model="sf", n=SWEEP_N, avg_degree=k,
                                       seed=seed))
                before = analyze(net)
                for key, kind, op in (("ic", ComponentKind.IC, ic_to_smc),
                                      ("umc", ComponentKind.UMC, umc_to_smc)):
                    comp = _largest(before, kind)
                    if comp is None:
                        continue
                    plan = op(net, before.matching, comp)
                    after = analyze(apply_plan(net, plan))
                    plan = alteration_report(before, after, plan)
                    assert plan_attains_goal(plan, after)              # (a)
                    assert plan.mis_after < plan.mis_before            # (c)
                    (p_ic if key == "ic" else p_umc).append(plan.p)
            assert p_ic and p_umc
            mean_p["ic"][k] = sum(p_ic) / len(p_ic)
            mean_p["umc"][k] = sum(p_umc) / len(p_umc)
        for key in ("ic", "umc"):                                      # (b)
            series = [mean_p[key][k] for k in (4, 8, 12)]
            assert series[0] >= series[1] >= series[2]

        # (d) round trip on a giant-IC instance flips most classes twice
        net = generate(GenSpec(model="sf", n=SWEEP_N, avg_degree=10, seed=0))
        before = analyze(net)
        giant = before.report.component(before.report.cc_max)
        assert giant.kind is ComponentKind.IC
        plan1 = ic_to_smc(net, before.matching, giant)
        net2 = apply_plan(net, plan1)
        middle = analyze(net2)
        plan1 = alteration_report(before, middle, plan1)
        assert plan1.delta_n_d >= 0.5
        giant2 = middle.report.component(middle.report.cc_max)
        assert giant2.kind is ComponentKind.SMC
        plan2 = smc_to_ic_single(net2, middle.matching, giant2,
                                 ig=middle.input_graph)
        final = analyze(apply_plan(net2, plan2))
        plan2 = alteration_report(middle, final, plan2)
        assert len(plan2.additions) == 1
        assert plan2.delta_n_d >= 0.5


def exhaustive_min_cover(masks: list[int], universe: int) -> int:
    for size in range(1, len(masks) + 1):
        for combo in combinations(masks, size):
            covered = 0
            for mask in combo:
                covered |= mask
            if covered == universe:
                return size
    raise AssertionError("universe not coverable")


def test_criterion_8_greedy_cover_is_minimum():
    with criterion(8, "greedy closure cover matches the exhaustive minimum"):
        checked = 0
        for seed in range(40):
            net = generate(GenSpec(model="er", n=50, avg_degree=4, seed=seed))
            analysis = analyze(net)
            for comp in _components(analysis):
                if comp.kind is not ComponentKind.SMC or comp.size > 10:
                    continue
                try:
                    plan = smc_to_ic_full(net, analysis.matching, comp,
                                          ig=analysis.input_graph)
                except AlterationError:
                    continue  # no feasible link edge for this component
                masks = _closure_masks(analysis.input_graph, comp)
                minimum = exhaustive_min_cover(
                    sorted(set(masks.values())), (1 << comp.size) - 1)
                assert len(plan.additions) == minimum
                checked += 1
        assert checked >= 50


TABLE_EXPECTATIONS = {
    "s208a": (23.77, 17.21),
    "s420a": (23.41, 9.13),
    "s838a": (23.24, 5.27),
}


def _find_data_file(name: str) -> Path | None:
    roots = []
    if os.environ.get("NETCONTROL_DATA"):
        roots.append(Path(os.environ["NETCONTROL_DATA"]))
    roots.append(Path(__file__).parent / "data")
    for root in roots:
        for suffix in ("", ".txt", ".edges", ".edgelist"):
            candidate = root / f"{name}{suffix}"
            if candidate.is_file():
                return candidate
    return None


def test_criterion_9_published_circuit_tables():
    paths = {name: _find_data_file(name) for name in TABLE_EXPECTATIONS}
    if not all(paths.values()):
        pytest.skip("circuit edge lists not supplied; set NETCONTROL_DATA")
    with criterion(9, "supplied circuit networks reproduce published columns"):
        for name, (n_mis, cc_max) in TABLE_EXPECTATIONS.items():
            with open(paths[name], encoding="utf-8") as fh:
                analysis = analyze(load_edge_list(fh))
            assert round_percent(analysis.report.n_mis_fraction) == n_mis
            assert round_percent(analysis.report.cc_max_fraction) == cc_max
            report = analysis.report
            assert report.kind(report.cc_max) is ComponentKind.IC


def test_criterion_10_command_determinism(tmp_path, capsys):
    with criterion(10, "identical commands produce byte-identical output"):
        sample = tmp_path / "dilation.txt"
        sample.write_text("c a\nc b\n", encoding="utf-8")
        commands = [
            ["generate", "--model", "sf", "-n", "300", "-k", "6",
             "--seed", "13"],
            ["analyze", str(sample)],
            ["inputgraph", str(sample)],
            ["components", str(sample)],
            ["sweep", "--model", "er", "-n", "100", "--k-list", "2,4",
             "--replicates", "3"],
        ]
        for argv in commands:
            assert cli_main(argv) == 0
            first = capsys.readouterr().out
            assert cli_main(argv) == 0
            second = capsys.readouterr().out
            assert first == second and first
