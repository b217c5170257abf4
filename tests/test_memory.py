"""Traced memory of each analysis stage against the CSR it reads.

On ER N=10^5, k=10 the network's four CSR arrays take 5.6 MB. Each bound
is a small multiple of those bytes: room for a few int32 arrays the size
of the edge set, but not for int64 copies of the edges at every step.
A list output is bounded by the bytes it writes as well: it may hold its
text twice (the chunks and their join), but not a Python object per row.
"""

import tracemalloc

import numpy as np
import pytest

from netcontrol import (ComponentKind, DirectedNetwork, GenSpec, analyze,
                        build_input_graph, generate, input_nodes,
                        maximum_matching, unsaturated_nodes)
from netcontrol.alteration import (apply_plan, ic_to_smc, smc_to_ic_full,
                                   umc_to_smc)
from netcontrol.components import (COMPONENT_KINDS, component_report,
                                   largest_component)
from netcontrol.network import load_edge_list, write_edge_list
from netcontrol.reports import analysis_record, input_graph_tsv, to_json


@pytest.fixture(scope="module")
def er(tmp_path_factory):
    """The loaded network, its edge-list file, the CSR bytes and a matching."""
    net = generate(GenSpec(model="er", n=100_000, avg_degree=10, seed=7))
    path = tmp_path_factory.mktemp("er") / "er.txt"
    path.write_text(f"# nodes: {net.n}\n" + write_edge_list(net))
    with path.open() as fh:
        net = load_edge_list(fh)
    csr = sum(a.nbytes for a in (net.out_ptr, net.out_idx,
                                  net.in_ptr, net.in_idx))
    return net, path, csr, maximum_matching(net, 0)


def traced_peak(stage, *args) -> int:
    """Peak bytes allocated while ``stage(*args)`` runs, result included."""
    return traced(stage, *args)[0]


def traced(stage, *args):
    """The peak of :func:`traced_peak` and the result of ``stage(*args)``."""
    tracemalloc.start()
    try:
        result = stage(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_loading_peaks_within_four_times_the_csr(er):
    _, path, csr, _ = er
    with path.open() as fh:
        assert traced_peak(load_edge_list, fh) <= 4 * csr


def test_constructor_peaks_no_higher_on_sorted_pairs(er):
    # sorted keys skip the sort and the duplicate scan, and hold nothing
    # the shuffled ones do not
    net = er[0]
    pairs = np.column_stack((net.edge_sources(), net.out_idx))
    shuffled = pairs[np.random.default_rng(30).permutation(len(pairs))]
    sorted_peak, built = traced(DirectedNetwork, net.n, pairs)
    shuffled_peak, rebuilt = traced(DirectedNetwork, net.n, shuffled)
    assert built == rebuilt == net
    assert sorted_peak <= shuffled_peak


def test_matching_peaks_within_three_times_the_csr(er):
    net, _, csr, _ = er
    assert traced_peak(maximum_matching, net, 0) <= 3 * csr


def test_seeded_matching_peaks_within_four_times_the_csr(er):
    # a nonzero seed also holds the relabelled network's CSR
    net, _, csr, _ = er
    assert traced_peak(maximum_matching, net, 3) <= 4 * csr


def test_input_graph_peaks_within_two_and_a_half_times_the_csr(er):
    net, _, csr, m = er
    assert traced_peak(build_input_graph, net, m) <= 2.5 * csr


def test_component_report_peaks_within_the_csr(er):
    net, _, csr, m = er
    ig = build_input_graph(net, m)
    assert traced_peak(component_report, net, ig, input_nodes(m),
                       unsaturated_nodes(m)) <= csr


def test_full_cover_peaks_within_three_times_the_csr():
    # the largest SMC once the largest component of SF N=20 000, k=10 is
    # saturated: 19 329 members, 80 998 adjacency edges, 1 576 links; 2.45
    # times the CSR measured, 28 with a Python-int closure bitset per piece
    net = generate(GenSpec(model="sf", n=20_000, avg_degree=10, seed=1))
    before = analyze(net)
    comp = before.report.component(before.report.cc_max)
    saturate = ic_to_smc if comp.kind is ComponentKind.IC else umc_to_smc
    net = apply_plan(net, saturate(before, comp))
    analysis = analyze(net)
    report = analysis.report
    smc = report.component(largest_component(
        report.sizes, report.kinds,
        report.kinds == COMPONENT_KINDS.index(ComponentKind.SMC)))
    csr = sum(a.nbytes for a in (net.out_ptr, net.out_idx,
                                  net.in_ptr, net.in_idx))
    assert smc.size > 19_000
    assert traced_peak(smc_to_ic_full, analysis, smc) <= 3 * csr


def test_record_json_peaks_within_two_and_a_half_times_its_text():
    # 200 000 singleton components and no member lists: 15 MB of JSON,
    # which took 5.8 times its size with a dict per component (2.1 now)
    analysis = analyze(load_edge_list("# nodes: 200000\n0 1\n"))
    peak, text = traced(lambda a: to_json(analysis_record(a)), analysis)
    assert peak <= 2.5 * len(text)


def test_record_with_member_lists_peaks_within_six_times_its_text():
    # ER N=10^4, k=10, ids as labels: 437 KB of JSON with member lists,
    # input set and node classes; 5.2 times its text written from tables
    # of the ids' digits, 7.4 with the label strings and a dict per node
    analysis = analyze(generate(GenSpec(model="er", n=10_000, avg_degree=10,
                                        seed=7)))
    peak, text = traced(lambda a: to_json(analysis_record(a, True)), analysis)
    assert peak <= 6 * len(text)
    column = analysis.network.label_column
    assert column.given is None and "labels" not in vars(column)


@pytest.mark.parametrize("bound, path", [
    (7, ("components", "components")),  # member rows: 6.63 (13.8 as a grid)
    (6, ("node_classes",)),             # 5.08 (8.0 with a cell per text)
])
def test_each_nested_list_peaks_within_a_few_times_its_text(bound, path):
    # the lists of the record above alone, their label table built inside;
    # no row pays for a cell it does not write
    record = analysis_record(analyze(generate(GenSpec(
        model="er", n=10_000, avg_degree=10, seed=7))), True)
    for key in path:
        record = record[key]
    peak, text = traced(to_json, record)
    assert peak <= bound * len(text)


def test_input_graph_tsv_peaks_within_two_and_a_quarter_the_csr_and_text(er):
    # the first call also builds the 10^5 label strings: 1.94 times the
    # CSR and the text with them, 1.48 without, 8.05 with a tuple per row
    net, _, csr, m = er
    ig = build_input_graph(net, m)
    peak, text = traced(input_graph_tsv, ig)
    assert peak <= 2.25 * (csr + len(text))


def test_one_long_label_costs_its_own_bytes():
    # One 200 000-character label among 2 000 short ones: a table padded
    # to the longest label would hold 400 MB, and 6.9 GB traced for the
    # edge list's lines; pieces keep each list output within a few times
    # its text (2.2, 2.3 and 3.5 measured)
    n = 2000
    labels = ["x" * 200_000] + [f"v{i}" for i in range(1, n)]
    edges = np.random.default_rng(1).integers(0, n, size=(8000, 2))
    analysis = analyze(DirectedNetwork(n, edges, labels))
    peak, text = traced(write_edge_list, analysis.network)
    assert peak <= 3 * len(text)
    peak, text = traced(input_graph_tsv, analysis.input_graph)
    assert peak <= 3 * len(text)
    peak, text = traced(lambda a: to_json(analysis_record(a)), analysis)
    assert peak <= 5 * len(text)
