"""Traced memory of each analysis stage against the CSR it reads.

On ER N=10^5, k=10 the network's four CSR arrays take 5.6 MB. Each bound
is a small multiple of those bytes: room for a few int32 arrays the size
of the edge set, but not for int64 copies of the edges at every step.
"""

import tracemalloc

import pytest

from netcontrol import (GenSpec, build_input_graph, generate, input_nodes,
                        maximum_matching, unsaturated_nodes)
from netcontrol.components import component_report
from netcontrol.network import load_edge_list, write_edge_list


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
    tracemalloc.start()
    try:
        stage(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_loading_peaks_within_four_times_the_csr(er):
    _, path, csr, _ = er
    with path.open() as fh:
        assert traced_peak(load_edge_list, fh) <= 4 * csr


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
