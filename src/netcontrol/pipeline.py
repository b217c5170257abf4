"""End-to-end analysis: matching, input graph, classes, components."""

from __future__ import annotations

from dataclasses import dataclass

from .components import ComponentReport, component_report
from .input_graph import (InputGraph, NodeClass, build_input_graph,
                          classify_nodes)
from .matching import (Matching, input_nodes, maximum_matching,
                       unsaturated_nodes)
from .network import DirectedNetwork, NodeId


@dataclass(frozen=True)
class NetworkAnalysis:
    network: DirectedNetwork
    seed: int
    matching: Matching
    input_set: frozenset[NodeId]
    unsaturated: frozenset[NodeId]
    input_graph: InputGraph
    classes: dict[NodeId, NodeClass]
    report: ComponentReport


def analyze(net: DirectedNetwork, seed: int = 0) -> NetworkAnalysis:
    """Run the whole pipeline on ``net`` with a seed-determined matching.

    The input and unsaturated sets are derived here once and handed to the
    component report.
    """
    m = maximum_matching(net, seed)
    ig = build_input_graph(net, m)
    inputs = input_nodes(net, m)
    unsaturated = unsaturated_nodes(net, m)
    return NetworkAnalysis(
        network=net,
        seed=seed,
        matching=m,
        input_set=inputs,
        unsaturated=unsaturated,
        input_graph=ig,
        classes=classify_nodes(ig),
        report=component_report(net, ig, inputs, unsaturated),
    )
