"""End-to-end analysis: matching, input graph, classes, components."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .components import ComponentReport, component_report
from .input_graph import InputGraph, build_input_graph, classify_nodes
from .matching import (Matching, input_nodes, maximum_matching,
                       unsaturated_nodes)
from .network import DirectedNetwork


@dataclass(frozen=True, eq=False)
class NetworkAnalysis:
    network: DirectedNetwork
    seed: int
    matching: Matching
    input_set: np.ndarray    # ids of the input nodes, ascending
    unsaturated: np.ndarray  # ids of the unsaturated nodes, ascending
    input_graph: InputGraph
    classes: np.ndarray      # class codes, see input_graph.NODE_CLASSES
    report: ComponentReport


def analyze(net: DirectedNetwork, seed: int = 0) -> NetworkAnalysis:
    """Run the whole pipeline on ``net`` with a seed-determined matching.

    Each per-node fact stays in the array it is computed in; the input and
    unsaturated id arrays are derived here once for the component report.
    """
    m = maximum_matching(net, seed)
    ig = build_input_graph(net, m)
    inputs = input_nodes(m)
    unsaturated = unsaturated_nodes(m)
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
