"""End-to-end analysis: matching, input graph, classes, components."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

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


def analyze(net: DirectedNetwork, seed: int = 0,
            matching: Matching | None = None) -> NetworkAnalysis:
    """Run the whole pipeline on ``net`` with a seed-determined matching.

    ``matching``, when given, is a maximum matching of ``net`` that is used
    instead of searching for one; ``seed`` is then only recorded. A pair
    that is not an edge of ``net`` raises ``ValueError``, and the closure
    pass's Berge check raises
    :class:`~netcontrol.errors.NotMaximumMatchingError` for a matching that
    is not maximum.

    Each per-node fact stays in the array it is computed in; the input and
    unsaturated id arrays are derived here once, for the component report
    and for the alteration planners, which take the analysis.
    """
    if matching is None:
        m = maximum_matching(net, seed)
    else:
        _require_edges(net, matching)
        m = matching
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


def _require_edges(net: DirectedNetwork, m: Matching) -> None:
    """Raise ``ValueError`` unless every pair of ``m`` is an edge of ``net``."""
    if m.match_out.size != net.n:
        raise ValueError(f"a matching of {m.match_out.size} nodes given for "
                         f"a network of {net.n}")
    sources = np.flatnonzero(m.match_out >= 0)
    if not net.has_edges(sources, m.match_out[sources]).all():
        raise ValueError("the matching pairs nodes that no edge joins")


def part_reports(analysis: NetworkAnalysis, bounds: list[int]
                 ) -> Iterator[tuple[np.ndarray, ComponentReport]]:
    """Each part's possible-input mask and component census, from a union.

    ``analysis`` is the seed-0 analysis of a disjoint union of networks:
    one network whose part ``i`` holds the nodes from ``bounds[i]`` up to
    ``bounds[i + 1]``, at least one, and no edge between parts. Both
    equal those of analysing the part alone. The seed-0 matcher is
    separable over parts (:func:`maximum_matching`), and the closure and
    the components are fixpoints within each part. Component ids follow
    the smallest member, so part ``i``'s components are the ids from
    ``comp_of[bounds[i]]`` up to that of the next part's first node.
    """
    if analysis.seed:
        raise ValueError("a nonzero matching seed is not separable over parts")
    report = analysis.report
    starts = report.comp_of[bounds[:-1]].tolist() + [report.component_count]
    for lo, hi, c0, c1 in zip(bounds, bounds[1:], starts, starts[1:]):
        comp_of = report.comp_of[lo:hi] - c0
        comp_of.flags.writeable = False
        yield analysis.input_graph.possible_inputs[lo:hi], ComponentReport(
            comp_of, report.sizes[c0:c1], report.kinds[c0:c1])
