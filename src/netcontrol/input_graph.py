"""Control-adjacency graph construction and node classification.

Node ``a`` is control adjacent to node ``b`` (written ``a -> b``) when some
witness ``c`` has an unmatched edge ``(c, a)`` and a matched edge ``(c, b)``:
``a`` can then take ``b``'s place in a rearranged matching. The graph over
these relations is built in two passes:

* a breadth-first closure from the current input set collects every node
  that can appear in some minimum input set (the possible-input side), and
* a sweep over the remaining nodes derives the adjacencies among nodes that
  appear in none (the redundant side).

The two edge sets never mix classes. Note this is deliberately *not* an
all-pairs scan of the adjacency definition: a literal scan can relate a
redundant node to a possible-input node (the replacement is only realizable
when the replacing node is itself an input node of the matching at hand),
and such pairs belong to neither pass.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .errors import InternalInvariantError, NotMaximumMatchingError
from .matching import Matching
from .network import DirectedNetwork, NodeId


class ControlAdjacencyEdge(NamedTuple):
    """Directed relation ``src -> dst``: src can replace dst, via ``witness``."""

    src: NodeId
    dst: NodeId
    witness: NodeId


class NodeClass(Enum):
    CRITICAL = "critical"          # in every minimum input set (no in-edge)
    INTERMITTENT = "intermittent"  # in some but not every minimum input set
    REDUNDANT = "redundant"        # in no minimum input set

    @property
    def possible_input(self) -> bool:
        return self is not NodeClass.REDUNDANT


@dataclass(frozen=True)
class InputGraph:
    """Control-adjacency edges for one maximum matching of a network.

    ``possible_edges`` join possible-input nodes, ``redundant_edges`` join
    redundant nodes; ``possible_inputs`` is the closure of the input set
    under control adjacency (the union of all minimum input sets).
    """

    network: DirectedNetwork
    matching: Matching
    possible_edges: tuple[ControlAdjacencyEdge, ...]
    redundant_edges: tuple[ControlAdjacencyEdge, ...]
    possible_inputs: frozenset[NodeId]

    def all_edges(self) -> tuple[ControlAdjacencyEdge, ...]:
        return self.possible_edges + self.redundant_edges

    @property
    def edge_count(self) -> int:
        return len(self.possible_edges) + len(self.redundant_edges)


def build_input_graph(net: DirectedNetwork, m: Matching) -> InputGraph:
    """Construct the control-adjacency graph for maximum matching ``m``.

    Raises :class:`NotMaximumMatchingError` if ``m`` is not maximum. Runs in
    O(N + L): each node is expanded once and each original edge is inspected
    a constant number of times.
    """
    matched_out = m.matched_out
    matched_in = m.matched_in

    # Pass 1: closure from the input set. Expanding node x adds, for each
    # in-edge (c, x) whose witness c has a matched out-edge (c, b) with
    # b != x, the edge x -> b. A self-target means (c, x) is itself the
    # matched edge, so no replacement arises from it. This is also Berge's
    # alternating search: an unsaturated witness ends an augmenting path, and
    # when none is met the matching is maximum.
    possible: set[NodeId] = set(v for v in range(net.n) if v not in matched_in)
    queue: deque[NodeId] = deque(sorted(possible))
    possible_edges: list[ControlAdjacencyEdge] = []
    while queue:
        x = queue.popleft()
        for c in net.in_adj[x]:
            b = matched_out.get(c)
            if b is None:
                raise NotMaximumMatchingError(
                    f"unsaturated witness {c} reaches possible input {x}; "
                    f"the matching is not maximum")
            if b == x:
                continue
            possible_edges.append(ControlAdjacencyEdge(x, b, c))
            if b not in possible:
                possible.add(b)
                queue.append(b)

    # Pass 2: adjacencies among the remaining nodes. Every such node x is
    # matched; its matched in-edge (w, x) makes each other out-neighbor c of
    # w control adjacent to x. Those c are themselves outside the closure,
    # so one sweep covers the whole redundant side.
    redundant_edges: list[ControlAdjacencyEdge] = []
    for x in range(net.n):
        if x in possible:
            continue
        w = matched_in[x]  # every unmatched node seeded the closure
        for c in net.out_adj[w]:
            if c == x:
                continue
            if c in possible:
                raise InternalInvariantError(
                    f"adjacency {c} -> {x} would join both node classes")
            redundant_edges.append(ControlAdjacencyEdge(c, x, w))

    if len(possible_edges) + len(redundant_edges) > net.edge_count:
        # each original edge induces at most one adjacency
        raise InternalInvariantError("more adjacency edges than network edges")
    return InputGraph(
        network=net,
        matching=m,
        possible_edges=tuple(possible_edges),
        redundant_edges=tuple(redundant_edges),
        possible_inputs=frozenset(possible),
    )


def classify_nodes(ig: InputGraph) -> dict[NodeId, NodeClass]:
    """Map every node to critical / intermittent / redundant.

    A node is critical exactly when it has no in-edge in the original
    network; such nodes are unmatched under every maximum matching.
    """
    net = ig.network
    classes: dict[NodeId, NodeClass] = {}
    for v in range(net.n):
        if v in ig.possible_inputs:
            classes[v] = (NodeClass.CRITICAL if net.in_degree(v) == 0
                          else NodeClass.INTERMITTENT)
        else:
            classes[v] = NodeClass.REDUNDANT
    return classes


def control_reachable_from(ig: InputGraph, node: NodeId) -> frozenset[NodeId]:
    """Forward closure of ``node`` over control-adjacency edges, incl. itself."""
    if not (0 <= node < ig.network.n):
        raise ValueError(f"node {node} out of range")
    out: dict[NodeId, list[NodeId]] = {}
    for e in ig.all_edges():
        out.setdefault(e.src, []).append(e.dst)
    seen = {node}
    queue = deque([node])
    while queue:
        x = queue.popleft()
        for y in out.get(x, ()):
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return frozenset(seen)

