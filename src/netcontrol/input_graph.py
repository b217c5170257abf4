"""Control-adjacency graph construction and node classification.

Node ``a`` is control adjacent to node ``b`` (written ``a -> b``) when some
witness ``c`` has an unmatched edge ``(c, a)`` and a matched edge ``(c, b)``:
``a`` can then take ``b``'s place in a rearranged matching. Each edge
``(c, a)`` whose source is matched to some ``b != a`` gives one candidate.

One pass over the network's CSR arrays builds the graph: a
level-synchronous breadth-first closure over the candidates, started from
the unmatched nodes, marks the possible inputs (the nodes of some minimum
input set) in a bool mask; the kept edges are the candidates leaving a
possible input plus those entering a redundant node, stored as parallel
``src``/``dst``/``witness`` arrays. The two sides never mix classes.
Candidates from a redundant node to a possible input belong to neither: a
literal reading of the definition keeps them, but that replacement needs
the replacing node to be an input node of the matching at hand. On ER
N=10^5, k=10 the pass takes about 0.1 s in 15 levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NotMaximumMatchingError
from .matching import Matching
from .network import DirectedNetwork, NodeId, edge_positions


class NodeClass(Enum):
    CRITICAL = "critical"          # in every minimum input set (no in-edge)
    INTERMITTENT = "intermittent"  # in some but not every minimum input set
    REDUNDANT = "redundant"        # in no minimum input set

    @property
    def possible_input(self) -> bool:
        return self is not NodeClass.REDUNDANT


NODE_CLASSES = tuple(NodeClass)  # the classes that class codes index


@dataclass(frozen=True, eq=False)
class InputGraph:
    """Control-adjacency edges for one maximum matching of a network.

    Edge ``i`` is ``src[i] -> dst[i]`` via ``witness[i]`` (int32 arrays).
    The first ``possible_edge_count`` edges join possible-input nodes, the
    rest join redundant nodes. ``possible_inputs``, a read-only node mask, is
    the closure of the input set under control adjacency (the union of all
    minimum input sets).
    """

    network: DirectedNetwork
    matching: Matching
    src: np.ndarray
    dst: np.ndarray
    witness: np.ndarray
    possible_edge_count: int
    possible_inputs: np.ndarray

    @property
    def edge_count(self) -> int:
        return self.src.size


def build_input_graph(net: DirectedNetwork, m: Matching) -> InputGraph:
    """Construct the control-adjacency graph for maximum matching ``m``.

    Raises :class:`NotMaximumMatchingError` if ``m`` is not maximum. Runs in
    O(N + L) array work: each node's in-edges are gathered once.
    """
    n = net.n
    match_out = m.match_out
    # Candidate a -> b via witness c for every edge (c, a), in in-CSR order;
    # b < 0 (c unmatched) or b == a (the matched edge itself) gives none.
    a = np.repeat(np.arange(n, dtype=np.int32), np.diff(net.in_ptr))
    c = net.in_idx
    b = match_out[c]

    possible = m.match_in < 0
    frontier = np.flatnonzero(possible)
    while frontier.size:
        pos, _ = edge_positions(net.in_ptr, frontier)
        reached = b[pos]
        reached = reached[reached >= 0]
        reached = np.unique(reached[~possible[reached]])
        possible[reached] = True
        frontier = reached

    # Berge: an unsaturated witness of a possible input ends an augmenting
    # path; when there is none the matching is maximum.
    stray = possible[a] & (b < 0)
    if stray.any():
        i = int(stray.argmax())
        raise NotMaximumMatchingError(
            f"unsaturated witness {c[i]} reaches possible input {a[i]}; "
            f"the matching is not maximum")

    candidate = (b >= 0) & (b != a)
    side_p = np.flatnonzero(candidate & possible[a])
    side_r = np.flatnonzero(candidate & ~possible[b])
    keep = np.concatenate((side_p, side_r))
    possible.flags.writeable = False
    return InputGraph(
        network=net,
        matching=m,
        src=a[keep],
        dst=b[keep],
        witness=c[keep],
        possible_edge_count=side_p.size,
        possible_inputs=possible,
    )


def is_maximum(net: DirectedNetwork, m: Matching) -> bool:
    """Berge check: True iff no augmenting path leaves an unmatched in-copy.

    This is the check :func:`build_input_graph` makes in its closure pass.
    """
    try:
        build_input_graph(net, m)
    except NotMaximumMatchingError:
        return False
    return True


def classify_nodes(ig: InputGraph) -> np.ndarray:
    """Class code of every node, an int8 index into :data:`NODE_CLASSES`.

    A possible input is critical exactly when it has no in-edge in the
    original network; such nodes are unmatched under every maximum matching.
    """
    has_in = np.diff(ig.network.in_ptr) > 0  # INTERMITTENT (1) or CRITICAL (0)
    code = np.where(ig.possible_inputs, has_in,
                    NODE_CLASSES.index(NodeClass.REDUNDANT)).astype(np.int8)
    code.flags.writeable = False
    return code


def control_reachable_from(ig: InputGraph, node: NodeId) -> np.ndarray:
    """Ascending ids of ``node`` and its forward closure over adjacency."""
    if not (0 <= node < ig.network.n):
        raise ValueError(f"node {node} out of range")
    seen = np.zeros(ig.network.n, dtype=bool)
    seen[node] = True
    while (step := seen[ig.src] & ~seen[ig.dst]).any():
        seen[ig.dst[step]] = True
    return np.flatnonzero(seen)
