"""Shared fixtures: the five worked networks and independent mini-oracles."""

from __future__ import annotations

import random
from collections import deque
from itertools import combinations

import numpy as np
import pytest

from netcontrol import (NODE_CLASSES, DirectedNetwork, Matching,
                        build_input_graph, component_report, input_nodes,
                        load_edge_list, unsaturated_nodes)


@pytest.fixture
def dilation_net():
    """Two-branch dilation: c feeds a and b; only one can be matched."""
    return load_edge_list("c a\nc b\n")


@pytest.fixture
def dilation_matching(dilation_net):
    ids = dilation_net.id_of
    return Matching.from_pairs(dilation_net, [(ids("c"), ids("b"))])


@pytest.fixture
def path4():
    return load_edge_list("1 2\n2 3\n3 4\n")


@pytest.fixture
def confluence():
    return load_edge_list("1 3\n2 3\n")


@pytest.fixture
def five_node():
    """Cross-class pitfall network: a is redundant yet pairs with possible b."""
    return load_edge_list("c1 u\nc1 b\nc1 a\nw a\n")


@pytest.fixture
def five_node_matching(five_node):
    ids = five_node.id_of
    return Matching.from_pairs(
        five_node, [(ids("c1"), ids("b")), (ids("w"), ids("a"))])


@pytest.fixture
def two_cycle():
    return load_edge_list("1 2\n2 1\n")


def worked_networks():
    """All five hand-built networks, freshly parsed."""
    texts = ["c a\nc b\n", "1 2\n2 3\n3 4\n", "1 3\n2 3\n",
             "c1 u\nc1 b\nc1 a\nw a\n", "1 2\n2 1\n"]
    return [load_edge_list(t) for t in texts]


def random_digraph(n: int, p: float, seed: int) -> DirectedNetwork:
    """Bernoulli digraph over every ordered pair, no self-loops."""
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(n)
             if u != v and rng.random() < p]
    return DirectedNetwork(n, edges)


def is_valid_matching(net: DirectedNetwork, pairs) -> bool:
    srcs = [u for u, _ in pairs]
    dsts = [v for _, v in pairs]
    return (len(set(srcs)) == len(srcs) and len(set(dsts)) == len(dsts)
            and all(net.has_edge(u, v) for u, v in pairs))


def brute_maximum_matchings(net: DirectedNetwork):
    """Every maximum matching by subset enumeration; tiny graphs only."""
    assert net.edge_count <= 16, "brute force limited to 16 edges"
    edges = list(net.edges)
    for size in range(net.edge_count, 0, -1):
        found = [combo for combo in combinations(edges, size)
                 if is_valid_matching(net, combo)]
        if found:
            return found
    return [()]


def brute_input_sets(net: DirectedNetwork):
    """Deduplicated unmatched-target sets over all maximum matchings."""
    everyone = frozenset(range(net.n))
    return {everyone - frozenset(v for _, v in pairs)
            for pairs in brute_maximum_matchings(net)}


def adjacency_edges(ig):
    """Control-adjacency edges as ``(src, dst, witness)`` lists: the
    possible-input side, then the redundant side."""
    rows = list(zip(ig.src.tolist(), ig.dst.tolist(), ig.witness.tolist()))
    return rows[:ig.possible_edge_count], rows[ig.possible_edge_count:]


def report_for(net: DirectedNetwork, m: Matching, ig=None):
    """Component report for the maximum matching ``m`` of ``net``."""
    if ig is None:
        ig = build_input_graph(net, m)
    return component_report(net, ig, input_nodes(m), unsaturated_nodes(m))


def node_set(nodes) -> frozenset[int]:
    """The ids of a bool mask over the nodes, or of an id array, as a set."""
    nodes = np.asarray(nodes)
    return frozenset((np.flatnonzero(nodes) if nodes.dtype == bool
                      else nodes).tolist())


def class_names(codes) -> list:
    """The :class:`NodeClass` of each class code, by node id."""
    return [NODE_CLASSES[code] for code in np.asarray(codes).tolist()]


def component_sets(comp_of) -> list[frozenset[int]]:
    """Member sets of the components of ``comp_of``, by component id."""
    return [node_set(comp_of == i) for i in range(int(comp_of.max()) + 1)]


def is_maximum_reference(net: DirectedNetwork, m: Matching) -> bool:
    """Berge check: True iff no augmenting path leaves an unmatched in-copy.

    The alternating search the library ran before its closure pass became
    the Berge check, kept as an independent oracle for that check.

    The alternating search steps from an in-copy through any unmatched
    in-edge to its source's out-copy; if that out-copy is free the path
    augments, otherwise it continues from the source's matched target.
    """
    match_out, match_in = m.match_out.tolist(), m.match_in.tolist()
    seen = set(v for v in range(net.n) if match_in[v] < 0)
    queue = deque(sorted(seen))
    while queue:
        v = queue.popleft()
        for u in net.predecessors(v).tolist():
            if match_in[v] == u:
                continue  # matched edge: not a valid alternating step here
            b = match_out[u]
            if b < 0:
                return False  # u is unsaturated: augmenting path found
            if b not in seen:
                seen.add(b)
                queue.append(b)
    return True
