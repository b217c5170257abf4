"""An independent check of every matching-independent output of an analysis.

It shares no code with the pipeline beyond the network's CSR arrays and the
matching under test, and uses ``scipy.sparse.csgraph`` for its graph
searches, so it runs at any size in O(L log L):

- the matching is a set of edges, at most one per out-copy and per in-copy;
- the possible inputs are the in-copies reachable from the free ones along
  ``a -> match_out[c]`` for each edge ``(c, a)``, by one breadth-first
  search from a super-source;
- König: the in-copies outside that set and the out-copies with an edge
  into it cover every edge. When the cover has exactly |M| members, all
  matched, weak duality proves the matching maximum, and every in-copy in
  the cover matched in every maximum matching: redundant;
- classes: a possible input with no in-edge is critical, any other one
  intermittent;
- components: the connected pieces of the adjacency edges
  ``a - match_out[c]``, without those from a redundant ``a`` to a possible
  ``b``, with ids in the order of their smallest members;
- kinds: IC holds an input; UMC has an edge from an unsaturated node; SMC
  otherwise.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components

from netcontrol import COMPONENT_KINDS, NODE_CLASSES, ComponentKind, NodeClass


def check_analysis(analysis) -> None:
    """Assert the classes, possible inputs, components and kinds of
    ``analysis`` against an independent computation."""
    net = analysis.network
    n = net.n
    src = net.edge_sources().astype(np.int64)
    dst = net.out_idx.astype(np.int64)
    match_out = analysis.matching.match_out.astype(np.int64)

    # the matching: edges of the network, one per out-copy and in-copy
    matched = np.flatnonzero(match_out >= 0)
    partner = match_out[matched]
    assert np.isin(matched * n + partner, src * n + dst).all()
    assert np.unique(partner).size == partner.size
    size = matched.size
    assert analysis.matching.size == size

    # the in-copies reachable from the free ones, from super-source n
    free = np.ones(n, dtype=bool)
    free[partner] = False
    step = match_out[src] >= 0  # edge (c, a) leads from a to match_out[c]
    rows = np.concatenate((dst[step], np.full(np.count_nonzero(free), n)))
    cols = np.concatenate((match_out[src[step]], np.flatnonzero(free)))
    graph = coo_matrix((np.ones(rows.size, dtype=np.int8), (rows, cols)),
                       shape=(n + 1, n + 1)).tocsr()
    reached = breadth_first_order(graph, n, directed=True,
                                  return_predecessors=False)
    possible = np.zeros(n + 1, dtype=bool)
    possible[reached] = True
    possible = possible[:n]

    # König: a cover of |M| members, its out-copies all matched
    into = np.zeros(n, dtype=bool)
    into[src[possible[dst]]] = True
    assert (match_out[into] >= 0).all()
    assert np.count_nonzero(into) + np.count_nonzero(~possible) == size

    assert np.array_equal(analysis.input_graph.possible_inputs, possible)
    has_in = np.diff(net.in_ptr) > 0
    expected = np.where(
        possible, np.where(has_in, NODE_CLASSES.index(NodeClass.INTERMITTENT),
                           NODE_CLASSES.index(NodeClass.CRITICAL)),
        NODE_CLASSES.index(NodeClass.REDUNDANT))
    assert np.array_equal(analysis.classes, expected)

    # components of the adjacency edges a - b, b = match_out[c], b != a
    a, b = dst[step], match_out[src[step]]
    keep = (a != b) & ~(~possible[a] & possible[b])
    adjacency = coo_matrix((np.ones(np.count_nonzero(keep), dtype=np.int8),
                            (a[keep], b[keep])), shape=(n, n))
    _, label = connected_components(adjacency, directed=False)
    _, first = np.unique(label, return_index=True)  # each smallest member
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    comp_of = rank[label]
    assert np.array_equal(analysis.report.comp_of, comp_of)

    # kinds, by component
    count = first.size
    has_input = np.zeros(count, dtype=bool)
    has_input[comp_of[free]] = True
    linked = np.zeros(count, dtype=bool)
    linked[comp_of[dst[match_out[src] < 0]]] = True
    kinds = np.select(
        [has_input, linked],
        [COMPONENT_KINDS.index(ComponentKind.IC),
         COMPONENT_KINDS.index(ComponentKind.UMC)],
        COMPONENT_KINDS.index(ComponentKind.SMC))
    assert np.array_equal(analysis.report.kinds, kinds)
