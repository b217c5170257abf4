"""Maximum matchings of the out/in bipartite split.

Every node ``v`` contributes an out-copy and an in-copy; a directed edge
``(u, v)`` becomes the bipartite edge ``(u_out, v_in)``. Zero-degree copies
exist but are isolated, which keeps the unmatched counts on both sides equal
to ``N - |M|``. A matching is stored as the pair of mutually inverse maps
``matched_out: u -> v`` and ``matched_in: v -> u``.

:func:`maximum_matching` works on CSR arrays in phases of one breadth-first
search from all free out-copies at once. Each BFS level is one round of
numpy calls over the level's edges, so a phase costs O(L) array work plus a
fixed Python overhead per level.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain
from typing import Iterable

import numpy as np

from .errors import ExchangeError, InternalInvariantError
from .network import DirectedNetwork, NodeId, edge_positions


class Matching:
    """A matching of the bipartite split, immutable once built.

    The matching takes ownership of the ``matched_out`` dict it is handed
    and keeps it without a copy, so the caller must pass a dict it will not
    mutate afterwards (every caller in the package builds a fresh one).
    """

    __slots__ = ("matched_out", "matched_in")

    def __init__(self, matched_out: dict[NodeId, NodeId]):
        self.matched_out = matched_out
        self.matched_in = {v: u for u, v in matched_out.items()}
        if len(self.matched_in) != len(self.matched_out):
            raise ValueError("two sources matched to the same target")

    @classmethod
    def from_pairs(cls, net: DirectedNetwork,
                   pairs: Iterable[tuple[NodeId, NodeId]]) -> "Matching":
        m = cls(dict(pairs))
        m.validate(net)
        return m

    @property
    def size(self) -> int:
        return len(self.matched_out)

    def pairs(self) -> tuple[tuple[NodeId, NodeId], ...]:
        return tuple(sorted(self.matched_out.items()))

    def validate(self, net: DirectedNetwork) -> None:
        """Raise ``ValueError`` unless every matched pair is a network edge."""
        for u, v in self.matched_out.items():
            if not net.has_edge(u, v):
                raise ValueError(f"matched pair ({u}, {v}) is not an edge")

    def __eq__(self, other):
        if not isinstance(other, Matching):
            return NotImplemented
        return self.matched_out == other.matched_out

    def __hash__(self):
        return hash(frozenset(self.matched_out.items()))

    def __repr__(self):
        return f"Matching(size={self.size})"


@dataclass(frozen=True)
class ExchangeResult:
    matching: Matching
    replaced: NodeId


def _first_of_each(keys: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Mask of the first occurrence of each value in ``keys``.

    ``scratch`` is a work array indexed by key; its contents are clobbered.
    """
    rank = np.arange(keys.size)
    scratch[keys] = keys.size
    np.minimum.at(scratch, keys, rank)
    return scratch[keys] == rank


def maximum_matching(net: DirectedNetwork, order_seed: int = 0) -> Matching:
    """Maximum matching of the bipartite split by multi-source BFS phases.

    Each phase grows one breadth-first alternating forest from every free
    out-copy at once, one numpy round per level. An in-copy joins the tree
    of the first out-copy to claim it, so trees are disjoint; a tree that
    reaches a free in-copy stops growing and contributes one augmenting
    path. All paths of a phase are flipped together. A phase that reaches
    no free in-copy proves the matching maximum (Berge), which ends the
    loop. This is the level-synchronous search of Azad, Buluç & Pothen
    (IEEE TPDS 2017) without tree grafting.

    Cost: each phase gathers each reached out-copy's edges once, O(L), in
    one round of numpy calls per BFS level. On ER N=10^5, k=10 that is 11
    phases and about 140 levels, 0.3 s on a 2.0 GHz Xeon. Graphs whose
    augmenting paths are long pay the per-level overhead (about 50 us) per
    step instead: the reversed double chain ``u -> N-1-u``, ``u -> N-2-u``
    at N=10^5, whose last augmenting path runs through the whole graph,
    takes 4-5 s. No benchmark workload has such paths.

    The result is deterministic for a fixed ``order_seed``. Seed 0 starts
    from the out-copies and scans adjacency lists in ascending id order;
    any other seed applies a seeded shuffle to both, which changes which
    maximum matching is found but never its size.
    """
    n = net.n
    indptr, indices = net.out_ptr, net.out_idx
    roots = np.arange(n, dtype=np.int32)
    if order_seed:
        rng = random.Random(order_seed)
        order = list(range(n))
        rng.shuffle(order)
        flat, bounds = indices.tolist(), indptr.tolist()
        adj = [flat[a:b] for a, b in zip(bounds, bounds[1:])]
        for lst in adj:
            rng.shuffle(lst)
        indices = np.fromiter(chain.from_iterable(adj), dtype=np.int32,
                              count=indices.size)
        roots = np.array(order, dtype=np.int32)
        del adj, flat, order

    match_out = np.full(n, -1, dtype=np.int32)  # out-copy u -> in-copy v
    match_in = np.full(n, -1, dtype=np.int32)   # in-copy v -> out-copy u
    parent = np.empty(n, dtype=np.int32)   # in-copy -> out-copy that claimed it
    root_of = np.empty(n, dtype=np.int32)  # out-copy -> root of its tree
    scratch = np.empty(n, dtype=np.int64)

    while True:
        frontier = roots[match_out[roots] < 0]
        root_of[frontier] = frontier
        visited = np.zeros(n, dtype=bool)  # in-copies claimed this phase
        done = np.zeros(n, dtype=bool)     # roots whose tree found a free end
        ends = []
        while frontier.size:
            pos, counts = edge_positions(indptr, frontier)
            src = np.repeat(frontier, counts)
            dst = indices[pos]
            fresh = ~visited[dst]
            dst = dst[fresh]
            src = src[fresh]
            first = _first_of_each(dst, scratch)
            dst = dst[first]
            src = src[first]
            visited[dst] = True
            parent[dst] = src
            mate = match_in[dst]
            tree = root_of[src]
            free = mate < 0
            if free.any():
                found = tree[free]
                one = _first_of_each(found, scratch)
                done[found[one]] = True
                ends.append(dst[free][one])
            grow = ~free
            grow[grow] = ~done[tree[grow]]
            frontier = mate[grow]
            root_of[frontier] = tree[grow]
        if not ends:
            break
        # Flip every path from its free end back to its root at once; the
        # paths are vertex-disjoint because each in-copy has one parent.
        v = np.concatenate(ends)
        while v.size:
            u = parent[v]
            prev = match_out[u]
            match_out[u] = v
            match_in[v] = u
            v = prev[prev >= 0]

    pairs = match_out.tolist()
    del (indptr, indices, roots, match_out, match_in, parent, root_of, scratch,
         visited, done)
    # One int object per node id, shared by keys and values: a node that is
    # matched on both sides costs one object, not two (3 MB at N=10^5).
    ids = list(range(n))
    return Matching({ids[u]: ids[v] for u, v in enumerate(pairs) if v >= 0})


def input_nodes(net: DirectedNetwork, m: Matching) -> frozenset[NodeId]:
    """Nodes with no matched in-edge: a minimum input set of ``N - |M|``."""
    return frozenset(v for v in range(net.n) if v not in m.matched_in)


def unsaturated_nodes(net: DirectedNetwork, m: Matching) -> frozenset[NodeId]:
    """Nodes with no matched out-edge."""
    return frozenset(u for u in range(net.n) if u not in m.matched_out)


def exchange(net: DirectedNetwork, m: Matching, node: NodeId,
             via: NodeId) -> ExchangeResult:
    """Swap input node ``node`` out of the input set using in-edge ``(via, node)``.

    ``via`` must have a matched out-edge ``(via, b)``; the result rematches
    ``via`` to ``node``, so ``b`` replaces ``node`` in the input set. The new
    matching has the same size and is again maximum.
    """
    labels = net.labels
    if node in m.matched_in:
        raise ExchangeError(f"node {labels[node]} is not an input node")
    if not net.has_edge(via, node):
        raise ExchangeError(f"({labels[via]}, {labels[node]}) is not an edge "
                            f"of the network")
    replaced = m.matched_out.get(via)
    if replaced is None:
        # For a maximum matching the witness of an input node's in-edge is
        # always saturated, else the edge itself would augment the matching.
        raise InternalInvariantError(
            f"witness {labels[via]} has no matched out-edge; matching is not "
            f"maximum")
    new_out = dict(m.matched_out)
    new_out[via] = node
    return ExchangeResult(matching=Matching(new_out), replaced=replaced)
