"""Maximum matchings of the out/in bipartite split.

Every node ``v`` contributes an out-copy and an in-copy; a directed edge
``(u, v)`` becomes the bipartite edge ``(u_out, v_in)``. Zero-degree copies
exist but are isolated, which keeps the unmatched counts on both sides equal
to ``N - |M|``. A matching is stored as two mutually inverse read-only int32
arrays, ``match_out[u] = v`` and ``match_in[v] = u``, with -1 for an
unmatched copy; the input and unsaturated nodes are their -1 entries.

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
from .network import DirectedNetwork, NodeId, edge_positions, first_of_each


class Matching:
    """A matching of the bipartite split, immutable once built.

    ``match_out`` holds each out-copy's partner or -1, and ``match_in`` is
    its inverse. The matching owns the array it is handed and makes it
    read-only, so a caller that edits a matching copies ``match_out`` first.
    """

    __slots__ = ("match_out", "match_in", "size")

    def __init__(self, match_out):
        out = np.asarray(match_out)
        if out.ndim != 1 or ((out < -1) | (out >= out.size)).any():
            raise ValueError("match_out must hold a partner in 0..N-1 or -1")
        out = out.astype(np.int32, copy=False)
        matched = np.flatnonzero(out >= 0).astype(np.int32)
        match_in = np.full(out.size, -1, dtype=np.int32)
        match_in[out[matched]] = matched
        if np.count_nonzero(match_in >= 0) != matched.size:
            raise ValueError("two sources matched to the same target")
        out.flags.writeable = match_in.flags.writeable = False
        self.match_out, self.match_in, self.size = out, match_in, matched.size

    @classmethod
    def from_pairs(cls, net: DirectedNetwork,
                   pairs: Iterable[tuple[NodeId, NodeId]]) -> "Matching":
        match_out = np.full(net.n, -1, dtype=np.int32)
        for u, v in pairs:
            match_out[u] = v
        m = cls(match_out)
        m.validate(net)
        return m

    def pairs(self) -> tuple[tuple[NodeId, NodeId], ...]:
        u = np.flatnonzero(self.match_out >= 0)
        return tuple(zip(u.tolist(), self.match_out[u].tolist()))

    def validate(self, net: DirectedNetwork) -> None:
        """Raise ``ValueError`` unless every matched pair is a network edge."""
        for u, v in self.pairs():
            if not net.has_edge(u, v):
                raise ValueError(f"matched pair ({u}, {v}) is not an edge")

    def __eq__(self, other):
        if not isinstance(other, Matching):
            return NotImplemented
        return np.array_equal(self.match_out, other.match_out)

    def __hash__(self):
        return hash(self.match_out.tobytes())

    def __repr__(self):
        return f"Matching(size={self.size})"


@dataclass(frozen=True)
class ExchangeResult:
    matching: Matching
    replaced: NodeId


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
            first = first_of_each(dst, scratch)
            dst = dst[first]
            src = src[first]
            visited[dst] = True
            parent[dst] = src
            mate = match_in[dst]
            tree = root_of[src]
            free = mate < 0
            if free.any():
                found = tree[free]
                one = first_of_each(found, scratch)
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

    return Matching(match_out)


def input_nodes(m: Matching) -> np.ndarray:
    """Nodes with no matched in-edge: a minimum input set of ``N - |M|``."""
    return np.flatnonzero(m.match_in < 0)


def unsaturated_nodes(m: Matching) -> np.ndarray:
    """Nodes with no matched out-edge."""
    return np.flatnonzero(m.match_out < 0)


def exchange(net: DirectedNetwork, m: Matching, node: NodeId,
             via: NodeId) -> ExchangeResult:
    """Swap input node ``node`` out of the input set using in-edge ``(via, node)``.

    ``via`` must have a matched out-edge ``(via, b)``; the result rematches
    ``via`` to ``node``, so ``b`` replaces ``node`` in the input set. The new
    matching has the same size and is again maximum; ``m`` is left as is.
    """
    labels = net.labels
    if m.match_in[node] >= 0:
        raise ExchangeError(f"node {labels[node]} is not an input node")
    if not net.has_edge(via, node):
        raise ExchangeError(f"({labels[via]}, {labels[node]}) is not an edge "
                            f"of the network")
    replaced = int(m.match_out[via])
    if replaced < 0:
        # For a maximum matching the witness of an input node's in-edge is
        # always saturated, else the edge itself would augment the matching.
        raise InternalInvariantError(
            f"witness {labels[via]} has no matched out-edge; matching is not "
            f"maximum")
    match_out = m.match_out.copy()
    match_out[via] = node
    return ExchangeResult(matching=Matching(match_out), replaced=replaced)
