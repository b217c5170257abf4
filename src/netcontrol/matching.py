"""Maximum matchings of the out/in bipartite split.

Every node ``v`` contributes an out-copy and an in-copy; a directed edge
``(u, v)`` becomes the bipartite edge ``(u_out, v_in)``. Zero-degree copies
exist but are isolated, which keeps the unmatched counts on both sides equal
to ``N - |M|``. A matching is stored as the pair of mutually inverse maps
``matched_out: u -> v`` and ``matched_in: v -> u``.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .errors import ExchangeError, InternalInvariantError
from .network import DirectedNetwork, NodeId

_INF = -1  # sentinel layer value in the Hopcroft-Karp BFS


class Matching:
    """A matching of the bipartite split, immutable once built."""

    __slots__ = ("matched_out", "matched_in")

    def __init__(self, matched_out: dict[NodeId, NodeId]):
        self.matched_out = dict(matched_out)
        self.matched_in = {v: u for u, v in self.matched_out.items()}
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


def maximum_matching(net: DirectedNetwork, order_seed: int = 0) -> Matching:
    """Hopcroft-Karp maximum matching of the bipartite split.

    The result is deterministic for a fixed ``order_seed``. Seed 0 scans
    nodes and adjacency lists in ascending id order; any other seed applies a
    seeded shuffle to both, which changes which maximum matching is found but
    never its size.
    """
    n = net.n
    adj = net.out_adj
    order = list(range(n))
    if order_seed:
        rng = random.Random(order_seed)
        rng.shuffle(order)
        adj = [list(t) for t in adj]
        for lst in adj:
            rng.shuffle(lst)

    match_out: list[int] = [_INF] * n  # out-copy u -> in-copy v
    match_in: list[int] = [_INF] * n   # in-copy v -> out-copy u
    dist: list[int] = [_INF] * n

    def bfs() -> bool:
        queue: deque[int] = deque()
        for u in order:
            if match_out[u] == _INF:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = _INF
        reachable_free = False
        while queue:
            u = queue.popleft()
            du = dist[u]
            for v in adj[u]:
                w = match_in[v]
                if w == _INF:
                    reachable_free = True
                elif dist[w] == _INF:
                    dist[w] = du + 1
                    queue.append(w)
        return reachable_free

    def augment(root: int) -> bool:
        # Iterative layered DFS; recursion would overflow on long chains.
        iters = {root: iter(adj[root])}
        came: dict[int, tuple[int, int]] = {}
        stack = [root]
        while stack:
            u = stack[-1]
            moved = False
            for v in iters[u]:
                w = match_in[v]
                if w == _INF:
                    # Free in-copy found: flip edges back along the path.
                    match_in[v] = u
                    match_out[u] = v
                    while u != root:
                        u, v = came[u]
                        match_in[v] = u
                        match_out[u] = v
                    return True
                if dist[w] == dist[u] + 1 and w not in iters:
                    came[w] = (u, v)
                    iters[w] = iter(adj[w])
                    stack.append(w)
                    moved = True
                    break
            if not moved:
                dist[u] = _INF
                stack.pop()
        return False

    while bfs():
        for u in order:
            if match_out[u] == _INF:
                augment(u)

    return Matching({u: v for u, v in enumerate(match_out) if v != _INF})


def input_nodes(net: DirectedNetwork, m: Matching) -> frozenset[NodeId]:
    """Nodes with no matched in-edge: a minimum input set of ``N - |M|``."""
    return frozenset(v for v in range(net.n) if v not in m.matched_in)


def unsaturated_nodes(net: DirectedNetwork, m: Matching) -> frozenset[NodeId]:
    """Nodes with no matched out-edge."""
    return frozenset(u for u in range(net.n) if u not in m.matched_out)


def is_maximum(net: DirectedNetwork, m: Matching) -> bool:
    """Berge check: True iff no augmenting path leaves an unmatched in-copy.

    The alternating search steps from an in-copy through any unmatched
    in-edge to its source's out-copy; if that out-copy is free the path
    augments, otherwise it continues from the source's matched target.
    """
    seen = set(v for v in range(net.n) if v not in m.matched_in)
    queue = deque(sorted(seen))
    while queue:
        v = queue.popleft()
        for u in net.in_adj[v]:
            if m.matched_in.get(v) == u:
                continue  # matched edge: not a valid alternating step here
            b = m.matched_out.get(u)
            if b is None:
                return False  # u is unsaturated: augmenting path found
            if b not in seen:
                seen.add(b)
                queue.append(b)
    return True


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
