"""Maximum matchings of the out/in bipartite split.

Every node ``v`` contributes an out-copy and an in-copy; a directed edge
``(u, v)`` becomes the bipartite edge ``(u_out, v_in)``. Zero-degree copies
exist but are isolated, which keeps the unmatched counts on both sides equal
to ``N - |M|``. A matching is stored as two mutually inverse read-only int32
arrays, ``match_out[u] = v`` and ``match_in[v] = u``, with -1 for an
unmatched copy; the input and unsaturated nodes are their -1 entries.

:func:`maximum_matching` works on CSR arrays in phases of one breadth-first
search from all free out-copies at once. Each BFS level is one round of
numpy calls over the level's edges, or a Python loop over them when they
are few, so a phase costs O(L) and a thin level no fixed numpy overhead.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def pairs(self) -> tuple[tuple[NodeId, NodeId], ...]:
        u = np.flatnonzero(self.match_out >= 0)
        return tuple(zip(u.tolist(), self.match_out[u].tolist()))

    def __eq__(self, other):
        if not isinstance(other, Matching):
            return NotImplemented
        return np.array_equal(self.match_out, other.match_out)

    def __hash__(self):
        return hash(self.match_out.tobytes())

    def __repr__(self):
        return f"Matching(size={self.size})"


# Below these sizes a search level (edges gathered) or a flip round (paths
# still flipping) costs less as a Python loop than as a round of numpy calls.
_THIN_LEVEL = 96
_THIN_FLIP = 12


@dataclass(frozen=True)
class ExchangeResult:
    matching: Matching
    replaced: NodeId


def maximum_matching(net: DirectedNetwork, order_seed: int = 0) -> Matching:
    """Maximum matching of the bipartite split by multi-source BFS phases.

    Each phase grows one breadth-first alternating forest from every free
    out-copy at once, one level at a time. An in-copy joins the tree
    of the first out-copy to claim it, so trees are disjoint; a tree that
    reaches a free in-copy stops growing and contributes one augmenting
    path. All paths of a phase are flipped together. A phase that reaches
    no free in-copy proves the matching maximum (Berge), which ends the
    loop. This is the level-synchronous search of Azad, Buluç & Pothen
    (IEEE TPDS 2017) without tree grafting.

    Within a phase every gathered edge gets a rank that grows through the
    phase, and one ``np.minimum.at`` over the level's edges leaves each
    in-copy the smallest rank that claimed it. An in-copy claimed at an
    earlier level keeps its smaller rank; a fresh one goes to its first
    claimant in frontier, then adjacency, order. The claims that won are
    gathered by index, which here is about three times cheaper per element
    than a boolean mask.

    Cost: each phase gathers each reached out-copy's edges once, O(L). A
    level whose frontier rows hold more than 96 edges is one round of numpy
    calls, written with ndarray methods (``take``, ``repeat``,
    ``nonzero``), whose call overhead is below that of the module functions
    and of fancy indexing; a round costs some tens of microseconds however
    few edges it holds. A thinner level is walked in Python over
    memoryviews instead, at under a microsecond per edge: claims go in the
    same frontier, then adjacency, order, all at the level's first rank,
    which no later level undercuts, and each tree's first free claim ends
    it. Flips go the same way: one numpy round per path step while more
    than 12 paths are left, then the rest one at a time in Python. On ER
    N=10^5, k=10 (generator seed 3) that is 106 numpy levels and 27 thin
    ones, about 0.06-0.08 s in-process on a 2.0 GHz Xeon; on SF N=6000,
    k=10 (seed 1) 129 and 54, about 7-8 ms. The reversed double chain
    ``u -> N-1-u``, ``u -> N-2-u`` at N=10^5, whose last augmenting path
    runs through the whole graph one or two edges per level, takes about
    0.12 s; with a numpy round per level it took 2.1-5 s.

    The first phase, whose one level reaches every edge, is taken in
    closed form from the in-rows in O(N): each in-copy is claimed by its
    smallest in-neighbour, and each out-copy is matched to the smallest
    in-copy it claimed. That is the matching the search finds there,
    without the level's per-edge arrays, which would set the matcher's
    memory peak (ER N=10^5, k=10: 21 MB traced with them, 11 MB without,
    for a 5.6 MB CSR).

    The result is deterministic for a fixed ``order_seed``. Seed 0 starts
    from the free out-copies and scans adjacency rows in ascending id
    order. Any other seed runs the same search on the nodes relabelled by
    ``default_rng(abs(order_seed)).permutation(n)`` and maps the matching
    back, which changes which maximum matching is found but never its size.

    Seed 0 is separable over disjoint parts: on a disjoint union each
    part's roots, claims and flips are, in order, those it makes alone
    (the closed first phase is local to each node), and a part that is
    done only repeats its last, empty phase. ``sweep``
    relies on this to match many networks at once
    (:func:`~netcontrol.pipeline.part_reports`). A nonzero seed permutes
    ids across parts and is not separable.
    """
    n = net.n
    if order_seed:  # the seed-0 search on a seeded relabelling, see above
        new_id = np.random.default_rng(abs(order_seed)).permutation(n)
        new_id = new_id.astype(np.int32)
        found = maximum_matching(DirectedNetwork(n, np.column_stack((
            np.repeat(new_id, np.diff(net.out_ptr)), new_id[net.out_idx]))))
        old_id = np.full(n + 1, -1, dtype=np.int32)  # found's -1 reads old_id[n]
        old_id[new_id] = np.arange(n, dtype=np.int32)
        return Matching(old_id[found.match_out[new_id]])

    indptr, indices = net.out_ptr, net.out_idx
    match_out = np.full(n, -1, dtype=np.int32)  # out-copy u -> in-copy v
    match_in = np.full(n, -1, dtype=np.int32)   # in-copy v -> out-copy u
    parent = np.empty(n, dtype=np.int32)   # in-copy -> out-copy that claimed it
    root_of = np.empty(n, dtype=np.int32)  # out-copy -> root of its tree
    scratch = np.empty(n, dtype=np.intp)  # first_of_each's ranks are intp
    # A phase expands each out-copy at most once, so its claim ranks stay
    # below L; L itself marks an in-copy not yet claimed.
    unclaimed = indices.size
    owner = np.empty(n, dtype=np.int32 if unclaimed < 2 ** 31 else np.intp)
    # The scalar walks read and write the same arrays through memoryviews.
    ptr_, idx_, match_out_, match_in_, parent_, root_of_, owner_ = map(
        memoryview, (indptr, indices, match_out, match_in, parent, root_of,
                     owner))

    # The first phase in closed form, see above.
    v = np.flatnonzero(np.diff(net.in_ptr)).astype(np.int32)
    u = net.in_idx[net.in_ptr[v]]
    first = first_of_each(u, scratch)
    match_out[u[first]] = v[first]
    match_in[v[first]] = u[first]
    del v, u, first

    while True:
        frontier = (match_out < 0).nonzero()[0].astype(np.int32)
        root_of[frontier] = frontier
        owner.fill(unclaimed)            # in-copy -> rank of its first claim
        alive = np.ones(n, dtype=bool)   # roots whose tree found no free end
        alive_ = memoryview(alive)
        ends = []
        base = 0
        while frontier.size:
            pos, counts = edge_positions(indptr, frontier)
            if frontier.size <= _THIN_LEVEL and pos.size <= _THIN_LEVEL:
                # Thin levels are walked in Python, claims in the same order
                # and ranks below those of any later level, until one is
                # wide again.
                level, size, free = frontier.tolist(), pos.size, []
                while level and size <= _THIN_LEVEL:
                    claims = []
                    for u in level:
                        tree = root_of_[u]
                        for v in idx_[ptr_[u]:ptr_[u + 1]]:
                            if owner_[v] == unclaimed:
                                owner_[v] = base
                                parent_[v] = u
                                claims.append((match_in_[v], v, tree))
                    base += size
                    for mate, v, tree in claims:  # a tree's first free end
                        if mate < 0 and alive_[tree]:
                            alive_[tree] = False
                            free.append(v)
                    level = []
                    for mate, v, tree in claims:
                        if mate >= 0 and alive_[tree]:
                            root_of_[mate] = tree
                            level.append(mate)
                    size = sum([ptr_[u + 1] - ptr_[u] for u in level])
                if free:
                    ends.append(np.array(free, dtype=np.int32))
                frontier = np.array(level, dtype=np.int32)
                continue
            dst = indices.take(pos)
            del pos
            rank = np.arange(base, base + dst.size, dtype=owner.dtype)
            base += dst.size
            np.minimum.at(owner, dst, rank)
            keep = (owner.take(dst) == rank).nonzero()[0]
            del rank
            dst = dst.take(keep)
            src = frontier.repeat(counts).take(keep)
            del keep
            parent[dst] = src
            mate = match_in.take(dst)
            tree = root_of.take(src)
            if mate.size and mate.min() < 0:
                free = (mate < 0).nonzero()[0]
                found = tree.take(free)
                one = first_of_each(found, scratch).nonzero()[0]
                alive[found.take(one)] = False
                ends.append(dst.take(free.take(one)))
                grow = alive.take(tree).nonzero()[0]
                mate, tree = mate.take(grow), tree.take(grow)
            # Without a free end every tree is still alive, as it was at the
            # start of the level, so every claim grows.
            frontier = mate
            root_of[frontier] = tree
        if not ends:
            break
        # Flip every path from its free end back to its root at once; the
        # paths are vertex-disjoint because each in-copy has one parent.
        v = np.concatenate(ends)
        while v.size > _THIN_FLIP:
            u = parent[v]
            prev = match_out[u]
            match_out[u] = v
            match_in[v] = u
            v = prev[prev >= 0]
        for v in v.tolist():  # the last few paths, one at a time
            while v >= 0:
                u = parent_[v]
                prev = match_out_[u]
                match_out_[u] = v
                match_in_[v] = u
                v = prev

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
    labels = net.label_column
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
