"""Control components: connected pieces of the control-adjacency graph.

Connectivity is undirected over the adjacency edges; isolated nodes form
singleton components. A component holding at least one input node is an
input component (IC) and consists of possible-input nodes only. The rest
are matched components (MC), all redundant; an MC receiving an original
edge from some unsaturated node is unsaturated (UMC), otherwise saturated
(SMC). No component can be both an IC and unsaturated-linked: that edge
would extend the matching.

Components come from root hooking over the adjacency arrays
(:func:`connected_pieces`): each round hooks the higher root of every live
edge onto the lower one, jumps pointers to a fixpoint and retires the edges
that now lie inside one root. A component's label ends as its smallest
member; kinds are per-label reductions. On ER N=10^5, k=10 (381 166
adjacency edges; 2-vCPU 2.0 GHz Xeon) that is 3 hooking rounds and 18-24 ms,
against 6 rounds of min-label propagation with two scatters over every
edge and 32-36 ms; at N=10^6, 4 rounds and 0.3-0.4 s against 11 and 0.9-1.2 s.

:func:`strong_pieces` splits any digraph given as edge arrays into its
strongly connected pieces, labelled the same way: by their lowest member.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .input_graph import InputGraph
from .network import DirectedNetwork, edge_positions, reach


class ComponentKind(Enum):
    IC = "IC"
    UMC = "UMC"
    SMC = "SMC"

    @property
    def letter(self) -> str:
        return {"IC": "I", "UMC": "U", "SMC": "S"}[self.value]


# The kinds that kind codes index, also the tie-break order for the largest.
COMPONENT_KINDS = tuple(ComponentKind)


@dataclass(frozen=True, eq=False)
class ControlComponent:
    """One component: its id, its member ids in ascending order, its kind."""

    id: int
    members: np.ndarray
    kind: ComponentKind

    @property
    def size(self) -> int:
        return self.members.size


def find_components(ig: InputGraph) -> np.ndarray:
    """Component id of every node, ids 0,1,... in order of smallest member."""
    n = ig.network.n
    lab = connected_pieces(n, ig.src, ig.dst)
    roots = lab == np.arange(n)
    ids = (roots.cumsum(dtype=np.int32) - 1).take(lab)
    ids.flags.writeable = False
    return ids


_CHUNK = 1 << 16  # edges read at a time: bounds the temporaries


def connected_pieces(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Lowest id of the connected piece of every node of the undirected
    graph with edges ``src[i] -- dst[i]`` (int32 arrays) on ``0..n-1``.

    Root hooking with pointer jumping (Shiloach & Vishkin 1982), in rounds
    over the live edges: each edge reads the roots of its ends from the
    flat labels and writes the lower into the higher, in a copy of the
    labels so that only roots are written; pointers then jump to a
    fixpoint. A pointer only ever falls, so a piece's root is its lowest
    member. The next round retires the edges whose ends share a root: the
    second through a mask into arrays of the live edges, later ones by
    compacting those in place, each edge now held by its ends' roots.
    """
    lab = np.arange(n, dtype=np.int32)  # every node its own root
    hooked = lab.copy()
    for lo in range(0, src.size, _CHUNK):
        s, d = src[lo:lo + _CHUNK], dst[lo:lo + _CHUNK]
        np.minimum.at(hooked, np.maximum(s, d), np.minimum(s, d))
    lab = _jumped(hooked)
    hooked = lab.copy()
    live = np.empty(src.size, dtype=bool)
    for lo in range(0, src.size, _CHUNK):
        live[lo:lo + _CHUNK] = _rehook(hooked, lab, src[lo:lo + _CHUNK],
                                       dst[lo:lo + _CHUNK])[0]
    src, dst = src[live], dst[live]
    del live
    while src.size:  # a round that hooks nothing retires every edge
        lab = _jumped(hooked)
        hooked, kept = lab.copy(), 0
        for lo in range(0, src.size, _CHUNK):
            _, hi, low = _rehook(hooked, lab, src[lo:lo + _CHUNK],
                                 dst[lo:lo + _CHUNK])
            src[kept:kept + hi.size] = hi
            dst[kept:kept + hi.size] = low
            kept += hi.size
        src, dst = src[:kept], dst[:kept]
    return lab


def _rehook(hooked, lab, src, dst):
    """Hook into ``hooked`` the edges whose ends have different roots in
    ``lab``, writing the lower root into the higher. Returns their mask
    and their roots, higher and lower."""
    a, b = lab.take(src), lab.take(dst)
    keep = a != b
    # compress beats a bool index 2-3 times on a scattered mask
    a, b = np.compress(keep, a), np.compress(keep, b)
    hi, low = np.maximum(a, b), np.minimum(a, b)
    np.minimum.at(hooked, hi, low)
    return keep, hi, low


def _jumped(lab: np.ndarray) -> np.ndarray:
    """``lab`` with every pointer jumped to its root."""
    while not np.array_equal(jumped := lab.take(lab), lab):
        lab = jumped
    return lab


def strong_pieces(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Lowest id of the strongly connected piece of every node of the
    digraph with edges ``src[i] -> dst[i]`` (int32 arrays) on ``0..n-1``.

    Colouring (Slota, Rajamanickam & Madduri, IPDPS 2014), in rounds on the
    nodes not yet placed: trim the nodes no edge enters or leaves; colour
    each node with the lowest-ranked node that reaches it (min-labels with
    pointer jumping); a node that is its own colour is a root, and its
    piece is the nodes of its colour that reach it. Ranks shuffle the ids:
    by id, 4 000 2-cycles in a chain of rising ids took a round each.
    """
    # rank: the seeded shuffle of the ids that the matcher uses too
    rank = np.random.default_rng(0).permutation(n).astype(np.int32)
    # sorted by target, a filter keeps the in-rows the backward search reads
    order = np.argsort(rank[dst])
    src, dst = rank[src[order]], rank[dst[order]]
    del order
    root = np.arange(n, dtype=np.int32)  # of each placed node's piece
    while src.size:
        # SF SMCs (k=10, N=6000-60 000): 2-8 trim passes a round cost the
        # same, 1 up to 20 % more and trimming to a fixpoint 25-50 % more
        for _ in range(4):
            ends = np.zeros((2, n), dtype=bool)
            ends[0, src] = ends[1, dst] = True
            keep = ends[0, dst] & ends[1, src]
            if keep.all():
                break
            src, dst = src[keep], dst[keep]

        colour, total = root.copy(), None  # unplaced: its own colour
        while total != (total := colour.sum(dtype=np.int64)):
            # colours only fall, so an unchanged sum is a fixpoint
            np.minimum.at(colour, dst, colour.take(src))
            colour = colour.take(colour)
        keep = colour.take(src) == colour.take(dst)  # edges between colours
        src, dst = src[keep], dst[keep]  # join two pieces: they leave
        found = colour == root  # the roots, and every node already placed
        # one backward search from all the roots, over the in-rows
        reach(np.searchsorted(dst, np.arange(n + 1)), src, found)
        root[found] = colour[found]
        # a placed target's source shares its colour, so it is placed too
        keep = ~found.take(src)
        src, dst = src[keep], dst[keep]
    label = root.take(rank)
    lowest = np.full(n, n, dtype=np.int32)
    np.minimum.at(lowest, label, np.arange(n, dtype=np.int32))
    return lowest.take(label)


@dataclass(frozen=True, eq=False)
class ComponentReport:
    """The component census of one network.

    ``comp_of`` is each node's component id; ``sizes`` and ``kinds`` (int8
    codes into :data:`COMPONENT_KINDS`) are indexed by component id.
    Members are gathered only on request. Node, edge and input counts live
    on the network and the matching the census was taken from.
    """

    comp_of: np.ndarray
    sizes: np.ndarray
    kinds: np.ndarray

    @cached_property
    def cc_max(self) -> int:
        """Id of the largest component, by :func:`largest_component`."""
        return largest_component(self.sizes, self.kinds)

    @property
    def component_count(self) -> int:
        return self.sizes.size

    @property
    def cc_max_fraction(self) -> float:
        return int(self.sizes[self.cc_max]) / self.comp_of.size

    def kind(self, ident: int) -> ComponentKind:
        return COMPONENT_KINDS[self.kinds[ident]]

    def component(self, ident: int) -> ControlComponent:
        """Component ``ident`` with its members gathered."""
        return ControlComponent(id=ident,
                                members=np.flatnonzero(self.comp_of == ident),
                                kind=self.kind(ident))

    def kind_counts(self) -> dict[str, int]:
        counts = np.bincount(self.kinds, minlength=len(COMPONENT_KINDS))
        return {k.value: c for k, c in zip(COMPONENT_KINDS, counts.tolist())}


def component_report(net: DirectedNetwork, ig: InputGraph,
                     inputs: np.ndarray,
                     unsaturated: np.ndarray) -> ComponentReport:
    """Find and classify every component: the census of ``net``.

    ``inputs`` and ``unsaturated`` are the ids of the input and unsaturated
    nodes of the maximum matching ``ig`` was built from. Class purity and
    the exclusion of unsaturated-linked ICs hold by construction of ``ig``.
    """
    if net.n == 0:
        raise ValueError("network has no nodes")
    comp_of = find_components(ig)
    sizes = np.bincount(comp_of)
    count = sizes.size

    def touched(nodes: np.ndarray) -> np.ndarray:
        return np.bincount(comp_of[nodes], minlength=count) > 0

    # targets of an unsaturated node's edge
    linked = net.out_idx[edge_positions(net.out_ptr, unsaturated)[0]]
    kinds = np.where(touched(inputs), 0,  # codes of IC, UMC, SMC
                     np.where(touched(linked), 1, 2)).astype(np.int8)
    sizes.flags.writeable = kinds.flags.writeable = False
    return ComponentReport(comp_of, sizes, kinds)


def largest_component(sizes: np.ndarray, kinds: np.ndarray,
                      pool: np.ndarray | None = None) -> int:
    """Id of the largest component in the mask ``pool`` (default: all).

    Ties go to IC, UMC, SMC, then the lowest id.
    """
    ids = np.arange(sizes.size) if pool is None else np.flatnonzero(pool)
    ids = ids[sizes[ids] == sizes[ids].max()]
    return int(ids[kinds[ids].argmin()])
