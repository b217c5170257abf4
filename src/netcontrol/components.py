"""Control components: connected pieces of the control-adjacency graph.

Connectivity is undirected over the adjacency edges; isolated nodes form
singleton components. A component holding at least one input node is an
input component (IC) and consists of possible-input nodes only. The rest
are matched components (MC), all redundant; an MC receiving an original
edge from some unsaturated node is unsaturated (UMC), otherwise saturated
(SMC). No component can be both an IC and unsaturated-linked: that edge
would extend the matching.

Components come from min-label propagation over the adjacency arrays:
each round lowers both ends of every edge to the smaller label, then jumps
pointers (``lab = lab[lab]``). A component's label ends as its smallest
member; kinds are per-label reductions (ER N=10^5, k=10: 6 rounds, 0.05 s).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .input_graph import InputGraph
from .network import DirectedNetwork, edge_positions


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
    ends = np.concatenate((ig.src, ig.dst))
    other = np.concatenate((ig.dst, ig.src))
    lab = np.arange(n, dtype=np.int32)
    while True:  # a round that lowers no label leaves every edge's ends equal
        before = lab.copy()
        np.minimum.at(lab, ends, lab[other])
        while not np.array_equal(jumped := lab[lab], lab):
            lab = jumped
        if np.array_equal(lab, before):
            break
    roots = lab == np.arange(n)
    ids = (np.cumsum(roots, dtype=np.int32) - 1)[lab]
    ids.flags.writeable = False
    return ids


@dataclass(frozen=True, eq=False)
class ComponentReport:
    """Whole-network summary: stats, input-set density, component census.

    ``comp_of`` is each node's component id; ``sizes`` and ``kinds`` (int8
    codes into :data:`COMPONENT_KINDS`) are indexed by component id, and
    ``cc_max`` is the largest one's. Members are gathered only on request.
    """

    n: int
    edge_count: int
    avg_degree: float
    mis_size: int
    comp_of: np.ndarray
    sizes: np.ndarray
    kinds: np.ndarray
    cc_max: int

    @property
    def perfectly_matched(self) -> bool:
        return self.mis_size == 0

    @property
    def component_count(self) -> int:
        return self.sizes.size

    @property
    def n_mis_fraction(self) -> float:
        return self.mis_size / self.n

    @property
    def cc_max_fraction(self) -> float:
        return int(self.sizes[self.cc_max]) / self.n

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
    """Classify every component and assemble the summary report.

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
    return ComponentReport(
        n=net.n,
        edge_count=net.edge_count,
        avg_degree=2.0 * net.edge_count / net.n,
        mis_size=inputs.size,
        comp_of=comp_of,
        sizes=sizes,
        kinds=kinds,
        cc_max=largest_component(sizes, kinds),
    )


def largest_component(sizes: np.ndarray, kinds: np.ndarray,
                      pool: np.ndarray | None = None) -> int:
    """Id of the largest component in the mask ``pool`` (default: all).

    Ties go to IC, UMC, SMC, then the lowest id.
    """
    ids = np.arange(sizes.size) if pool is None else np.flatnonzero(pool)
    ids = ids[sizes[ids] == sizes[ids].max()]
    return int(ids[kinds[ids].argmin()])
