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
from .network import DirectedNetwork, NodeId


class ComponentKind(Enum):
    IC = "IC"
    UMC = "UMC"
    SMC = "SMC"

    @property
    def letter(self) -> str:
        return {"IC": "I", "UMC": "U", "SMC": "S"}[self.value]


# Tie-break priority for picking the largest component.
_KIND_PRIORITY = {ComponentKind.IC: 0, ComponentKind.UMC: 1, ComponentKind.SMC: 2}


@dataclass(frozen=True)
class ControlComponent:
    id: int
    members: frozenset[NodeId]
    kind: ComponentKind | None = None

    @property
    def size(self) -> int:
        return len(self.members)

    def sorted_members(self) -> list[NodeId]:
        return sorted(self.members)


def _component_of(ig: InputGraph) -> tuple[np.ndarray, int]:
    """Component id of every node, ids in order of smallest member."""
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
    ids = np.cumsum(roots) - 1
    return ids[lab], int(np.count_nonzero(roots))


def _components(comp_of: np.ndarray, count: int,
                kinds=None) -> list[ControlComponent]:
    members = np.argsort(comp_of, kind="stable").tolist()
    bounds = [0, *np.cumsum(np.bincount(comp_of, minlength=count)).tolist()]
    return [ControlComponent(id=i, members=frozenset(members[lo:hi]),
                             kind=kinds[i] if kinds else None)
            for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]


def find_components(ig: InputGraph) -> list[ControlComponent]:
    """Undirected connected components of the control-adjacency graph.

    Components are id-ed 0,1,... in order of their smallest member, kinds
    left unset.
    """
    return _components(*_component_of(ig))


@dataclass(frozen=True)
class ComponentReport:
    """Whole-network summary: stats, input-set density, component census."""

    n: int
    edge_count: int
    avg_degree: float
    mis_size: int
    perfectly_matched: bool
    components: tuple[ControlComponent, ...]
    cc_max: ControlComponent

    @property
    def n_mis_fraction(self) -> float:
        return self.mis_size / self.n

    @property
    def cc_max_fraction(self) -> float:
        return self.cc_max.size / self.n

    def kind_counts(self) -> dict[str, int]:
        counts = {k.value: 0 for k in ComponentKind}
        for comp in self.components:
            counts[comp.kind.value] += 1
        return counts


def component_report(net: DirectedNetwork, ig: InputGraph,
                     inputs: frozenset[NodeId],
                     unsaturated: frozenset[NodeId]) -> ComponentReport:
    """Classify every component and assemble the summary report.

    ``inputs`` and ``unsaturated`` are the input and unsaturated nodes of the
    maximum matching ``ig`` was built from. Class purity and the exclusion of
    unsaturated-linked ICs hold by construction of ``ig``.
    """
    if net.n == 0:
        raise ValueError("network has no nodes")
    comp_of, count = _component_of(ig)

    def touched(nodes: np.ndarray) -> np.ndarray:
        return np.bincount(comp_of[nodes], minlength=count) > 0

    unsat = np.zeros(net.n, dtype=bool)
    unsat[list(unsaturated)] = True
    # targets of an unsaturated node's edge
    linked = net.out_idx[np.repeat(unsat, np.diff(net.out_ptr))]
    code = np.where(touched(list(inputs)), 0, np.where(touched(linked), 1, 2))
    order = (ComponentKind.IC, ComponentKind.UMC, ComponentKind.SMC)
    comps = _components(comp_of, count,
                        list(map(order.__getitem__, code.tolist())))
    edge_count = net.edge_count
    return ComponentReport(
        n=net.n,
        edge_count=edge_count,
        avg_degree=2.0 * edge_count / net.n,
        mis_size=len(inputs),
        perfectly_matched=not inputs,
        components=tuple(comps),
        cc_max=largest_component(comps),
    )


def largest_component(comps) -> ControlComponent:
    """The largest classified component; ties go to IC, UMC, SMC, then id."""
    return min(comps, key=lambda c: (-c.size, _KIND_PRIORITY[c.kind], c.id))
