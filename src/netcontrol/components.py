"""Control components: connected pieces of the control-adjacency graph.

Connectivity is undirected over the adjacency edges; isolated nodes form
singleton components. A component holding at least one input node is an
input component (IC) and consists of possible-input nodes only. The rest
are matched components (MC), all redundant; an MC receiving an original
edge from some unsaturated node is unsaturated (UMC), otherwise saturated
(SMC). No component can be both an IC and unsaturated-linked: that edge
would extend the matching.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

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


def find_components(ig: InputGraph) -> list[ControlComponent]:
    """Undirected connected components of the control-adjacency graph.

    Components are id-ed 0,1,... in order of their smallest member, kinds
    left unset.
    """
    n = ig.network.n
    parent = list(range(n))

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for e in ig.all_edges():
        ra, rb = find(e.src), find(e.dst)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    return [ControlComponent(id=i, members=frozenset(members))
            for i, (_, members) in enumerate(sorted(groups.items()))]


def _classify(comp: ControlComponent, inputs: frozenset[NodeId],
              linked_targets: set[NodeId]) -> ControlComponent:
    if not comp.members.isdisjoint(inputs):
        kind = ComponentKind.IC
    elif not comp.members.isdisjoint(linked_targets):
        kind = ComponentKind.UMC
    else:
        kind = ComponentKind.SMC
    return ControlComponent(id=comp.id, members=comp.members, kind=kind)


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
    linked: set[NodeId] = set()  # targets of an unsaturated node's edge
    for u in unsaturated:
        linked.update(net.out_adj[u])
    comps = [_classify(c, inputs, linked) for c in find_components(ig)]
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
