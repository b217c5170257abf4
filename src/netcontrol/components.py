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

from .errors import InternalInvariantError
from .input_graph import InputGraph
from .matching import Matching, input_nodes, unsaturated_nodes
from .network import DirectedNetwork, NodeId, basic_stats


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


def _unsaturated_targets(net: DirectedNetwork,
                         m: Matching) -> frozenset[NodeId]:
    """Nodes receiving an original edge from some unsaturated node."""
    targets: set[NodeId] = set()
    for u in unsaturated_nodes(net, m):
        targets.update(net.out_adj[u])
    return frozenset(targets)


def _classify(comp: ControlComponent, inputs: frozenset[NodeId],
              linked_targets: frozenset[NodeId]) -> ControlComponent:
    has_input = not comp.members.isdisjoint(inputs)
    is_linked = not comp.members.isdisjoint(linked_targets)
    if has_input and is_linked:
        raise InternalInvariantError(
            f"component {comp.id} holds an input node and is linked by an "
            f"unsaturated node; the matching cannot be maximum")
    if has_input:
        kind = ComponentKind.IC
    elif is_linked:
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


def component_report(net: DirectedNetwork, m: Matching,
                     ig: InputGraph) -> ComponentReport:
    """Classify every component and assemble the summary report.

    Also asserts the class-purity of components: every IC member must be a
    possible input, every MC member redundant.
    """
    stats = basic_stats(net)
    inputs = input_nodes(net, m)
    linked = _unsaturated_targets(net, m)
    comps = [_classify(c, inputs.nodes, linked) for c in find_components(ig)]

    total = sum(c.size for c in comps)
    if total != net.n:
        raise InternalInvariantError(
            f"component sizes sum to {total}, expected {net.n}")
    for comp in comps:
        in_closure = not comp.members.isdisjoint(ig.possible_inputs)
        if comp.kind is ComponentKind.IC:
            if not comp.members <= ig.possible_inputs:
                raise InternalInvariantError(
                    f"IC {comp.id} contains a redundant node")
        elif in_closure:
            raise InternalInvariantError(
                f"{comp.kind.value} {comp.id} contains a possible input node")

    return ComponentReport(
        n=stats.n,
        edge_count=stats.edge_count,
        avg_degree=stats.avg_degree,
        mis_size=len(inputs),
        perfectly_matched=inputs.perfectly_matched,
        components=tuple(comps),
        cc_max=largest_component(comps),
    )


def largest_component(comps) -> ControlComponent:
    """The largest classified component; ties go to IC, UMC, SMC, then id."""
    return min(comps, key=lambda c: (-c.size, _KIND_PRIORITY[c.kind], c.id))
