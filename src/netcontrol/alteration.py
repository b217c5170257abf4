"""Edge additions that flip the control type of a component.

Three procedures, all returning a plan of new edges rather than mutating
the network:

* IC -> SMC: match every input node of the component by adding one edge
  from a distinct unsaturated node to each of them.
* UMC -> SMC: saturate every unsaturated node with an edge into the
  component by pointing one new edge from each of them to a distinct input
  node.
* SMC -> IC: link the matched predecessor of a well-chosen member to an
  input node; the input node becomes control adjacent to that member, so
  its whole forward closure flips to possible input. The full variant
  covers every member with a greedy choice of closure sets.

Saturation plans grow the matching by one edge per addition and keep it
maximum; adjacency links leave the matching untouched (for a saturated
component no alternating path can reach an unsaturated node, so no
augmenting path appears).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .components import ComponentKind, ControlComponent
from .errors import (AlterationError, InsufficientInputNodesError,
                     InternalInvariantError)
from .input_graph import InputGraph, build_input_graph
from .matching import Matching, input_nodes, unsaturated_nodes
from .network import DirectedNetwork, NodeId, edge_positions


class EdgeAddition(NamedTuple):
    src: NodeId
    dst: NodeId
    reason: str  # saturate_input | saturate_unsaturated | adjacency_link


@dataclass(frozen=True, eq=False)
class AlterationPlan:
    """Ordered edge additions plus before/after bookkeeping.

    ``affected`` holds the ids, ascending, of the nodes whose class the
    plan is meant to change: the component members for saturation plans,
    the covered closure for adjacency links. ``p`` and ``delta_n_d`` stay
    unset until :func:`alteration_report` fills them from full re-analyses.
    """

    target_component_id: int
    requested_kind: ComponentKind
    additions: tuple[EdgeAddition, ...]
    matching_after: Matching
    affected: np.ndarray
    mis_before: int
    mis_after: int
    p: float | None = None
    delta_n_d: float | None = None

    @property
    def edge_labels(self) -> tuple[tuple[NodeId, NodeId], ...]:
        return tuple((a.src, a.dst) for a in self.additions)


def apply_plan(net: DirectedNetwork, plan: AlterationPlan) -> DirectedNetwork:
    return net.with_edges(plan.edge_labels)


def _require_kind(comp: ControlComponent, kind: ComponentKind) -> None:
    if comp.kind is not kind:
        raise AlterationError(
            f"component {comp.id} is {comp.kind.value}, expected {kind.value}")


def ic_to_smc(net: DirectedNetwork, m: Matching,
              comp: ControlComponent) -> AlterationPlan:
    """Plan edges that match every input node of an input component.

    Each input node of the component receives one new edge from a distinct
    unsaturated node. Afterwards all former members are redundant and no
    unsaturated node points at them.
    """
    _require_kind(comp, ComponentKind.IC)
    targets = comp.members[m.match_in[comp.members] < 0].tolist()
    if not targets:
        raise AlterationError(f"IC {comp.id} has no input node")
    # Donors with out-edges go first: every unsaturated node left over is
    # then a sink and cannot keep any matched component unsaturated-linked.
    unsaturated = unsaturated_nodes(m)
    sink = np.diff(net.out_ptr)[unsaturated] == 0
    donors = np.concatenate((unsaturated[~sink], unsaturated[sink])).tolist()
    if len(donors) < len(targets):
        raise InternalInvariantError(
            "fewer unsaturated nodes than input nodes; the split is unbalanced")

    pairs = []
    for node in targets:
        src = _take(donors, lambda s: s != node and not net.has_edge(s, node))
        if src is None:
            raise AlterationError("no feasible addition for input node "
                                  f"{node}")
        pairs.append((src, node))
    return _saturation_plan(net, m, comp, pairs, "saturate_input")


def umc_to_smc(net: DirectedNetwork, m: Matching,
               comp: ControlComponent) -> AlterationPlan:
    """Plan edges that saturate every unsaturated node linking the component.

    Each unsaturated node with an edge into a member gets one new edge to a
    distinct input node (lowest ids first). Raises
    :class:`InsufficientInputNodesError` with the partial plan when the
    input nodes run out.
    """
    _require_kind(comp, ComponentKind.UMC)
    linkers = _linking(net, unsaturated_nodes(m), comp.members).tolist()
    if not linkers:
        raise InternalInvariantError(
            f"UMC {comp.id} has no linking unsaturated node")
    receivers = input_nodes(m).tolist()
    pairs = []
    for u in linkers:
        dst = _take(receivers, lambda d: d != u and not net.has_edge(u, d))
        if dst is None:
            raise InsufficientInputNodesError(
                f"insufficient input nodes to saturate {len(linkers)} "
                f"linking nodes", partial_additions=[
                    EdgeAddition(*pair, "saturate_unsaturated")
                    for pair in pairs])
        pairs.append((u, dst))
    return _saturation_plan(net, m, comp, pairs, "saturate_unsaturated")


def _saturation_plan(net, m, comp, pairs, reason) -> AlterationPlan:
    """Plan whose additions ``(src, dst)`` each match src to dst."""
    match_out = m.match_out.copy()
    match_out[[u for u, _ in pairs]] = [v for _, v in pairs]
    after = Matching(match_out)
    return AlterationPlan(
        target_component_id=comp.id,
        requested_kind=ComponentKind.SMC,
        additions=tuple(EdgeAddition(*pair, reason) for pair in pairs),
        matching_after=after,
        affected=comp.members,
        mis_before=net.n - m.size,
        mis_after=net.n - after.size,
    )


def smc_to_ic_single(net: DirectedNetwork, m: Matching,
                     comp: ControlComponent,
                     ig: InputGraph | None = None) -> AlterationPlan:
    """Link one input node to the member with the widest forward closure."""
    _require_kind(comp, ComponentKind.SMC)
    if ig is None:
        ig = build_input_graph(net, m)
    closures = _closure_masks(ig, comp)
    best = max(comp.members.tolist(),
               key=lambda v: (closures[v].bit_count(), -v))
    additions, covered = _link_edges(net, m, comp, [best], closures)
    return _adjacency_plan(net, m, comp, additions, covered)


def smc_to_ic_full(net: DirectedNetwork, m: Matching,
                   comp: ControlComponent,
                   ig: InputGraph | None = None) -> AlterationPlan:
    """Cover every member with links, greedily by uncovered closure size.

    Each pick is the member whose closure covers the most still-uncovered
    members, the lowest id on ties (Chvatal's greedy set cover). Gains
    only shrink as members get covered, so the picks are evaluated lazily
    (Minoux's accelerated greedy): a heap keeps each member's last gain as
    an upper bound, and only the head is recomputed until its fresh gain
    still beats every other bound. The picks are exactly the eager ones.
    On the largest SMC of a saturated SF network (N=6000, k=10; 5.5k-5.8k
    members, 444-502 picks) that is 6.5k-7.3k gain evaluations instead of
    the eager 2.5M-2.9M.
    """
    _require_kind(comp, ComponentKind.SMC)
    if ig is None:
        ig = build_input_graph(net, m)
    closures = _closure_masks(ig, comp)
    # Min-heap on (-gain, id): the lowest id wins a gain tie.
    heap = [(-closures[v].bit_count(), v) for v in comp.members.tolist()]
    heapq.heapify(heap)
    uncovered = (1 << comp.size) - 1
    chosen: list[NodeId] = []
    while uncovered:
        _, v = heapq.heappop(heap)
        entry = (-(closures[v] & uncovered).bit_count(), v)
        if heap and entry > heap[0]:
            heapq.heappush(heap, entry)
            continue
        if entry[0] == 0:
            raise InternalInvariantError("greedy cover made no progress")
        chosen.append(v)
        uncovered &= ~closures[v]
    additions, covered = _link_edges(net, m, comp, chosen, closures)
    return _adjacency_plan(net, m, comp, additions, covered)


def _adjacency_plan(net, m, comp, additions, covered) -> AlterationPlan:
    mis = net.n - m.size
    return AlterationPlan(
        target_component_id=comp.id,
        requested_kind=ComponentKind.IC,
        additions=tuple(additions),
        matching_after=m,  # adjacency links never touch the matching
        affected=covered,
        mis_before=mis,
        mis_after=mis,
    )


def _link_edges(net: DirectedNetwork, m: Matching, comp: ControlComponent,
                chosen: list[NodeId], closures: dict[NodeId, int]):
    """One adjacency-link edge per chosen member, all to input nodes."""
    receivers = input_nodes(m).tolist()
    if not receivers:
        raise AlterationError("no input node available (perfect matching)")
    additions: list[EdgeAddition] = []
    covered = 0
    for node in chosen:
        pred = int(m.match_in[node])
        if pred < 0:
            raise InternalInvariantError(
                f"member {node} of a matched component has no matched in-edge")
        dst = next((d for d in receivers
                    if d != pred and not net.has_edge(pred, d)), None)
        if dst is None:
            raise AlterationError(f"no feasible addition for member {node}")
        additions.append(EdgeAddition(pred, dst, "adjacency_link"))
        covered |= closures[node]
    return additions, comp.members[[bool(covered >> i & 1)
                                    for i in range(comp.size)]]


def _closure_masks(ig: InputGraph, comp: ControlComponent) -> dict[NodeId, int]:
    """Forward-closure bitmasks (over member indices) for every member.

    Members in the same strongly connected piece share a closure. An
    iterative Tarjan search emits the pieces sinks first, so each piece's
    mask is its members' bits plus their successors' finished masks.
    """
    members = comp.members.tolist()
    index = np.full(ig.network.n, -1, dtype=np.int64)
    index[comp.members] = np.arange(len(members))
    si, di = index[ig.src], index[ig.dst]
    inside = (si >= 0) & (di >= 0)
    adj: list[list[int]] = [[] for _ in members]
    for x, y in zip(si[inside].tolist(), di[inside].tolist()):
        adj[x].append(y)

    order = [-1] * len(members)  # discovery number
    low = [0] * len(members)
    closure = [0] * len(members)  # final once the member's piece is emitted
    stack: list[int] = []
    on_stack = [False] * len(members)
    counter = 0
    for root in range(len(members)):
        if order[root] >= 0:
            continue
        work = [(root, iter(adj[root]))]
        while work:
            v, successors = work[-1]
            if order[v] < 0:
                order[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            for w in successors:
                if order[w] < 0:
                    work.append((w, iter(adj[w])))
                    break
                if on_stack[w]:
                    low[v] = min(low[v], order[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == order[v]:  # v's piece is the stack above v
                    piece = []
                    while not piece or piece[-1] != v:
                        piece.append(stack.pop())
                        on_stack[piece[-1]] = False
                    mask = 0  # members of the piece still read 0 here
                    for x in piece:
                        mask |= 1 << x
                        for w in adj[x]:
                            mask |= closure[w]
                    for x in piece:
                        closure[x] = mask

    return dict(zip(members, closure))


def _take(available: list[int], ok) -> int | None:
    for i, cand in enumerate(available):
        if ok(cand):
            return available.pop(i)
    return None


def alteration_report(before, after, plan: AlterationPlan) -> AlterationPlan:
    """Fill ``p`` and ``delta_n_d`` from before/after pipeline analyses.

    ``before``/``after`` are :class:`~netcontrol.pipeline.NetworkAnalysis`
    values for the original and augmented network. A node counts toward
    ``delta_n_d`` when it moved between possible-input and redundant.
    ``p``, the additions per original edge, stays unset when there were no
    original edges.
    """
    n = before.network.n
    if after.network.n != n:
        raise ValueError("before/after analyses cover different networks")
    changed = int(np.count_nonzero(before.input_graph.possible_inputs
                                   != after.input_graph.possible_inputs))
    mis_before = before.report.mis_size
    mis_after = after.report.mis_size
    if mis_after != plan.mis_after:
        raise InternalInvariantError(
            f"re-analysis found {mis_after} input nodes, plan expected "
            f"{plan.mis_after}")
    edge_count = before.report.edge_count
    return replace(plan,
                   p=len(plan.additions) / edge_count if edge_count else None,
                   delta_n_d=changed / n,
                   mis_before=mis_before,
                   mis_after=mis_after)


def plan_attains_goal(plan: AlterationPlan, after) -> bool:
    """Check the plan's outcome against the re-analysis ``after``.

    Saturation plans must leave every former member redundant with no
    unsaturated node pointing at it; adjacency plans must turn the whole
    covered closure into possible inputs.
    """
    possible = after.input_graph.possible_inputs[plan.affected]
    if plan.requested_kind is ComponentKind.SMC:
        return not (possible.any() or _linking(
            after.network, after.unsaturated, plan.affected).size)
    return bool(possible.all())


def _linking(net: DirectedNetwork, sources: np.ndarray,
             targets: np.ndarray) -> np.ndarray:
    """The ``sources`` with an edge into ``targets``, ascending."""
    inside = np.zeros(net.n, dtype=bool)
    inside[targets] = True
    pos, counts = edge_positions(net.out_ptr, sources)
    return np.unique(np.repeat(sources, counts)[inside[net.out_idx[pos]]])
