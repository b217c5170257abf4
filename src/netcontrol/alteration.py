"""Edge additions that flip the control type of a component.

Three procedures, all returning a plan of new edges rather than mutating
the network. Each reads the network, matching, input and unsaturated sets
and input graph of ``before``, the analysis its component comes from
(:class:`~netcontrol.pipeline.NetworkAnalysis`):

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
from itertools import islice
from typing import Iterator

import numpy as np

from .components import ComponentKind, ControlComponent
from .errors import AlterationError, InternalInvariantError
from .input_graph import InputGraph
from .matching import Matching
from .network import DirectedNetwork, NodeId, edge_positions


@dataclass(frozen=True, eq=False)
class AlterationPlan:
    """Ordered edge additions plus before/after bookkeeping.

    ``additions`` is a read-only ``(k, 2)`` int32 array of new edges in
    plan order: source ids in column 0, target ids in column 1. ``reason``
    says why all of them are added: ``saturate_input`` (IC -> SMC),
    ``saturate_unsaturated`` (UMC -> SMC) or ``adjacency_link`` (SMC ->
    IC). ``affected`` holds the ids, ascending, of the nodes whose class the
    plan is meant to change: the component members for saturation plans,
    the covered closure for adjacency links. ``p`` and ``delta_n_d`` stay
    unset until :func:`alteration_report` fills them from the re-analysis
    under ``matching_after``, a maximum matching of the altered network.
    """

    target_component_id: int
    requested_kind: ComponentKind
    additions: np.ndarray
    reason: str
    matching_after: Matching
    affected: np.ndarray
    mis_before: int
    mis_after: int
    p: float | None = None
    delta_n_d: float | None = None


def apply_plan(net: DirectedNetwork, plan: AlterationPlan) -> DirectedNetwork:
    return net.with_edges(plan.additions)


def _edges(pairs) -> np.ndarray:
    """``pairs`` as a plan's read-only ``(k, 2)`` int32 id array."""
    edges = np.array(pairs, dtype=np.int32).reshape(-1, 2)
    edges.flags.writeable = False
    return edges


def _require_kind(comp: ControlComponent, kind: ComponentKind) -> None:
    if comp.kind is not kind:
        raise AlterationError(
            f"component {comp.id} is {comp.kind.value}, expected {kind.value}")


def ic_to_smc(before, comp: ControlComponent) -> AlterationPlan:
    """Plan edges that match every input node of an input component.

    Each input node of the component receives one new edge from a distinct
    unsaturated node. Afterwards all former members are redundant and no
    unsaturated node points at them.
    """
    _require_kind(comp, ComponentKind.IC)
    net = before.network
    targets = comp.members[before.matching.match_in[comp.members] < 0].tolist()
    if not targets:
        raise AlterationError(f"IC {comp.id} has no input node")
    # Donors with out-edges go first: every unsaturated node left over is
    # then a sink and cannot keep any matched component unsaturated-linked.
    unsaturated = before.unsaturated
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
    return _saturation_plan(before, comp, pairs, "saturate_input")


def umc_to_smc(before, comp: ControlComponent) -> AlterationPlan:
    """Plan edges that saturate every unsaturated node linking the component.

    Each unsaturated node with an edge into a member gets one new edge to a
    distinct input node (lowest ids first). Raises
    :class:`AlterationError` when the input nodes run out.
    """
    _require_kind(comp, ComponentKind.UMC)
    net = before.network
    linkers = _linking(net, before.unsaturated, comp.members).tolist()
    if not linkers:
        raise InternalInvariantError(
            f"UMC {comp.id} has no linking unsaturated node")
    receivers = before.input_set.tolist()
    pairs = []
    for u in linkers:
        dst = _take(receivers, lambda d: d != u and not net.has_edge(u, d))
        if dst is None:
            raise AlterationError(
                f"insufficient input nodes to saturate {len(linkers)} "
                f"linking nodes")
        pairs.append((u, dst))
    return _saturation_plan(before, comp, pairs, "saturate_unsaturated")


def _saturation_plan(before, comp, pairs, reason) -> AlterationPlan:
    """Plan whose additions ``(src, dst)`` each match src to dst."""
    additions = _edges(pairs)
    match_out = before.matching.match_out.copy()
    match_out[additions[:, 0]] = additions[:, 1]
    after = Matching(match_out)
    return AlterationPlan(
        target_component_id=comp.id,
        requested_kind=ComponentKind.SMC,
        additions=additions,
        reason=reason,
        matching_after=after,
        affected=comp.members,
        mis_before=before.input_set.size,
        mis_after=before.network.n - after.size,
    )


def smc_to_ic_single(before, comp: ControlComponent) -> AlterationPlan:
    """Link one input node to the member with the widest forward closure.

    That member is the first pick of :func:`smc_to_ic_full`.
    """
    return _cover(before, comp, 1)


def smc_to_ic_full(before, comp: ControlComponent) -> AlterationPlan:
    """Cover every member with links, greedily by uncovered closure size.

    The picks are those of :func:`_greedy_picks`. On the largest SMC of a
    saturated SF network (N=6000, k=10; 5.5k-5.8k members, 444-502 picks)
    that is 6.5k-7.3k gain evaluations instead of the eager 2.5M-2.9M.
    """
    return _cover(before, comp, None)


def _cover(before, comp: ControlComponent, picks: int | None
           ) -> AlterationPlan:
    """One adjacency-link edge, to an input node, per greedy pick.

    Takes the first ``picks`` picks of :func:`_greedy_picks`, all of them
    when ``picks`` is None, and links each pick's matched predecessor to
    the lowest-id input node, other than itself, it has no edge to yet.
    """
    _require_kind(comp, ComponentKind.SMC)
    receivers = before.input_set.tolist()
    if not receivers:
        raise AlterationError("no input node available (perfect matching)")
    closures = _closure_masks(before.input_graph, comp)
    chosen = list(islice(_greedy_picks(closures, comp.size), picks))
    net, match_in = before.network, before.matching.match_in
    pairs = []
    covered = 0
    for node in chosen:
        pred = int(match_in[node])
        if pred < 0:
            raise InternalInvariantError(
                f"member {node} of a matched component has no matched in-edge")
        dst = next((d for d in receivers
                    if d != pred and not net.has_edge(pred, d)), None)
        if dst is None:
            raise AlterationError(f"no feasible addition for member {node}")
        pairs.append((pred, dst))
        covered |= closures[node]
    return AlterationPlan(
        target_component_id=comp.id,
        requested_kind=ComponentKind.IC,
        additions=_edges(pairs),
        reason="adjacency_link",
        matching_after=before.matching,  # links never touch the matching
        affected=comp.members[np.unpackbits(
            np.frombuffer(covered.to_bytes((comp.size + 7) // 8, "little"),
                          dtype=np.uint8),
            count=comp.size, bitorder="little").view(bool)],
        mis_before=before.input_set.size,
        mis_after=before.input_set.size,
    )


def _greedy_picks(closures: dict[NodeId, int],
                  size: int) -> Iterator[NodeId]:
    """Members whose closures cover all ``size`` members, in greedy order.

    Each pick is the member whose closure covers the most still-uncovered
    members, the lowest id on ties (Chvatal's greedy set cover). Members of
    one strongly connected piece share a closure, and two pieces never do,
    so only the lowest id of each distinct closure is a candidate: the
    others would tie with it and lose. Gains only shrink as members get
    covered, so the picks are evaluated lazily (Minoux's accelerated
    greedy): a heap keeps each candidate's last gain as an upper bound,
    and only the head is recomputed until its fresh gain still beats every
    other bound. The picks are exactly the eager ones.
    """
    candidates: dict[int, NodeId] = {}
    for v, mask in closures.items():  # members ascending
        candidates.setdefault(mask, v)
    # Min-heap on (-gain, id): the lowest id wins a gain tie.
    heap = [(-mask.bit_count(), v) for mask, v in candidates.items()]
    heapq.heapify(heap)
    uncovered = (1 << size) - 1
    while uncovered:
        _, v = heapq.heappop(heap)
        entry = (-(closures[v] & uncovered).bit_count(), v)
        if heap and entry > heap[0]:
            heapq.heappush(heap, entry)
            continue
        if entry[0] == 0:
            raise InternalInvariantError("greedy cover made no progress")
        yield v
        uncovered &= ~closures[v]


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
                if on_stack[w] and order[w] < low[v]:
                    low[v] = order[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
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
    values for the original and augmented network; ``after`` is meant to be
    ``analyze(apply_plan(net, plan), seed, plan.matching_after)``, whose
    closure pass is what checks that the plan's matching is maximum. A node
    counts toward ``delta_n_d`` when it moved between possible-input and
    redundant, which no maximum matching changes. ``p``, the additions per
    original edge, stays unset when there were no original edges.
    """
    n = before.network.n
    if after.network.n != n:
        raise ValueError("before/after analyses cover different networks")
    changed = int(np.count_nonzero(before.input_graph.possible_inputs
                                   != after.input_graph.possible_inputs))
    edge_count = before.network.edge_count
    return replace(plan,
                   p=len(plan.additions) / edge_count if edge_count else None,
                   delta_n_d=changed / n)


def plan_attains_goal(plan: AlterationPlan, after) -> bool:
    """Check the plan's outcome against the re-analysis ``after``.

    ``after`` is the analysis of the augmented network under
    ``plan.matching_after``, as :func:`alteration_report` takes it.
    Saturation plans must leave every former member redundant with no
    unsaturated node of that matching pointing at it; adjacency plans must
    turn the whole covered closure into possible inputs.
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
