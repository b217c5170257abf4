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
  links one member per source piece, the smallest cover of all members.

Saturation plans grow the matching by one edge per addition and keep it
maximum; adjacency links leave the matching untouched (for a saturated
component no alternating path can reach an unsaturated node, so no
augmenting path appears).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .components import ComponentKind, ControlComponent, strong_pieces
from .errors import AlterationError, InternalInvariantError
from .matching import Matching
from .network import DirectedNetwork, edge_positions


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

    # no pair is an edge: it would augment analyze's maximum matching
    pairs = []
    for node in targets:
        src = _take(donors, node)
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
    linkers = _linking(before.network, before.unsaturated,
                       comp.members).tolist()
    if not linkers:
        raise InternalInvariantError(
            f"UMC {comp.id} has no linking unsaturated node")
    receivers = before.input_set.tolist()
    pairs = []
    for u in linkers:
        dst = _take(receivers, u)  # as in ic_to_smc, no pair is an edge
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
    """Link one input node to the member with the widest forward closure,
    the lowest id on ties; the plan affects that closure. The member is the
    lowest id of a source piece (see :func:`smc_to_ic_full`)."""
    return _cover(before, comp, single=True)


def smc_to_ic_full(before, comp: ControlComponent) -> AlterationPlan:
    """Link the lowest id of each source piece: a strongly connected piece
    of the component's adjacency graph that no other piece enters. Every
    member is reached from a source piece, and a source piece only from
    itself, so no smaller cover exists. Links are by ascending member id.
    """
    return _cover(before, comp, single=False)


def _cover(before, comp: ControlComponent, single: bool) -> AlterationPlan:
    """Link each chosen member's matched predecessor to the lowest-id input
    node, other than itself, it has no edge to yet."""
    _require_kind(comp, ComponentKind.SMC)
    receivers = before.input_set
    if not receivers.size:
        raise AlterationError("no input node available (perfect matching)")
    ig, members = before.input_graph, comp.members
    index = np.full(ig.network.n, -1, dtype=np.int32)  # -1 off the component
    index[members] = np.arange(members.size, dtype=np.int32)
    keep = index[ig.src] >= 0  # an adjacency edge never leaves its component
    src, dst = index[ig.src[keep]], index[ig.dst[keep]]
    piece = strong_pieces(members.size, src, dst)
    entered = np.zeros(members.size, dtype=bool)
    entered[piece[dst][piece[src] != piece[dst]]] = True
    sources = np.flatnonzero((piece == np.arange(members.size)) & ~entered)
    chosen, reached = (_widest_closure(piece, src, dst, sources) if single
                       else (sources, slice(None)))
    chosen, affected = members[chosen], members[reached]
    preds = before.matching.match_in[chosen]
    if (preds < 0).any():
        raise InternalInvariantError(
            f"member {chosen[preds.argmin()]} of a matched component has no "
            f"matched in-edge")
    at = _first_receivers(before.network, preds, receivers)
    if (at == receivers.size).any():
        raise AlterationError("no feasible addition for member "
                              f"{chosen[at.argmax()]}")
    return AlterationPlan(
        target_component_id=comp.id,
        requested_kind=ComponentKind.IC,
        additions=_edges(np.column_stack((preds, receivers[at]))),
        reason="adjacency_link",
        matching_after=before.matching,  # links never touch the matching
        affected=affected,
        mis_before=before.input_set.size,
        mis_after=before.input_set.size,
    )


def _first_receivers(net: DirectedNetwork, preds: np.ndarray,
                     receivers: np.ndarray) -> np.ndarray:
    """For each of ``preds``, the index of the first of ``receivers`` other
    than itself that it has no edge to; ``receivers.size`` if none.

    Every pred tries its next receiver at once; only those that fail retry.
    """
    at = np.zeros(preds.size, dtype=np.intp)
    todo = np.arange(preds.size)
    while todo.size:
        u, v = preds[todo], receivers[at[todo]]
        todo = todo[(u == v) | net.has_edges(u, v)]
        at[todo] += 1
        todo = todo[at[todo] < receivers.size]
    return at


def _widest_closure(piece: np.ndarray, src: np.ndarray, dst: np.ndarray,
                    sources: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The source with the widest closure (the lowest on ties), as a
    one-element array, and a node mask of that closure.

    ``piece`` labels the nodes of the digraph ``src -> dst`` by strongly
    connected piece, ``sources`` the pieces no other piece enters. One bit
    per source flows along the edges between pieces in Kahn levels, so each
    edge is read once; a closure's size sums the sizes of its pieces.
    """
    labels, pid = np.unique(piece, return_inverse=True)
    count = labels.size
    tail, head = pid[src], pid[dst]
    key = np.unique((tail * count + head)[tail != head])
    tail, head = key // count, key % count  # edges between pieces, by tail
    ptr = np.searchsorted(tail, np.arange(count + 1))
    waiting = np.bincount(head, minlength=count)
    bit = np.arange(sources.size)  # in bytes, little bit order; ORed as words
    reach = np.zeros((count, -(-sources.size // 64) * 8), dtype=np.uint8)
    reach[pid[sources], bit // 8] = 1 << bit % 8
    words, level = reach.view(np.uint64), pid[sources]
    while level.size:
        pos = edge_positions(ptr, level)[0]
        pos = pos[np.argsort(head[pos])]
        into, first, edges = np.unique(head[pos], return_index=True,
                                       return_counts=True)
        words[into] |= np.bitwise_or.reduceat(words[tail[pos]], first)
        waiting[into] -= edges
        level = into[waiting[into] == 0]
    total = np.zeros(sources.size, dtype=np.int64)
    sizes, step = np.bincount(pid), max(1, (1 << 20) // sources.size)
    for lo in range(0, count, step):  # about 1M bits unpacked at a time
        total += np.einsum("i,ij->j", sizes[lo:lo + step], np.unpackbits(
            reach[lo:lo + step], axis=1, count=sources.size, bitorder="little"))
    k = int(total.argmax())
    return sources[k:k + 1], (reach[:, k // 8] >> k % 8 & 1).astype(bool)[pid]


def _take(available: list[int], other_than: int) -> int | None:
    for i, cand in enumerate(available):
        if cand != other_than:
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
