"""Exhaustive ground truth on small networks.

Backtracks over every way to match the in-copies. Of the matchings of
maximum size it keeps only their number and the distinct sets of matched
in-copies, one bitmask each: at most C(16, 8) = 12 870 of them, however many
matchings there are. The number of maximum matchings grows exponentially, so
hard guard limits bound the time spent; exceeding them raises instead of
silently truncating, which would corrupt the ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalInvariantError, OracleInfeasibleError
from .input_graph import NODE_CLASSES, NodeClass
from .network import DirectedNetwork, NodeId


@dataclass(frozen=True)
class OracleGuard:
    max_nodes: int = 16
    max_count: int = 10 ** 6


@dataclass(frozen=True)
class EnumerationResult:
    matching_count: int
    input_sets: tuple[frozenset[NodeId], ...]  # deduplicated
    in_some_set: frozenset[NodeId]
    in_all_sets: frozenset[NodeId]


def enumerate_maximum_matchings(net: DirectedNetwork,
                                guard: OracleGuard = OracleGuard()
                                ) -> EnumerationResult:
    """The number of maximum matchings and the distinct input sets they
    induce, in ascending order of their sorted members.

    No matching is stored: the guard raises on the ``max_count + 1``-th
    maximum matching of the best size so far, so it bounds time, not memory.
    """
    n = net.n
    if n > guard.max_nodes:
        raise OracleInfeasibleError(
            f"{n} nodes exceeds the oracle guard of {guard.max_nodes}")

    preds = [net.predecessors(v).tolist() for v in range(n)]
    count = best_size = 0
    matched_sets: set[int] = set()  # bit v: in-copy v is matched

    def backtrack(v: int, used_out: int, matched: int, size: int):
        nonlocal count, best_size
        if size + (n - v) < best_size:
            return  # cannot reach the best size from here
        if v == n:
            if size > best_size:
                best_size, count = size, 0
                matched_sets.clear()
            count += 1
            if count > guard.max_count:
                raise OracleInfeasibleError(
                    f"more than {guard.max_count} maximum matchings")
            matched_sets.add(matched)
            return
        for u in preds[v]:
            if not used_out >> u & 1:
                backtrack(v + 1, used_out | 1 << u, matched | 1 << v, size + 1)
        backtrack(v + 1, used_out, matched, size)  # leave in-copy v unmatched

    backtrack(0, 0, 0, 0)

    input_sets = sorted(
        (frozenset(v for v in range(n) if not ms >> v & 1)
         for ms in matched_sets),
        key=sorted)  # never empty: every search reaches a leaf
    return EnumerationResult(
        matching_count=count,
        input_sets=tuple(input_sets),
        in_some_set=frozenset().union(*input_sets),
        in_all_sets=frozenset.intersection(*input_sets),
    )


def classify_exhaustive(net: DirectedNetwork,
                        guard: OracleGuard = OracleGuard()) -> np.ndarray:
    """Node classes straight from the enumeration, no adjacency reasoning."""
    return exhaustive_classes(net, enumerate_maximum_matchings(net, guard))


def exhaustive_classes(net: DirectedNetwork,
                       result: EnumerationResult) -> np.ndarray:
    """Class codes (into ``NODE_CLASSES``) from an enumeration of ``net``."""
    index = NODE_CLASSES.index
    codes = np.full(net.n, index(NodeClass.REDUNDANT), dtype=np.int8)
    codes[list(result.in_some_set)] = index(NodeClass.INTERMITTENT)
    codes[list(result.in_all_sets)] = index(NodeClass.CRITICAL)
    stray = (codes == index(NodeClass.CRITICAL)) != (np.diff(net.in_ptr) == 0)
    if stray.any():
        raise InternalInvariantError(
            f"node {stray.argmax()}: always-input status must coincide with "
            f"zero in-degree")
    return codes
