"""Exhaustive ground truth on small networks.

Backtracks over every way to match the in-copies, keeping all matchings of
maximum size. The number of maximum matchings grows exponentially, so hard
guard limits protect callers; exceeding them raises instead of silently
truncating, which would corrupt the ground truth.
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
    matchings: tuple[tuple[tuple[NodeId, NodeId], ...], ...]
    input_sets: tuple[frozenset[NodeId], ...]  # deduplicated
    in_some_set: frozenset[NodeId]
    in_all_sets: frozenset[NodeId]


def enumerate_maximum_matchings(net: DirectedNetwork,
                                guard: OracleGuard = OracleGuard()
                                ) -> EnumerationResult:
    """All maximum matchings plus the distinct input sets they induce."""
    n = net.n
    if n > guard.max_nodes:
        raise OracleInfeasibleError(
            f"{n} nodes exceeds the oracle guard of {guard.max_nodes}")

    best: list[tuple[tuple[int, int], ...]] = []
    best_size = 0
    used_out: set[int] = set()
    chosen: list[tuple[int, int]] = []

    def backtrack(v: int):
        nonlocal best_size
        if len(chosen) + (n - v) < best_size:
            return  # cannot reach the best size from here
        if v == n:
            size = len(chosen)
            if size > best_size:
                best_size = size
                best.clear()
            if size == best_size:
                best.append(tuple(chosen))
                if len(best) > guard.max_count:
                    raise OracleInfeasibleError(
                        f"more than {guard.max_count} maximum matchings")
            return
        for u in net.predecessors(v).tolist():
            if u in used_out:
                continue
            used_out.add(u)
            chosen.append((u, v))
            backtrack(v + 1)
            chosen.pop()
            used_out.remove(u)
        backtrack(v + 1)  # leave in-copy v unmatched

    backtrack(0)

    matched_sets = [frozenset(v for _, v in pairs) for pairs in best]
    input_sets = sorted(
        {frozenset(range(n)) - ms for ms in matched_sets},
        key=sorted)
    in_some = frozenset().union(*input_sets) if input_sets else frozenset()
    in_all = (frozenset(input_sets[0]).intersection(*input_sets)
              if input_sets else frozenset())
    return EnumerationResult(
        matching_count=len(best),
        matchings=tuple(tuple(sorted(pairs)) for pairs in best),
        input_sets=tuple(input_sets),
        in_some_set=in_some,
        in_all_sets=in_all,
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
