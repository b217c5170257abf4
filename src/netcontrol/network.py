"""Directed-network storage, edge-list I/O, and basic statistics.

Networks are simple digraphs over dense integer node ids ``0..N-1``. Ids are
assigned in first-appearance order when parsing, so a given edge list always
produces the same id assignment. The original string labels are kept for
output. Duplicate edges are collapsed (and counted); self-loops are stored
but flagged in :func:`basic_stats`.
"""

from __future__ import annotations

import io
import re
import warnings
from dataclasses import dataclass
from typing import Iterable, TextIO

from .errors import EdgeListParseError

NodeId = int

# Optional header directive declaring the node count, e.g. "# nodes: 2000".
# It lets files express isolated nodes, which a bare pair-per-line edge list
# cannot. Only recognized before the first edge line, and only with integer
# labels in [0, N).
_NODES_DIRECTIVE = re.compile(r"^#\s*nodes:\s*(\d+)\s*$")
MAX_DECLARED_NODES = 10 ** 7  # bounds the labels interned before any edge


class DirectedNetwork:
    """Immutable simple directed graph with a label table.

    Attributes
    ----------
    n : int
        Number of nodes.
    edges : tuple[tuple[int, int]]
        Distinct (src, dst) pairs, in insertion order.
    labels : tuple[str]
        Original label of each node, indexed by id.
    out_adj, in_adj : tuple[tuple[int, ...]]
        Sorted adjacency indexes, consistent with ``edges``.
    duplicates_collapsed : int
        Repeated input edges dropped here, the one place that deduplicates.
    """

    __slots__ = ("n", "edges", "labels", "out_adj", "in_adj",
                 "duplicates_collapsed", "_edge_set", "_label_to_id")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]],
                 labels: Iterable[str] | None = None):
        self.n = n
        seen: set[tuple[int, int]] = set()
        kept: list[tuple[int, int]] = []
        dups = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if (u, v) in seen:
                dups += 1
                continue
            seen.add((u, v))
            kept.append((u, v))
        self.edges = tuple(kept)
        self._edge_set = seen
        self.labels = tuple(str(x) for x in labels) if labels is not None \
            else tuple(str(i) for i in range(n))
        if len(self.labels) != n:
            raise ValueError("label table size does not match node count")
        self._label_to_id = {lab: i for i, lab in enumerate(self.labels)}
        if len(self._label_to_id) != n:
            raise ValueError("duplicate labels in label table")
        out: list[list[int]] = [[] for _ in range(n)]
        inn: list[list[int]] = [[] for _ in range(n)]
        for u, v in kept:
            out[u].append(v)
            inn[v].append(u)
        self.out_adj = tuple(tuple(sorted(t)) for t in out)
        self.in_adj = tuple(tuple(sorted(t)) for t in inn)
        self.duplicates_collapsed = dups

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        return (u, v) in self._edge_set

    def in_degree(self, v: NodeId) -> int:
        return len(self.in_adj[v])

    def out_degree(self, v: NodeId) -> int:
        return len(self.out_adj[v])

    def self_loop_count(self) -> int:
        return sum(1 for u, v in self.edges if u == v)

    def id_of(self, label: str) -> NodeId:
        return self._label_to_id[label]

    def with_edges(self, additions: Iterable[tuple[int, int]]) -> "DirectedNetwork":
        """Return a new network with the given edges appended."""
        extra = list(additions)
        for u, v in extra:
            if (u, v) in self._edge_set:
                raise ValueError(f"edge ({u}, {v}) already present")
        return DirectedNetwork(self.n, list(self.edges) + extra, self.labels)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DirectedNetwork):
            return NotImplemented
        return (self.n == other.n and self._edge_set == other._edge_set
                and self.labels == other.labels)

    def __hash__(self):
        return hash((self.n, len(self._edge_set), self.labels))

    def __repr__(self) -> str:
        return f"DirectedNetwork(n={self.n}, edges={self.edge_count})"


def load_edge_list(source: str | TextIO) -> DirectedNetwork:
    """Parse a whitespace-separated edge list into a network.

    Each non-comment line holds exactly two node labels (source, target).
    Lines starting with ``#`` are comments; a leading ``# nodes: N``
    directive pre-registers nodes ``0..N-1``. Duplicate edges are collapsed
    with a warning. Raises :class:`EdgeListParseError` on malformed lines or
    empty input.
    """
    text = source.read() if hasattr(source, "read") else source
    if text is None or text.strip() == "":
        raise EdgeListParseError("empty input")

    declared_n: int | None = None
    labels: list[str] = []
    label_to_id: dict[str, int] = {}
    edges: list[tuple[int, int]] = []

    def intern(label: str) -> int:
        i = label_to_id.get(label)
        if i is None:
            i = len(labels)
            label_to_id[label] = i
            labels.append(label)
        return i

    for lineno, raw in enumerate(io.StringIO(text), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = _NODES_DIRECTIVE.match(line)
            if m:
                if edges or labels:
                    raise EdgeListParseError(
                        "'# nodes:' directive must precede edges", lineno)
                declared_n = int(m.group(1))
                if declared_n > MAX_DECLARED_NODES:
                    raise EdgeListParseError(
                        f"declared {declared_n} nodes, more than the limit "
                        f"of {MAX_DECLARED_NODES}", lineno)
                for i in range(declared_n):
                    intern(str(i))
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise EdgeListParseError(
                f"expected two node labels, got {len(tokens)}", lineno)
        if declared_n is not None:
            for tok in tokens:
                if tok not in label_to_id:
                    raise EdgeListParseError(
                        f"label {tok!r} outside declared node range "
                        f"0..{declared_n - 1}", lineno)
        edges.append((intern(tokens[0]), intern(tokens[1])))

    if not labels:
        raise EdgeListParseError("no nodes found in input")
    net = DirectedNetwork(len(labels), edges, labels)
    if net.duplicates_collapsed:
        warnings.warn(f"collapsed {net.duplicates_collapsed} duplicate "
                      f"edge(s)", stacklevel=2)
    return net


def write_edge_list(net: DirectedNetwork) -> str:
    """Serialize edges as ``src<TAB>dst`` lines sorted by (src id, dst id).

    Round-trips with :func:`load_edge_list` for networks without isolated
    nodes; pair the output with a ``# nodes: N`` directive to preserve
    isolated nodes as well.
    """
    lines = [f"{net.labels[u]}\t{net.labels[v]}"
             for u, v in sorted(net.edges)]
    return "\n".join(lines) + ("\n" if lines else "")


@dataclass(frozen=True)
class NetworkStats:
    """Node/edge counts plus the total-degree average ``2L/N``."""

    n: int
    edge_count: int
    avg_degree: float
    self_loops: int


def basic_stats(net: DirectedNetwork) -> NetworkStats:
    if net.n == 0:
        raise ValueError("network has no nodes")
    return NetworkStats(
        n=net.n,
        edge_count=net.edge_count,
        avg_degree=2.0 * net.edge_count / net.n,
        self_loops=net.self_loop_count(),
    )
