"""Directed-network storage and edge-list I/O.

Networks are simple digraphs over dense integer node ids ``0..N-1``. Ids are
assigned in first-appearance order when parsing, so a given edge list always
produces the same id assignment. The original string labels are kept for
output. Duplicate edges are collapsed (and counted); self-loops are stored
and counted by :meth:`DirectedNetwork.self_loop_count`.
"""

from __future__ import annotations

import io
import re
import warnings
from bisect import bisect_left
from typing import Iterable, TextIO

from .errors import EdgeListParseError

NodeId = int

# Optional header directive declaring the node count, e.g. "# nodes: 2000".
# It lets files express isolated nodes, which a bare pair-per-line edge list
# cannot. Only recognized before the first edge line, and only with integer
# labels in [0, N).
_NODES_DIRECTIVE = re.compile(r"^#\s*nodes:\s*0*(\d+)\s*$")
MAX_DECLARED_NODES = 10 ** 7  # bounds the labels interned before any edge


class DirectedNetwork:
    """Immutable simple directed graph with a label table.

    The edge set is stored once, as sorted out-adjacency; the in-adjacency
    is built from it.

    Attributes
    ----------
    n : int
        Number of nodes.
    labels : tuple[str]
        Original label of each node, indexed by id.
    out_adj, in_adj : tuple[tuple[int, ...]]
        Sorted, duplicate-free adjacency indexes.
    duplicates_collapsed : int
        Repeated input edges dropped here, the one place that deduplicates.
    """

    __slots__ = ("n", "labels", "out_adj", "in_adj", "duplicates_collapsed",
                 "_label_to_id")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]],
                 labels: Iterable[str] | None = None):
        self.n = n
        out: list[list[int]] = [[] for _ in range(n)]
        given = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            out[u].append(v)
            given += 1
        self.out_adj = tuple(tuple(sorted(set(t))) for t in out)
        inn: list[list[int]] = [[] for _ in range(n)]
        for u, targets in enumerate(self.out_adj):
            for v in targets:
                inn[v].append(u)  # ascending u keeps each list sorted
        self.in_adj = tuple(map(tuple, inn))
        self.duplicates_collapsed = given - self.edge_count
        self.labels = tuple(str(x) for x in labels) if labels is not None \
            else tuple(str(i) for i in range(n))
        if len(self.labels) != n:
            raise ValueError("label table size does not match node count")
        self._label_to_id = {lab: i for i, lab in enumerate(self.labels)}
        if len(self._label_to_id) != n:
            raise ValueError("duplicate labels in label table")

    @property
    def edges(self) -> tuple[tuple[NodeId, NodeId], ...]:
        """Distinct (src, dst) pairs in (src, dst) order."""
        return tuple((u, v) for u, targets in enumerate(self.out_adj)
                     for v in targets)

    @property
    def edge_count(self) -> int:
        return sum(map(len, self.out_adj))

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        if not 0 <= u < self.n:
            return False
        targets = self.out_adj[u]
        i = bisect_left(targets, v)
        return i < len(targets) and targets[i] == v

    def in_degree(self, v: NodeId) -> int:
        return len(self.in_adj[v])

    def out_degree(self, v: NodeId) -> int:
        return len(self.out_adj[v])

    def self_loop_count(self) -> int:
        return sum(self.has_edge(u, u) for u in range(self.n))

    def id_of(self, label: str) -> NodeId:
        return self._label_to_id[label]

    def with_edges(self, additions: Iterable[tuple[int, int]]) -> "DirectedNetwork":
        """Return a new network with the given edges added."""
        extra = tuple(additions)
        for u, v in extra:
            if self.has_edge(u, v):
                raise ValueError(f"edge ({u}, {v}) already present")
        return DirectedNetwork(self.n, self.edges + extra, self.labels)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DirectedNetwork):
            return NotImplemented
        return (self.n == other.n and self.out_adj == other.out_adj
                and self.labels == other.labels)

    def __hash__(self):
        return hash((self.n, self.edge_count, self.labels))

    def __repr__(self) -> str:
        return f"DirectedNetwork(n={self.n}, edges={self.edge_count})"


def load_edge_list(source: str | TextIO) -> DirectedNetwork:
    """Parse a whitespace-separated edge list into a network.

    Each non-comment line holds exactly two node labels (source, target).
    Lines starting with ``#`` are comments; a leading ``# nodes: N``
    directive pre-registers nodes ``0..N-1``. One leading byte-order mark is
    dropped. A file object is read line by line, never whole. Duplicate
    edges are collapsed with a warning. Raises :class:`EdgeListParseError`
    on malformed lines or empty input.
    """
    lines = source if hasattr(source, "read") else io.StringIO(source)
    blank = True
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

    for lineno, raw in enumerate(lines, start=1):
        if lineno == 1:
            raw = raw.removeprefix("\ufeff")
        line = raw.strip()
        if not line:
            continue
        blank = False
        if line.startswith("#"):
            m = _NODES_DIRECTIVE.match(line)
            if m:
                if edges or labels:
                    raise EdgeListParseError(
                        "'# nodes:' directive must precede edges", lineno)
                digits = m.group(1)  # leading zeros stay outside
                if (len(digits) > len(str(MAX_DECLARED_NODES))
                        or int(digits) > MAX_DECLARED_NODES):
                    raise EdgeListParseError(
                        f"declared {digits} nodes, more than the limit "
                        f"of {MAX_DECLARED_NODES}", lineno)
                declared_n = int(digits)
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

    if blank:
        raise EdgeListParseError("empty input")
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
    labels = net.labels
    lines = [f"{labels[u]}\t{labels[v]}"
             for u, targets in enumerate(net.out_adj) for v in targets]
    return "\n".join(lines) + ("\n" if lines else "")
