"""Directed-network storage and edge-list I/O.

Networks are simple digraphs over dense integer node ids ``0..N-1``. Ids are
assigned in first-appearance order when parsing, so a given edge list always
produces the same id assignment. The original string labels are kept for
output. Duplicate edges are collapsed (and counted); self-loops are stored
and counted by :meth:`DirectedNetwork.self_loop_count`.

The edge set is stored once, as sorted compressed sparse rows (int32 ids,
int64 offsets) in both directions, which every stage of the analysis reads.
On ER N=10^5, k=10 the constructor takes about 0.05 s and loading the file
about 0.8 s, most of it splitting lines and interning labels.
"""

from __future__ import annotations

import io
import re
import warnings
from typing import Iterable, TextIO

import numpy as np

from .errors import EdgeListParseError

NodeId = int

# Optional header directive declaring the node count, e.g. "# nodes: 2000".
# It lets files express isolated nodes, which a bare pair-per-line edge list
# cannot. Only recognized before the first edge line, and only with integer
# labels in [0, N).
_NODES_DIRECTIVE = re.compile(r"^#\s*nodes:\s*0*(\d+)\s*$")
MAX_DECLARED_NODES = 10 ** 7  # bounds the labels interned before any edge
_CHUNK_CHARS = 1 << 20  # characters of lines parsed per batch


def _offsets(ids: np.ndarray, n: int) -> np.ndarray:
    """CSR row offsets for edges grouped by ``ids`` (sorted or not)."""
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(ids, minlength=n), out=ptr[1:])
    return ptr


def edge_positions(ptr: np.ndarray, nodes: np.ndarray):
    """Positions in a CSR index array of the rows of ``nodes``.

    Returns the positions, row after row, and each row's length.
    """
    starts = ptr[nodes]
    counts = ptr[nodes + 1] - starts
    ends = np.cumsum(counts)
    starts -= ends - counts
    pos = np.repeat(starts, counts)
    pos += np.arange(pos.size)
    return pos, counts


class DirectedNetwork:
    """Immutable simple directed graph with a label table.

    Attributes
    ----------
    n : int
        Number of nodes.
    labels : tuple[str]
        Original label of each node, indexed by id.
    out_ptr, out_idx, in_ptr, in_idx : numpy.ndarray
        Sorted, duplicate-free adjacency as CSR arrays in both directions.
    duplicates_collapsed : int
        Repeated input edges dropped here, the one place that deduplicates.
    """

    __slots__ = ("n", "labels", "out_ptr", "out_idx", "in_ptr", "in_idx",
                 "duplicates_collapsed", "_label_to_id")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] | np.ndarray,
                 labels: Iterable[str] | None = None):
        """Build from ``edges``, a sequence of pairs or an ``(L, 2)`` array."""
        self.n = n
        pairs = np.asarray(edges if hasattr(edges, "__len__") else list(edges),
                           dtype=np.int64).reshape(-1, 2)
        bad = ((pairs < 0) | (pairs >= n)).any(axis=1)
        if bad.any():
            u, v = pairs[bad.argmax()].tolist()
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        # One sort of the keys u*n+v drops duplicates and orders the rows.
        keys = np.sort(pairs[:, 0] * n + pairs[:, 1])
        keep = np.empty(keys.size, dtype=bool)
        keep[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=keep[1:])
        keys = keys[keep]
        self.duplicates_collapsed = len(pairs) - keys.size
        src, dst = np.divmod(keys, n)
        self.out_ptr = _offsets(src, n)
        self.out_idx = dst.astype(np.int32)
        self.in_ptr = _offsets(dst, n)
        self.in_idx = (np.sort(dst * n + src) % n).astype(np.int32)
        self.labels = tuple(map(str, labels)) if labels is not None \
            else tuple(map(str, range(n)))
        if len(self.labels) != n:
            raise ValueError("label table size does not match node count")
        self._label_to_id = {lab: i for i, lab in enumerate(self.labels)}
        if len(self._label_to_id) != n:
            raise ValueError("duplicate labels in label table")

    def edge_sources(self) -> np.ndarray:
        """Source id of each edge, aligned with ``out_idx``."""
        return np.repeat(np.arange(self.n, dtype=np.int32),
                         np.diff(self.out_ptr))

    @property
    def edges(self) -> tuple[tuple[NodeId, NodeId], ...]:
        """Distinct (src, dst) pairs in (src, dst) order."""
        return tuple(zip(self.edge_sources().tolist(), self.out_idx.tolist()))

    @property
    def edge_count(self) -> int:
        return self.out_idx.size

    def successors(self, u: NodeId) -> np.ndarray:
        """Sorted out-neighbours of ``u`` (a view into ``out_idx``)."""
        return self.out_idx[self.out_ptr[u]:self.out_ptr[u + 1]]

    def predecessors(self, v: NodeId) -> np.ndarray:
        """Sorted in-neighbours of ``v`` (a view into ``in_idx``)."""
        return self.in_idx[self.in_ptr[v]:self.in_ptr[v + 1]]

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        if not 0 <= u < self.n:
            return False
        targets = self.successors(u)
        i = int(targets.searchsorted(v))
        return i < targets.size and int(targets[i]) == v

    def in_degree(self, v: NodeId) -> int:
        return int(self.in_ptr[v + 1] - self.in_ptr[v])

    def out_degree(self, v: NodeId) -> int:
        return int(self.out_ptr[v + 1] - self.out_ptr[v])

    def self_loop_count(self) -> int:
        return int(np.count_nonzero(self.edge_sources() == self.out_idx))

    def id_of(self, label: str) -> NodeId:
        return self._label_to_id[label]

    def with_edges(self, additions: Iterable[tuple[int, int]]) -> "DirectedNetwork":
        """Return a new network with the given edges added."""
        extra = np.asarray(list(additions), dtype=np.int64).reshape(-1, 2)
        for u, v in extra.tolist():
            if self.has_edge(u, v):
                raise ValueError(f"edge ({u}, {v}) already present")
        pairs = np.column_stack((self.edge_sources(), self.out_idx))
        return DirectedNetwork(self.n, np.concatenate((pairs, extra)),
                               self.labels)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DirectedNetwork):
            return NotImplemented
        return (self.n == other.n and self.labels == other.labels
                and np.array_equal(self.out_ptr, other.out_ptr)
                and np.array_equal(self.out_idx, other.out_idx))

    def __hash__(self):
        return hash((self.n, self.edge_count, self.labels))

    def __repr__(self) -> str:
        return f"DirectedNetwork(n={self.n}, edges={self.edge_count})"


def load_edge_list(source: str | TextIO) -> DirectedNetwork:
    """Parse a whitespace-separated edge list into a network.

    Each non-comment line holds exactly two node labels (source, target).
    Lines starting with ``#`` are comments; a leading ``# nodes: N``
    directive pre-registers nodes ``0..N-1``. One leading byte-order mark is
    dropped. Duplicate edges are collapsed with a warning. Raises
    :class:`EdgeListParseError` on malformed lines or empty input.

    Input is read in batches of about a million characters. A batch's
    lines up to its last ``#`` are parsed line by line, the rest at once
    unless it holds an error, which the line-by-line parser then reports.
    """
    fh = source if hasattr(source, "read") else io.StringIO(source)
    label_to_id: dict[str, int] = {}
    intern = label_to_id.setdefault
    declared_n: int | None = None
    blank = True
    lineno = 0

    def by_line(lines: list[str]) -> list[int]:
        nonlocal declared_n, blank, lineno
        ids: list[int] = []
        for raw in lines:
            lineno += 1
            line = raw.strip()
            if not line:
                continue
            blank = False
            if line.startswith("#"):
                m = _NODES_DIRECTIVE.match(line)
                if m:
                    if label_to_id:
                        raise EdgeListParseError(
                            "'# nodes:' directive must precede edges", lineno)
                    digits = m.group(1)  # leading zeros stay outside
                    if (len(digits) > len(str(MAX_DECLARED_NODES))
                            or int(digits) > MAX_DECLARED_NODES):
                        raise EdgeListParseError(
                            f"declared {digits} nodes, more than the limit "
                            f"of {MAX_DECLARED_NODES}", lineno)
                    declared_n = int(digits)
                    label_to_id.update(zip(map(str, range(declared_n)),
                                           range(declared_n)))
                continue
            tokens = line.split()
            if len(tokens) != 2:
                raise EdgeListParseError(
                    f"expected two node labels, got {len(tokens)}", lineno)
            foreign = [t for t in tokens if t not in label_to_id]
            if declared_n is not None and foreign:
                raise EdgeListParseError(
                    f"label {foreign[0]!r} outside declared node range "
                    f"0..{declared_n - 1}", lineno)
            ids += [intern(tok, len(label_to_id)) for tok in tokens]
        return ids

    def at_once(lines: list[str]) -> list[int]:  # lines without "#"
        nonlocal blank, lineno
        if not set(map(len, map(str.split, lines))) <= {0, 2}:
            return by_line(lines)
        tokens = "".join(lines).split()
        ids = ([intern(tok, len(label_to_id)) for tok in tokens]
               if declared_n is None else list(map(label_to_id.get, tokens)))
        if None in ids:  # a label outside the declared range
            return by_line(lines)
        blank = blank and not tokens
        lineno += len(lines)
        return ids

    parts: list[np.ndarray] = []
    while lines := fh.readlines(_CHUNK_CHARS):
        if not parts:
            lines[0] = lines[0].removeprefix("\ufeff")
        text = "".join(lines)
        cut = text.rfind("#")
        hashed = text.count("\n", 0, cut) + 1 if cut >= 0 else 0
        ids = by_line(lines[:hashed])
        ids += at_once(lines[hashed:])
        parts.append(np.array(ids, dtype=np.int32))

    if blank:
        raise EdgeListParseError("empty input")
    if not label_to_id:
        raise EdgeListParseError("no nodes found in input")
    pairs = np.concatenate(parts).reshape(-1, 2)
    net = DirectedNetwork(len(label_to_id), pairs, tuple(label_to_id))
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
    label = net.labels.__getitem__
    return "".join(map("{}\t{}\n".format,
                       map(label, net.edge_sources().tolist()),
                       map(label, net.out_idx.tolist())))
