"""Directed-network storage and edge-list I/O.

Networks are simple digraphs over dense integer node ids ``0..N-1``. Ids are
assigned in first-appearance order when parsing (under a ``# nodes: N``
header each label is its id), so a given edge list always produces the same
id assignment. A network's labels are its :class:`LabelColumn`, which every
writer and every label lookup reads. Duplicate edges are collapsed (and
counted); self-loops are stored and counted by
:meth:`DirectedNetwork.self_loop_count`.

The edge set is stored once, as sorted compressed sparse rows (int32 ids,
int64 offsets) in both directions, which every stage of the analysis reads.
The file is read in raw character chunks cut at line ends. Integer labels
are read from the chunk's bytes by numpy, which cuts them into tokens from
one scan of its blanks; other labels are split and interned as strings. A
network whose labels are its ids (``# nodes:`` files, generated networks)
builds no label strings unless they are read: its column writes the ids'
digits and parses a label to look it up.
On ER N=10^5, k=10 (2.0 GHz Xeon) loading the file takes about 0.06 s with
its ``# nodes:`` header, 0.2 s without it and 0.6-0.7 s with string labels;
the constructor is 0.010 s of each on edges listed in order and 0.014 s
on edges in drawn order, and writing it back about 0.035 s.

The constructor sorts one int64 key ``u << 32 | v`` per edge in place,
once per direction (the first sort is skipped when the keys come in
order), and reads the row and column ids back with a shift and a mask.
Beside its input it holds at most that buffer and two int32 arrays the size
of the edge set: about twice the bytes of the CSR it builds. On that
network it peaks 10.9 MB above its int32 input for a 5.6 MB CSR, and
loading the file peaks at 14.9 MB (tracemalloc).
"""

from __future__ import annotations

import functools
import io
import re
import warnings
from typing import Iterable, TextIO

import numpy as np

from .errors import EdgeListParseError
from .textrows import Table, byte_table, digit_table, render

NodeId = int

# Optional header directive declaring the node count, e.g. "# nodes: 2000".
# It lets files express isolated nodes, which a bare pair-per-line edge list
# cannot. Only recognized before the first edge line, at most once, and only
# with integer labels in [0, N).
_NODES_DIRECTIVE = re.compile(r"^#\s*nodes:\s*0*(\d+)\s*$")
MAX_DECLARED_NODES = 10 ** 7  # bounds the nodes a header makes before any edge
_CHUNK_CHARS = 1 << 20  # characters of lines parsed per batch
# reach walks a frontier below this many nodes in Python, until the walk's
# stack holds this many: measured break-even points against numpy levels.
_THIN_FRONTIER, _WIDE_STACK = 64, 256
_BLOCK = 1 << 16  # edges compared per step when counting self-loops
_LOW = (1 << 32) - 1  # the column id of a constructor key u << 32 | v
# the token starts, token ends and count of "\n" of a chunk (_tokens)
_Tokens = tuple[np.ndarray, np.ndarray, int]


def _is_id(tok: str, n: int) -> bool:
    """Whether ``tok`` is an id below ``n`` in ASCII digits, no leading 0."""
    return (tok.isascii() and tok.isdigit() and (tok[0] != "0" or tok == "0")
            and len(tok) <= len(str(n)) and int(tok) < n)


def _row_offsets(rows: np.ndarray, n: int) -> np.ndarray:
    """CSR offsets of the sorted row ids ``rows``: where each of rows 0..n
    starts, from the places where the id changes."""
    ptr = np.full(n + 1, rows.size, dtype=np.int64)
    at = np.flatnonzero(rows[1:] != rows[:-1])
    at += 1
    ptr[rows.take(at)] = at
    ptr[rows[:1]] = 0
    # an empty row starts where the next row with edges does
    np.minimum.accumulate(ptr[::-1], out=ptr[::-1])
    return ptr


def edge_positions(ptr: np.ndarray, nodes: np.ndarray):
    """Positions in a CSR index array of the rows of ``nodes``.

    Returns the positions, row after row, and each row's length.
    """
    starts = ptr.take(nodes)
    counts = ptr.take(nodes + 1)
    counts -= starts
    ends = counts.cumsum()
    starts -= ends  # each row's start less its first position in the output
    starts += counts
    pos = starts.repeat(counts)
    pos += np.arange(pos.size)
    return pos, counts


def first_of_each(keys: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Mask of the first occurrence of each value in ``keys``.

    ``scratch`` is a work array indexed by key; its contents are clobbered.
    """
    rank = np.arange(keys.size)
    scratch[keys] = keys.size
    np.minimum.at(scratch, keys, rank)
    return scratch.take(keys) == rank


def reach(ptr: np.ndarray, idx: np.ndarray, seen: np.ndarray) -> np.ndarray:
    """Mark in the bool mask ``seen``, in place, and return it: every node
    reachable from a marked one along the CSR rows ``ptr``/``idx``, an entry
    below 0 being no edge.

    Breadth-first levels read each row once, one round of numpy calls per
    level. A frontier of fewer than 64 nodes is finished by a depth-first
    walk in Python instead, which pays per edge rather than per level, so a
    long thin closure such as a chain costs O(L) and not its depth in numpy
    rounds; once the walk's stack holds 256 nodes they are the next level.
    """
    frontier = seen.nonzero()[0]
    stamp = np.empty(seen.size, dtype=np.intp)
    ptr_, idx_, seen_ = memoryview(ptr), memoryview(idx), memoryview(seen)
    while frontier.size:
        if frontier.size < _THIN_FRONTIER:
            stack = frontier.tolist()
            while stack and len(stack) < _WIDE_STACK:
                u = stack.pop()
                for v in idx_[ptr_[u]:ptr_[u + 1]]:
                    if v >= 0 and not seen_[v]:
                        seen_[v] = True
                        stack.append(v)
            frontier = np.array(stack, dtype=np.intp)
            continue
        reached = idx.take(edge_positions(ptr, frontier)[0])
        fresh = ~seen.take(reached)  # seen[-1] for an entry < 0, masked next
        fresh &= reached >= 0
        reached = reached.take(fresh.nonzero()[0])
        # Keep one copy of each node: whichever write lands, exactly one
        # copy reads its own index back.
        order = np.arange(reached.size)
        stamp[reached] = order
        frontier = reached.take((stamp.take(reached) == order).nonzero()[0])
        seen[frontier] = True
    return seen


def _inserted(ptr: np.ndarray, idx: np.ndarray, keys: np.ndarray, n: int):
    """The CSR rows ``ptr``/``idx`` with the entries of ``keys`` added.

    ``keys`` are sorted, distinct and absent keys ``row * n + col``. Only
    the rows they touch are read, to find where each entry goes in its
    sorted row, and one ``np.insert`` writes them all.
    """
    rows = keys // n
    hit = np.unique(rows)
    pos, counts = edge_positions(ptr, hit)
    old = hit.repeat(counts) * n + idx.take(pos)  # the touched rows' keys
    # an entry's place in its row: the old keys below it, less those of
    # the rows before it
    at = old.searchsorted(keys) - old.searchsorted(rows * n) + ptr.take(rows)
    added = np.zeros(ptr.size, dtype=ptr.dtype)
    np.cumsum(np.bincount(rows, minlength=n), out=added[1:])
    return ptr + added, np.insert(idx, at, keys % n)


class LabelColumn:
    """A network's node labels, as every writer and lookup reads them.

    Item ``i`` is the label of node ``i``. ``given`` is the label tuple, or
    None while the labels are the ids (``# nodes:`` files, generated
    networks): the tables then hold the ids' digits, :meth:`id_of` parses a
    label, and no label string is built until :attr:`labels` is read. The
    JSON-escaped and plain tables, the string order and the index are each
    built once, on first use; ``with_edges`` hands the column on, so every
    record of a command shares them.
    """

    def __init__(self, n: int, given: tuple[str, ...] | None = None):
        self.n = n
        self.given = given
        self._tables: dict[bool, Table] = {}

    def __getitem__(self, i: int) -> str:
        return str(i) if self.given is None else self.given[i]

    @functools.cached_property
    def labels(self) -> tuple[str, ...]:
        """Every label, by id."""
        return self.given or tuple(map(str, range(self.n)))

    @functools.cached_property
    def _index(self) -> dict[str, int]:  # empty while the labels are ids
        return dict(zip(self.given or (), range(self.n)))

    def id_of(self, label: str) -> int:
        """Id of ``label``; KeyError when no node has it."""
        if self.given is None and _is_id(label, self.n):
            return int(label)
        return self._index[label]

    def table(self, escape: bool) -> Table:
        """The labels' table; with ``escape`` as ``json.dumps`` writes them."""
        if escape not in self._tables:
            self._tables[escape] = (
                digit_table(np.arange(self.n), escape) if self.given is None
                else byte_table(self.given, escape))
        return self._tables[escape]

    @functools.cached_property
    def order(self) -> np.ndarray:
        """The node ids by the string order of their labels, the key order
        of ``json.dumps(sort_keys=True)``."""
        if self.given is not None:
            return np.array(sorted(range(self.n), key=self.given.__getitem__),
                            dtype=np.intp)
        # the digits left-aligned to the longest id; the stable sort puts a
        # shorter id first on ties, its prefix ("1" < "10" < "2")
        scale = np.full(self.n, 10 ** (len(str(self.n - 1)) - 1))
        for power in range(1, len(str(self.n - 1))):
            scale[10 ** power:] //= 10
        return np.argsort(np.arange(self.n) * scale, kind="stable")


class DirectedNetwork:
    """Immutable simple directed graph with a label column.

    Attributes
    ----------
    n : int
        Number of nodes.
    label_column : LabelColumn
        The node labels, by id, and their tables and index.
    out_ptr, out_idx, in_ptr, in_idx : numpy.ndarray
        Sorted, duplicate-free adjacency as CSR arrays in both directions.
    duplicates_collapsed : int
        Repeated input edges dropped here, the one place that deduplicates.
    """

    __slots__ = ("n", "label_column", "out_ptr", "out_idx", "in_ptr",
                 "in_idx", "duplicates_collapsed", "_self_loops")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] | np.ndarray,
                 labels: Iterable[str] | None = None):
        """Build from ``edges``, a sequence of pairs or an ``(L, 2)`` array.

        Without ``labels`` each node's label is its id in decimal; the
        label strings are built on the first read of :attr:`labels`.
        Pairs given in strictly increasing (source, target) order, as
        ``generate`` and :func:`write_edge_list` list them, are neither
        sorted nor scanned for duplicates. Self-loops are counted here, in
        blocks of 2^16 edges, for :meth:`self_loop_count`.
        """
        self.n = n
        pairs = np.asarray(edges if hasattr(edges, "__len__") else list(edges))
        if pairs.dtype.kind != "i":  # e.g. the floats of an empty list
            pairs = pairs.astype(np.int64)
        pairs = pairs.reshape(-1, 2)
        if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
            bad = ((pairs < 0) | (pairs >= n)).any(axis=1)
            u, v = pairs[bad.argmax()].tolist()
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        # One in-place sort of the keys u << 32 | v orders the out-rows and
        # puts duplicates side by side, unless they are strictly increasing
        # already, as a file written in (source, target) order gives them.
        # The same buffer, re-keyed v << 32 | u and sorted again, orders the
        # in-rows. Each side shifts its keys down to the row ids, whose
        # changes give the row offsets, and masks them to the column ids.
        keys = pairs[:, 0].astype(np.int64)
        keys <<= 32
        keys |= pairs[:, 1]
        if not (keys[1:] > keys[:-1]).all():
            keys.sort()
            keep = np.empty(keys.size, dtype=bool)
            keep[:1] = True
            np.not_equal(keys[1:], keys[:-1], out=keep[1:])
            if not keep.all():
                keys = keys[keep]
            del keep
        self.duplicates_collapsed = len(pairs) - keys.size
        rows = np.empty(keys.size, dtype=np.int32)
        cols = self.out_idx = np.empty(keys.size, dtype=np.int32)
        np.right_shift(keys, 32, out=rows, casting="unsafe")
        np.bitwise_and(keys, _LOW, out=cols, casting="unsafe")
        self.out_ptr = _row_offsets(rows, n)
        self._self_loops = 0
        for i in range(0, rows.size, _BLOCK):  # with no edge-sized mask
            self._self_loops += int(np.count_nonzero(
                rows[i:i + _BLOCK] == cols[i:i + _BLOCK]))
        np.left_shift(cols, 32, out=keys, dtype=np.int64)
        keys |= rows
        keys.sort()
        np.right_shift(keys, 32, out=rows, casting="unsafe")
        self.in_ptr = _row_offsets(rows, n)
        np.bitwise_and(keys, _LOW, out=rows, casting="unsafe")
        self.in_idx = rows  # the row ids' buffer, holding the column ids
        if labels is not None:
            labels = tuple(map(str, labels))
            if len(labels) != n:
                raise ValueError("label table size does not match node count")
            if len(set(labels)) != n:
                raise ValueError("duplicate labels in label table")
        self.label_column = LabelColumn(n, labels)

    @property
    def labels(self) -> tuple[str, ...]:
        """Label of each node, by id; the decimal ids if none were given."""
        return self.label_column.labels

    def edge_sources(self) -> np.ndarray:
        """Source id of each edge, aligned with ``out_idx``."""
        return np.repeat(np.arange(self.n, dtype=np.int32),
                         np.diff(self.out_ptr))

    @property
    def edge_count(self) -> int:
        return self.out_idx.size

    def successors(self, u: NodeId) -> np.ndarray:
        """Sorted out-neighbours of ``u`` (a view into ``out_idx``)."""
        return self.out_idx[self.out_ptr[u]:self.out_ptr[u + 1]]

    def predecessors(self, v: NodeId) -> np.ndarray:
        """Sorted in-neighbours of ``v`` (a view into ``in_idx``)."""
        return self.in_idx[self.in_ptr[v]:self.in_ptr[v + 1]]

    def has_edges(self, u, v) -> np.ndarray:
        """Whether each ``(u[i], v[i])`` is an edge, for ids ``u`` in range."""
        pos, counts = edge_positions(self.out_ptr, np.asarray(u))
        hits = np.flatnonzero(self.out_idx.take(pos) == np.repeat(v, counts))
        found = np.zeros(counts.size, dtype=bool)  # a row holds v[i] once
        found[counts.cumsum().searchsorted(hits, side="right")] = True
        return found

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        return 0 <= u < self.n and bool(self.has_edges([u], [v])[0])

    def self_loop_count(self) -> int:
        """Edges ``(u, u)``, counted when the network was built."""
        return self._self_loops

    def id_of(self, label: str) -> NodeId:
        """Id of ``label``; given labels are indexed on the first call."""
        return self.label_column.id_of(label)

    def with_edges(self, additions: Iterable[tuple[int, int]]) -> "DirectedNetwork":
        """This network plus ``additions``, sharing its label column.

        The additions are merged into the sorted rows (:func:`_inserted`):
        only they are sorted, and only the rows they touch are read.
        """
        extra = np.asarray(additions if isinstance(additions, np.ndarray)
                           else list(additions), dtype=np.int64).reshape(-1, 2)
        inside = ((extra >= 0) & (extra < self.n)).all(axis=1)
        present = np.flatnonzero(inside)[self.has_edges(*extra[inside].T)]
        if present.size:
            u, v = extra[present[0]].tolist()
            raise ValueError(f"edge ({u}, {v}) already present")
        if not inside.all():
            DirectedNetwork(self.n, extra)  # raises, naming the first such pair
        n = self.n
        keys = np.unique(extra[:, 0] * n + extra[:, 1])
        grown = DirectedNetwork.__new__(DirectedNetwork)
        grown.n, grown.label_column = n, self.label_column
        grown.duplicates_collapsed = len(extra) - keys.size
        grown._self_loops = self._self_loops + int(
            np.count_nonzero(keys // n == keys % n))
        grown.out_ptr, grown.out_idx = _inserted(self.out_ptr, self.out_idx,
                                                 keys, n)
        keys = (keys % n) * n + keys // n  # the same edges, keyed by target
        keys.sort()
        grown.in_ptr, grown.in_idx = _inserted(self.in_ptr, self.in_idx,
                                               keys, n)
        return grown

    def __eq__(self, other) -> bool:
        if not isinstance(other, DirectedNetwork):
            return NotImplemented
        return (self.n == other.n
                and np.array_equal(self.out_ptr, other.out_ptr)
                and np.array_equal(self.out_idx, other.out_idx)
                # two id-labelled networks build no label tuple to compare
                and (self.label_column.given is other.label_column.given
                     is None or self.labels == other.labels))

    def __hash__(self):
        return hash((self.n, self.edge_count))

    def __repr__(self) -> str:
        return f"DirectedNetwork(n={self.n}, edges={self.edge_count})"


def _integers(text: str, limit: int | None = None
              ) -> tuple[np.ndarray, int] | None:
    r"""The labels of ``text`` as integer values, when the bytes decide them.

    That is when ``text`` holds only lines of zero or two canonical decimal
    labels (at most 18 digits, no leading zero, below ``limit`` if given),
    split by spaces, tabs and carriage returns. Returns the values and the
    count of "\n" in ``text``, or None, and the line parser takes the text.
    The values are int32 when every label has at most 9 digits, else int64.

    One scan for the blanks cuts the text into tokens in any layout
    (:func:`_tokens`); then one pass per digit position reads the values.
    """
    if not text.isascii():
        return None
    raw = text.encode("ascii")
    if raw.translate(None, b"0123456789 \t\r\n"):
        return None
    buf = np.frombuffer(raw, dtype=np.uint8)
    found = _tokens(buf)
    if found is None:
        return None
    starts, ends, lines = found
    if not starts.size:
        return np.zeros(0, dtype=np.int64), lines
    lengths = ends - starts
    width = int(lengths.max())
    if width > 18 or ((buf[starts] == 48) & (lengths > 1)).any():
        return None
    dtype = np.int32 if width <= 9 else np.int64
    values = np.zeros(starts.size, dtype=dtype)
    shortest = int(lengths.min())
    place = ends - 1
    for j in range(width):  # the digit j places left of each token's end
        digits = buf[place] - 48
        if j >= shortest:  # tokens of j digits or fewer have none here
            digits *= lengths > j
        values += np.multiply(digits, 10 ** j, dtype=dtype)
        place -= 1
    if limit is not None and values.max() >= limit:
        return None
    return values, lines


def _tokens(buf: np.ndarray) -> _Tokens | None:
    r"""Token starts and ends, and the count of "\n", of the bytes ``buf``
    of digits and blanks when each line holds two tokens or none; else
    None.

    The blanks are the bytes below "0". When "\n" is every second one, no
    two are side by side, none is first and one is last, they are the
    token ends. Otherwise the tokens lie between the cuts (-1, the blanks,
    ``buf.size``) that are not side by side, with no "\n" between the two
    of a pair and one or more between pairs.
    """
    blanks = np.flatnonzero(buf < 48)
    newline = buf[blanks] == 10
    if (blanks.size and not blanks.size % 2 and blanks[0]
            and blanks[-1] == buf.size - 1 and newline[1::2].all()
            and not newline[0::2].any()
            and (blanks[1:] - blanks[:-1] > 1).all()):
        starts = np.empty_like(blanks)
        starts[0] = 0
        np.add(blanks[:-1], 1, out=starts[1:])
        return starts, blanks, blanks.size // 2
    cuts = np.concatenate(([-1], blanks, [buf.size]))
    after = np.flatnonzero(cuts[1:] - cuts[:-1] > 1)  # each token's cut
    if after.size % 2:
        return None
    if after.size:  # the blanks from each token to the next hold a "\n"?
        crossed = np.logical_or.reduceat(newline[:after[-1]], after[:-1])
        if crossed[0::2].any() or not crossed[1::2].all():
            return None
    return cuts[after] + 1, cuts[after + 1], int(np.count_nonzero(newline))


def _lines(text: str) -> list[str]:
    r"""The lines of ``text``, split at "\n" only, without their "\n"."""
    return text.removesuffix("\n").split("\n")


def _chunks(fh: TextIO):
    r"""The text of ``fh`` in chunks of whole lines, one leading BOM dropped.

    Each chunk but the last ends with "\n"; the last is the text after the
    final "\n", maybe empty.
    """
    pending: list[str] = []  # what was read after the last "\n"
    bom = "\ufeff"
    while chunk := fh.read(_CHUNK_CHARS):
        if bom:
            chunk, bom = chunk.removeprefix(bom), ""
        end = chunk.rfind("\n") + 1
        if end:
            pending.append(chunk[:end])
            yield "".join(pending)
            pending = [chunk[end:]]
        else:
            pending.append(chunk)
    yield "".join(pending)


def load_edge_list(source: str | TextIO) -> DirectedNetwork:
    r"""Parse a whitespace-separated edge list into a network.

    Each non-comment line holds exactly two node labels (source, target).
    Lines starting with ``#`` are comments; a leading ``# nodes: N``
    directive, given at most once, declares nodes ``0..N-1``, and every
    label must then be one of them. One leading byte-order mark is
    dropped. Duplicate edges are collapsed with a warning. Raises
    :class:`EdgeListParseError` on malformed lines or empty input.

    Lines end at "\n" only; a "\r" is a blank. Open files with the default
    ``newline=None``, which turns "\r\n" and a lone "\r" into "\n"; a
    handle opened with ``newline=""`` keeps a lone "\r" inside its line.

    Input is read in chunks of about a million characters, each cut after
    its last "\n" (the rest starts the next chunk), so no Python string is
    made per line. A chunk's lines up to its last ``#`` are split and
    parsed line by line. The rest is tokenized as bytes when it holds only
    integer labels and blanks (:func:`_integers`: one scan for the blanks,
    which are the token ends when every line is ``label blank label`` as
    ``generate`` writes them, then a pass per digit position), else
    split at once as strings; when that does not give two labels per line,
    the line-by-line parser reports the error. The tokenizer and the split
    count the chunk's lines, for the line numbers of later errors. Under
    ``# nodes:`` the labels are the ids, and the network's label table is
    built only when read. Otherwise ids follow first appearance: a chunk's
    distinct integers that no earlier chunk interned go through
    ``label_to_id``, the one interning table, in the order they first
    occur; a sorted array of the integers interned so far gives the others
    their ids.
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
                    if declared_n is not None:
                        raise EdgeListParseError(
                            "repeated '# nodes:' directive", lineno)
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
                continue
            tokens = line.split()
            if len(tokens) != 2:
                raise EdgeListParseError(
                    f"expected two node labels, got {len(tokens)}", lineno)
            if declared_n is None:
                ids += [intern(tok, len(label_to_id)) for tok in tokens]
                continue
            for tok in tokens:
                if not _is_id(tok, declared_n):
                    raise EdgeListParseError(
                        f"label {tok!r} outside declared node range "
                        f"0..{declared_n - 1}", lineno)
            ids += map(int, tokens)
        return ids

    # The integer labels interned so far, sorted after a sentinel, and
    # their ids.
    known = np.array([-1])
    known_ids = np.array([-1])

    def first_appearance_ids(values: np.ndarray) -> np.ndarray:
        nonlocal known, known_ids
        uniq, inverse = np.unique(values, return_inverse=True)
        at = np.minimum(known.searchsorted(uniq), known.size - 1)
        ids = known_ids[at]
        new = known[at] != uniq
        order = inverse[first_of_each(inverse, np.empty(uniq.size, np.intp))]
        order = order[new[order]]
        ids[order] = [intern(tok, len(label_to_id))
                      for tok in map(str, uniq[order].tolist())]
        at = known.searchsorted(uniq[new])
        known = np.insert(known, at, uniq[new])
        known_ids = np.insert(known_ids, at, ids[new])
        return ids[inverse]

    def at_once(text: str) -> np.ndarray:
        """Ids of the lines of ``text``, which hold no "#"."""
        nonlocal blank, lineno
        found = _integers(text, declared_n)
        if found is None:
            lines = _lines(text)
            if (declared_n is not None or
                    not set(map(len, map(str.split, lines))) <= {0, 2}):
                return np.array(by_line(lines), dtype=np.int32)
            tokens = text.split()
            ids = np.array([intern(tok, len(label_to_id)) for tok in tokens],
                           dtype=np.int32)
            newlines = len(lines) - (not text.endswith("\n"))
        else:
            values, newlines = found
            ids = (first_appearance_ids(values) if declared_n is None
                   else values)
        blank = blank and not ids.size
        lineno += newlines  # no line follows an unended last line
        return ids.astype(np.int32, copy=False)

    parts: list[np.ndarray] = []
    for text in _chunks(fh):
        cut = text.rfind("#")
        start = 0
        if cut >= 0:  # the lines up to the one holding the last "#"
            start = text.find("\n", cut) + 1 or len(text)
            parts.append(np.array(by_line(_lines(text[:start])),
                                  dtype=np.int32))
        parts.append(at_once(text[start:]))

    if blank:
        raise EdgeListParseError("empty input")
    if not (label_to_id or declared_n):
        raise EdgeListParseError("no nodes found in input")
    pairs = np.concatenate(parts).reshape(-1, 2)
    del parts
    net = (DirectedNetwork(declared_n, pairs) if declared_n is not None else
           DirectedNetwork(len(label_to_id), pairs, tuple(label_to_id)))
    if net.duplicates_collapsed:
        warnings.warn(f"collapsed {net.duplicates_collapsed} duplicate "
                      f"edge(s)", stacklevel=2)
    return net


def write_edge_list(net: DirectedNetwork) -> str:
    """Serialize edges as ``src<TAB>dst`` lines sorted by (src id, dst id).

    Round-trips with :func:`load_edge_list` for networks without isolated
    nodes; pair the output with a ``# nodes: N`` directive to preserve
    isolated nodes as well.

    The lines are written by :func:`~netcontrol.textrows.render` from the
    plain table of the network's :class:`LabelColumn`.
    """
    table = net.label_column.table(False)
    return "".join(render([(table, net.edge_sources()), "\t",
                           (table, net.out_idx), "\n"], net.edge_count))
