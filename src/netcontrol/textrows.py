"""Text rows gathered from arrays, without a Python object per row.

This is the one module that lays labels out as bytes: it writes the
edge list, the records and every other list output.

A list output is a run of rows, and a row is its cells in output order.
A cell is string ``index`` of a :class:`Table`, written on every row or
on some rows only (a nested list's first or last item), so no row pays
for a cell it does not write. A table holds each of its strings (or
ints, in decimal) once, as UTF-8 cut into pieces of ``PIECE`` bytes, the
last one padded with 0xFF (a byte UTF-8 never uses). A slice of rows
lays its cells out as one sequence (each cell's first piece and piece
count), expands that into its pieces in output order, gathers them into
one block, and one ``bytes.translate`` drops the padding. A long string
costs its own pieces only, so the work is linear in the bytes written
whatever the labels' lengths, and a slice holds about ``SLICE_BYTES``.
"""

from __future__ import annotations

import functools
import json
from typing import Iterator, NamedTuple

import numpy as np

PAD = 0xFF
_PAD = bytes([PAD])
PIECE = 8
SLICE_BYTES = 1 << 18


class Table(NamedTuple):
    """String ``i`` is ``count[i]`` pieces from piece ``first[i]`` on."""

    pieces: np.ndarray  # (pieces, PIECE) uint8
    first: np.ndarray  # int32
    count: np.ndarray  # int32


def _table(data: np.ndarray, sizes: np.ndarray) -> Table:
    """The table of the strings whose bytes, one after another, are
    ``data`` and whose byte counts are ``sizes``."""
    count = np.maximum(-(-sizes // PIECE), 1).astype(np.int32)  # "": padding
    end = count.cumsum(dtype=np.int32)
    valid = np.full(count.sum(), PIECE, dtype=np.int8)
    valid[end - 1] = sizes - PIECE * (count - 1)  # bytes of each piece
    pieces = np.full((valid.size, PIECE), PAD, dtype=np.uint8)
    pieces[np.arange(PIECE, dtype=np.int8) < valid[:, None]] = data
    return Table(pieces, end - count, count)


def byte_table(strings, escape: bool = False) -> Table:
    """The table of ``strings``, a list or tuple.

    With ``escape`` each string is written as ``json.dumps`` writes it,
    quotes included: ASCII, and never a raw newline, so one ``dumps`` of
    the whole list encodes them all with newlines between.
    """
    if escape:
        text = json.dumps(strings, separators=("\n", ":"))[1:-1]
        data = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
        breaks = data == ord("\n")
        sizes = np.diff(np.flatnonzero(breaks), prepend=-1,
                        append=data.size) - 1 if strings else data[:0]
        data = data[~breaks]
    else:
        text = "".join(strings)
        data = text.encode("utf-8", "surrogatepass")
        ascii_only = len(data) == len(text)  # then a byte per character
        encoded = strings if ascii_only else (
            s.encode("utf-8", "surrogatepass") for s in strings)
        sizes = np.fromiter(map(len, encoded), dtype=np.int64,
                            count=len(strings))
        data = np.frombuffer(data, dtype=np.uint8)
    return _table(data, sizes.astype(np.int64))


@functools.lru_cache(maxsize=1024)
def text_table(*texts: str) -> Table:
    """The table of a few fixed strings, built once per process."""
    return byte_table(texts)


def digit_table(values: np.ndarray, quote: bool = False) -> Table:
    """The table of nonnegative ints, in decimal; with ``quote`` each is
    in double quotes, as ``json.dumps`` writes its decimal string.

    Each int takes the same pieces, its digits right-aligned in them: the
    padding in front of them is dropped like any other.
    """
    width = len(str(int(values.max(initial=0))))
    span = -(-(width + 2 * quote) // PIECE) * PIECE
    units = span - 1 - quote
    digits = np.full((values.size, span), PAD, dtype=np.uint8)
    rest = values.astype(np.int64)
    digit = np.empty_like(rest)
    for col in range(units, units - width, -1):  # units first
        np.remainder(rest, 10, out=digit)
        digit += ord("0")
        digits[:, col] = digit
        if col < units:  # no leading zeros
            digits[rest == 0, col] = PAD
        rest //= 10
    if quote:  # the opening quote just before each int's first digit
        first = (digits[:, :units + 1] != PAD).argmax(axis=1)
        digits[np.arange(values.size), first - 1] = ord('"')
        digits[:, -1] = ord('"')
    count = np.broadcast_to(np.int32(span // PIECE), values.shape)  # a view
    return Table(digits.reshape(-1, PIECE),
                 np.arange(values.size, dtype=np.int32) * (span // PIECE),
                 count)


def render(cells, rows: int) -> Iterator[str]:
    """Rows ``0..rows-1`` of ``cells``, a slice of whole rows at a time.

    ``cells`` are a row's cells in output order. A cell is a fixed string,
    ``(table, index)``, on every row, or ``(table, index, at)``, on the
    rows ``at`` only (ascending): string ``index[k]`` of the table on the
    ``k``-th of its rows, or string ``index`` on all of them when it is an
    int. A slice of more than twice ``SLICE_BYTES`` is halved before it is
    written, so a long string makes its own slices small.
    """
    cells = [(text_table(cell), 0, None) if isinstance(cell, str)
             else (*cell, None)[:3] for cell in cells]
    tables = list({id(table): table for table, _, _ in cells}.values())
    pool = np.concatenate([t.pieces for t in tables])
    sizes = [len(t.pieces) for t in tables]  # each table's first piece:
    bases = dict(zip(map(id, tables), np.cumsum([0] + sizes).tolist()))
    cells = [(*cell, bases[id(cell[0])]) for cell in cells]
    budget = SLICE_BYTES // PIECE
    step = max(1, budget // max(1, sum(at is None for *_, at, _ in cells)))
    pending = [(lo, min(lo + step, rows)) for lo in range(0, rows, step)][::-1]
    while pending:
        lo, hi = pending.pop()
        src = _sources(cells, lo, hi, 2 * budget)
        if src is None:
            mid = (lo + hi) // 2
            pending += [(mid, hi), (lo, mid)]
            continue
        block = pool.take(src, axis=0).tobytes().translate(None, _PAD)
        yield block.decode("utf-8", "surrogatepass")


def _sources(cells, lo: int, hi: int, limit: int) -> np.ndarray | None:
    """The pool index of each piece of rows ``lo..hi-1``, in output order;
    None when there are more than ``limit`` and more than one row."""
    first, count = _cells(cells, lo, hi)
    if count.min() == count.max() == 1:  # no expansion
        return first
    end = count.cumsum(dtype=np.int32)
    if end[-1] > limit and hi - lo > 1:
        return None
    end -= count  # each cell's first piece in the block
    first -= end
    src = first.astype(np.intp).repeat(count)
    src += np.arange(src.size)
    return src


def _cells(cells, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """The first pool piece and the piece count of each cell of rows
    ``lo..hi-1``, in output order."""
    picks = []  # the rows and strings of each cell
    width = np.zeros(hi - lo, dtype=np.intp)  # cells of each row
    for _, index, at, _ in cells:
        a, b = (lo, hi) if at is None else np.searchsorted(at, (lo, hi))
        rows = slice(None) if at is None else at[a:b] - lo
        picks.append((rows, index[a:b] if isinstance(index, np.ndarray)
                      else index))
        width[rows] += 1
    slot = width.cumsum()
    slot -= width  # each row's first cell
    first = np.empty(slot[-1] + width[-1], dtype=np.int32)
    count = np.ones_like(first)
    for (table, _, _, base), (rows, index) in zip(cells, picks):
        at = slot[rows]
        pick = table.first.take(index)
        pick += base
        first[at] = pick
        if len(table.pieces) > len(table.count):  # not a piece each
            count[at] = table.count.take(index)
        slot[rows] += 1
    return first, count
