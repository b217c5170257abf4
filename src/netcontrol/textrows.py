"""Text rows gathered from arrays, without a Python object per row.

This is the one module that lays labels out as bytes: it writes the
edge list, the records and every other list output.

A list output is a run of rows, each the concatenation of one cell per
column. A column is a fixed string or ``(table, index)``: string
``index[i]`` of a :class:`Table`, where index -1 is the empty string. A
table holds each of its strings (or ints, in decimal) once, as UTF-8 cut
into pieces of ``PIECE`` bytes, the last one padded with 0xFF (a byte
UTF-8 never uses). A slice of rows gathers its cells' pieces in output
order into one block, and one ``bytes.translate`` drops the padding. A
long string costs its own pieces only, so the work is linear in the
bytes written whatever the labels' lengths, and a slice holds about
``SLICE_BYTES``.
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
    """String ``i`` is pieces ``first[i]`` to ``first[i] + count[i] - 1``;
    the last entry of ``first`` and ``count`` is the empty string."""

    pieces: np.ndarray  # (pieces, PIECE) uint8
    first: np.ndarray
    count: np.ndarray


def _table(data: np.ndarray, sizes: np.ndarray) -> Table:
    """The table of the strings whose bytes, one after another, are
    ``data`` and whose byte counts are ``sizes``."""
    count = np.maximum(-(-sizes // PIECE), 1)  # "" is one piece of padding
    first = np.concatenate(([0], count.cumsum()))
    valid = np.full(first[-1], PIECE, dtype=np.int8)  # bytes of each piece
    valid[first[1:] - 1] = sizes - PIECE * (count - 1)
    pieces = np.full((valid.size, PIECE), PAD, dtype=np.uint8)
    pieces[np.arange(PIECE, dtype=np.int8) < valid[:, None]] = data
    return Table(pieces, first, np.append(count, 0))


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
    count = np.full(values.size + 1, span // PIECE)
    count[-1] = 0
    return Table(digits.reshape(-1, PIECE), np.arange(values.size + 1)
                 * (span // PIECE), count)


def render(columns, count: int) -> Iterator[str]:
    """Rows ``0..count-1`` of ``columns``, a slice of whole rows at a time.

    A ``(table, index)`` column with an int ``index`` has that string in
    every row. A slice of more than twice ``SLICE_BYTES`` is halved
    before it is written, so a long string makes its own slices small.
    """
    columns = [(text_table(col), 0) if isinstance(col, str) else col
               for col in columns]
    tables = list({id(table): table for table, _ in columns}.values())
    pool = np.concatenate([t.pieces for t in tables])
    sizes = [len(t.pieces) for t in tables]  # each table's first piece:
    bases = dict(zip(map(id, tables), np.cumsum([0] + sizes).tolist()))
    budget = SLICE_BYTES // PIECE
    step = max(1, budget // len(columns))
    pending = [(lo, min(lo + step, count))
               for lo in range(0, count, step)][::-1]
    while pending:
        lo, hi = pending.pop()
        first = np.empty((hi - lo, len(columns)), dtype=np.int32)
        size = np.empty((hi - lo, len(columns)), dtype=np.int32)
        for c, (table, index) in enumerate(columns):
            if isinstance(index, np.ndarray):
                index = index[lo:hi]
            np.add(table.first.take(index), bases[id(table)],
                   out=first[:, c])
            size[:, c] = table.count.take(index)
        first, size = first.ravel(), size.ravel()  # cells in row order
        if size.min() == size.max() == 1:  # a piece per cell: no expansion
            src = first
        else:
            start = size.cumsum()
            if start[-1] > 2 * budget and hi - lo > 1:
                mid = (lo + hi) // 2
                pending += [(mid, hi), (lo, mid)]
                continue
            src = (first - start + size).repeat(size)
            src += np.arange(src.size, dtype=np.int32)
        block = pool.take(src, axis=0).tobytes().translate(None, _PAD)
        yield block.decode("utf-8", "surrogatepass")
