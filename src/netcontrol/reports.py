"""Stable serialization of analyses, plans, and sweep rows.

All numbers are rounded the same way everywhere: percentages to two
decimals (half away from zero), plain ratios to six significant digits.
JSON is dumped with sorted keys so equal inputs give byte-equal output.

Every list that grows with the network (the components of a record, with
or without members, the input set, the node classes, the adjacency edges
and a plan's additions) is :class:`Records`: one array per field, its
labels read through the network's :class:`~netcontrol.network.LabelColumn`,
written by :mod:`~netcontrol.textrows` as one sequence of cells in output
order, with no Python object per row.
Given a ``write`` function, :func:`to_json`, :func:`components_tsv` and
:func:`input_graph_tsv` pass it their text in chunks as it is made, which
is how the command line writes them.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterator, Sequence
from decimal import ROUND_HALF_UP, Decimal
from itertools import chain

import numpy as np

from .alteration import AlterationPlan
from .components import COMPONENT_KINDS, ComponentReport
from .input_graph import NODE_CLASSES, InputGraph
from .network import LabelColumn
from .pipeline import NetworkAnalysis
from .textrows import digit_table, render, text_table

MEMBER_LIST_LIMIT = 10_000  # suppress per-node listings above this size


# the fixed names that records write, by code
_KIND_NAMES = tuple(kind.value for kind in COMPONENT_KINDS)
_CLASS_NAMES = tuple(c.value for c in NODE_CLASSES)
_CLASS_CELLS = tuple(f"{c.value}\t{'yes' if c.possible_input else 'no'}"
                     for c in NODE_CLASSES)


def round_percent(fraction: float) -> float:
    """``fraction`` as a percentage with two decimals, half away from zero."""
    quant = (Decimal(repr(fraction)) * 100).quantize(
        Decimal("0.01"), rounding=ROUND_HALF_UP)
    return float(quant)


def round_ratio(value: float) -> float:
    return float(f"{value:.6g}")


# A NUL and a token drawn once per process: no input writes this string.
_MARK = "\x00" + os.urandom(16).hex()


def to_json(payload: dict, write=None) -> str | None:
    """``json.dumps(payload, sort_keys=True, indent=2)`` plus a newline.

    With ``write`` the text goes to it in chunks as it is made, and None
    is returned. ``json.dumps`` writes each :class:`Records` as a mark that
    no input holds; the text is cut there, and the list writes itself from
    its arrays at the indentation of the mark's line, in slices of rows.
    """
    writers = []

    def hold(obj) -> str:  # json.dumps' default: a Records becomes a mark
        if not isinstance(obj, Records):
            raise TypeError(f"{type(obj).__name__} is not JSON serializable")
        writers.append(obj.json_chunks)
        return _MARK

    pieces = (json.dumps(payload, sort_keys=True, indent=2, default=hold)
              + "\n").split(json.dumps(_MARK))
    return _deliver(_spliced(pieces, writers), write)


def _spliced(pieces: list[str], writers) -> Iterator[str]:
    """The text ``pieces`` with each of ``writers``' text between two."""
    yield pieces[0]
    for before, json_chunks, piece in zip(pieces, writers, pieces[1:]):
        line = before[before.rfind("\n") + 1:]
        yield from json_chunks("\n" + " " * (len(line) - len(line.lstrip())))
        yield piece


def _deliver(chunks: Iterator[str], write) -> str | None:
    """``chunks`` joined, or each passed to ``write``."""
    if write is None:
        return "".join(chunks)
    for chunk in chunks:
        write(chunk)
    return None


class Records(Sequence):
    """A list of flat records kept as one array per field.

    ``fields`` holds ``(key, strings, values)`` in TSV column order: record
    ``i`` maps ``key`` to ``strings[values[i]]``, or to ``int(values[i])``
    when ``strings`` is None. ``strings`` is a :class:`LabelColumn`, which
    keeps its tables, or a tuple of a few fixed names. ``nested``, if
    given, is a last field ``(key, strings, items, bounds)`` whose value in
    record ``i`` is the list of ``strings[j]`` for ``j`` in
    ``items[bounds[i]:bounds[i + 1]]``, never empty. Indexing builds a
    record's dict; :func:`to_json` and :meth:`tsv_chunks` write the whole
    list from the arrays (:func:`~netcontrol.textrows.render`), a row per
    record or per nested item.

    ``form`` "values" makes the one field's values a flat JSON list, and
    "object" makes the two fields one JSON object that maps each record's
    first value to its second, in record order; a record is then its value
    or its pair.
    """

    def __init__(self, fields, nested=None, form: str = "dicts"):
        self.fields = fields
        self.nested = nested
        self.form = form

    def __len__(self) -> int:
        return len(self.fields[0][2])

    def __getitem__(self, i: int) -> dict | tuple | str | int:
        i = range(len(self))[i]
        record = {key: int(values[i]) if strings is None
                  else strings[values[i]]
                  for key, strings, values in self.fields}
        if self.form != "dicts":
            cells = tuple(record.values())
            return cells if self.form == "object" else cells[0]
        if self.nested:
            key, strings, items, bounds = self.nested
            record[key] = list(map(strings.__getitem__,
                                   items[bounds[i]:bounds[i + 1]].tolist()))
        return record

    def json_chunks(self, newline: str) -> Iterator[str]:
        """The list as ``indent=2`` JSON that starts after ``newline``."""
        opener, closer = "{}" if self.form == "object" else "[]"
        if not len(self):
            yield opener + closer
            return
        inner, deep, item = (newline + " " * k for k in (2, 4, 6))
        if self.form == "dicts":
            fields = sorted([*self.fields, self.nested] if self.nested
                            else self.fields, key=lambda field: field[0])
            leads = [("," if i else "{") + deep + json.dumps(field[0]) + ": "
                     + ("[" + item if len(field) == 4 else "")
                     for i, field in enumerate(fields)]
            close = inner + "}"
        else:  # a value, or a key and its value, per row
            fields, leads, close = self.fields, ["", ": "], ""
        end = "," + inner + leads[0]  # between two records, after the close
        parts = self._render(fields, [*leads[1:len(fields)], close + end],
                             ("," + item, deep + "]"), True)
        yield opener + inner + leads[0]
        part = next(parts)
        for following in parts:
            yield part
            part = following
        yield part[:-len(end)]
        yield newline + closer

    def tsv_chunks(self) -> Iterator[str]:
        """The list as TSV lines, nested items joined by commas."""
        fields = [*self.fields, self.nested] if self.nested else self.fields
        return self._render(fields, ["\t"] * (len(fields) - 1) + ["\n"],
                            (",", ""), False)

    def _render(self, fields, texts, between, escape):
        """The records' text, with ``texts[i]`` after field ``i``.

        ``between`` are the texts between two items of the nested list and
        after its last. A fixed text joins the strings of a tuple field
        beside it, so it costs no cell of its own. A record's cells before
        the nested list are on the row of its first item, those after it on
        the row of its last.
        """
        rows, at = len(self), None  # at: the rows of a record's own cells
        if self.nested:
            bounds = self.nested[3]
            rows, at, last = int(bounds[-1]), bounds[:-1], bounds[1:] - 1
        cells, text = [], ""  # text: not written yet
        for (_, strings, values, *nested), after in zip(fields, texts):
            if isinstance(strings, tuple):
                cells.append((*_cell(strings, values, escape, text, after),
                              at))
                text = ""
                continue
            if text:
                cells.append((text_table(text), 0, at))
            text = after
            if not nested:
                cells.append((*_cell(strings, values, escape), at))
                continue
            ends = np.zeros(rows, dtype=np.int8)  # an item, then a separator
            ends[last] = 1
            cells += [_cell(strings, values, escape),
                      (text_table(*between), ends)]
            at = last
        if text:
            cells.append((text_table(text), 0, at))
        return render(cells, rows)


def _cell(strings, values, escape: bool, before: str = "", after: str = ""):
    """The table and index of a field: the digits of ``values``, a label
    column's strings, or a tuple's each between ``before`` and ``after``."""
    if strings is None:
        return digit_table(values), np.arange(values.size, dtype=np.int32)
    if isinstance(strings, tuple):
        dump = json.dumps if escape else str
        return text_table(*(before + dump(s) + after for s in strings)), values
    return strings.table(escape), values


def _lists_members(net, include_members: bool | None) -> bool:
    """The member-list policy: None lists them up to MEMBER_LIST_LIMIT nodes."""
    return (net.n <= MEMBER_LIST_LIMIT if include_members is None
            else include_members)


def _component_records(analysis: NetworkAnalysis,
                       include_members: bool | None) -> Records:
    """``{"id", "size", "kind"[, "members"]}`` per component, by id; the
    members are labels by ascending id."""
    report = analysis.report
    nested = None
    if _lists_members(analysis.network, include_members):
        nested = ("members", analysis.network.label_column,
                  # by component, then by id: one sort of packed words
                  np.sort(report.comp_of.astype(np.int64) << 32
                          | np.arange(report.comp_of.size)) & 0xFFFFFFFF,
                  np.concatenate(([0], np.cumsum(report.sizes))))
    return Records([("id", None, np.arange(report.component_count)),
                    ("size", None, report.sizes),
                    ("kind", _KIND_NAMES, report.kinds)], nested)


def component_report_dict(analysis: NetworkAnalysis,
                          include_members: bool | None = None) -> dict:
    net, report = analysis.network, analysis.report
    mis_size = analysis.input_set.size
    cc_max = report.cc_max
    return {
        "n": net.n,
        "l": net.edge_count,
        "avg_degree": round_ratio(2.0 * net.edge_count / net.n),
        "n_mis_percent": round_percent(mis_size / net.n),
        "mis_size": mis_size,
        "perfectly_matched": mis_size == 0,
        "component_count": report.component_count,
        "kind_counts": report.kind_counts(),
        "components": _component_records(analysis, include_members),
        "cc_max": {
            "id": cc_max,
            "size": int(report.sizes[cc_max]),
            "percent": round_percent(report.cc_max_fraction),
            "kind": report.kind(cc_max).letter,
        },
    }


def analysis_record(analysis: NetworkAnalysis,
                    include_members: bool | None = None) -> dict:
    """The record ``analyze`` prints."""
    net = analysis.network
    include_members = _lists_members(net, include_members)
    census = component_report_dict(analysis, include_members)
    record = {
        "n": net.n,
        "l": net.edge_count,
        "avg_degree": census["avg_degree"],
        "self_loops": net.self_loop_count(),
        "seed": analysis.seed,
        "matching_size": analysis.matching.size,
        "mis": {
            "size": census["mis_size"],
            "n_mis_percent": census["n_mis_percent"],
            "perfectly_matched": census["perfectly_matched"],
        },
        "input_graph_edges": analysis.input_graph.edge_count,
        "possible_input_percent": round_percent(int(np.count_nonzero(
            analysis.input_graph.possible_inputs)) / net.n),
        "components": census,
    }
    if include_members:
        record["mis"]["members"] = Records(
            [("member", net.label_column, analysis.input_set)], form="values")
        record["node_classes"] = node_class_records(analysis)
    return record


def node_class_records(analysis: NetworkAnalysis) -> Records:
    """The JSON object node label -> class name, by label."""
    labels = analysis.network.label_column
    return Records([("node", labels, labels.order),
                    ("class", _CLASS_NAMES, analysis.classes[labels.order])],
                   form="object")


def _addition_records(plan: AlterationPlan, labels) -> Records:
    """``{"src", "dst", "reason"}`` per addition, in plan order. The label
    column holds the plan's endpoints only, not every node's label;
    ``labels`` is the network's :class:`LabelColumn` or label tuple."""
    ends, index = np.unique(plan.additions, return_inverse=True)
    index = index.reshape(-1, 2)
    strings = LabelColumn(ends.size, tuple(map(labels.__getitem__,
                                               ends.tolist())))
    return Records([("src", strings, index[:, 0]),
                    ("dst", strings, index[:, 1]),
                    ("reason", (plan.reason,),
                     np.zeros(len(index), dtype=np.int8))])


def plan_dict(plan: AlterationPlan, labels) -> dict:
    payload = {
        "target_component_id": plan.target_component_id,
        "requested_kind": plan.requested_kind.value,
        "additions": _addition_records(plan, labels),
        "edge_count": len(plan.additions),
        "mis_before": plan.mis_before,
        "mis_after": plan.mis_after,
    }
    if plan.p is not None:
        payload["p_percent"] = round_percent(plan.p)
    if plan.delta_n_d is not None:
        payload["delta_n_d_percent"] = round_percent(plan.delta_n_d)
    return payload


def additions_tsv(plan: AlterationPlan, labels) -> str:
    rows = _addition_records(plan, labels).tsv_chunks()
    return "# src\tdst\treason\n" + "".join(rows)


def _input_graph_order(ig: InputGraph) -> np.ndarray:
    """Edge order: phase ``Di`` then ``Dr``, each by (src id, dst id).

    No pair occurs twice. Each phase is already in src order, which the
    stable sort of one int64 key per edge runs through (ER 10^5: 10 ms,
    against 130 ms for ``lexsort`` over the three columns).
    """
    key = ig.src.astype(np.int64) * ig.network.n + ig.dst
    split = ig.possible_edge_count
    return np.concatenate((key[:split].argsort(kind="stable"),
                           key[split:].argsort(kind="stable") + split))


def input_graph_tsv(ig: InputGraph, write=None) -> str | None:
    """The adjacency edges as TSV lines; ``write`` as in :func:`to_json`."""
    order = _input_graph_order(ig)
    labels = ig.network.label_column
    phase = np.arange(ig.edge_count) >= ig.possible_edge_count
    rows = Records([("src", labels, ig.src[order]),
                    ("dst", labels, ig.dst[order]),
                    ("witness", labels, ig.witness[order]),
                    ("phase", ("Di", "Dr"), phase.view(np.int8))])
    return _deliver(chain(["# from\tto\twitness\tphase\n"],
                          rows.tsv_chunks()), write)


def input_graph_dict(ig: InputGraph) -> dict[str, Records]:
    """``{"Di": [...], "Dr": [...]}`` of ``{"src", "dst", "witness"}``."""
    order = _input_graph_order(ig)
    split = ig.possible_edge_count
    return {phase: Records([(key, ig.network.label_column, column[part])
                            for key, column in (("src", ig.src),
                                                ("dst", ig.dst),
                                                ("witness", ig.witness))])
            for phase, part in (("Di", order[:split]), ("Dr", order[split:]))}


def components_tsv(analysis: NetworkAnalysis,
                   include_members: bool | None = None,
                   write=None) -> str | None:
    """The components as TSV lines, members joined by commas; ``write``
    as in :func:`to_json`."""
    include_members = _lists_members(analysis.network, include_members)
    header = "# id\tsize\tkind" + ("\tmembers" if include_members else "")
    rows = _component_records(analysis, include_members)
    return _deliver(chain([header + "\n"], rows.tsv_chunks()), write)


def classes_tsv(analysis: NetworkAnalysis) -> str:
    net = analysis.network
    rows = Records([("node", net.label_column, np.arange(net.n)),
                    ("class", _CLASS_CELLS, analysis.classes)])
    return "# node\tclass\tpossible_input\n" + "".join(rows.tsv_chunks())


SWEEP_HEADER = "model,N,k,seed,cc_max_frac,cc_count,n_p,cc_kind"


def sweep_row(model: str, n: int, k: float, seed: int,
              possible_inputs: np.ndarray, report: ComponentReport) -> str:
    n_p = int(np.count_nonzero(possible_inputs)) / n
    return ",".join([
        model,
        str(n),
        f"{k:g}",
        str(seed),
        f"{round_ratio(report.cc_max_fraction):g}",
        str(report.component_count),
        f"{round_ratio(n_p):g}",
        report.kind(report.cc_max).letter,
    ])
