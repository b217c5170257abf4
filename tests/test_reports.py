"""``reports.to_json`` must write exactly what ``json.dumps`` with
``sort_keys=True, indent=2`` writes, and the list outputs exactly what
building a dict or a line per row writes."""

import json
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netcontrol import (COMPONENT_KINDS, NODE_CLASSES, AlterationError,
                        ComponentKind, DirectedNetwork, analyze,
                        load_edge_list)
from netcontrol import textrows
from netcontrol.alteration import (ic_to_smc, smc_to_ic_full,
                                   smc_to_ic_single, umc_to_smc)
from netcontrol.network import LabelColumn
from netcontrol.reports import (MEMBER_LIST_LIMIT, Records, additions_tsv,
                                analysis_record, component_report_dict,
                                components_tsv, input_graph_dict,
                                input_graph_tsv, node_class_records,
                                plan_dict, to_json)

HOSTILE = ['"', '\\', '\\"', 'q"uote', 'back\\slash', 'ü', 'naïve', '日本',
           '\U0001f600', '\x00', '\x1f', '\x7f', '\n', '\r\n', '\t', '',
           '  ', '},\n    {', '{', '}', '[', ']', ',', ': ', ' ',
           '\ud800']


def _reference(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_hostile_labels_are_escaped_like_json_dumps():
    payloads = [
        {label: label for label in HOSTILE},
        {"members": HOSTILE, "empty_list": [], "empty_dict": {}},
        {"components": [{"id": i, "kind": label, "members": [label, label]}
                        for i, label in enumerate(HOSTILE)]},
        {"records": [{"src": a, "dst": b} for a in HOSTILE for b in "xy"]},
        {"mixed": [{}, {"a": 1}, [], [1, [2, {}]], "s", None, 1.5, True]},
        {"records_then_empty": [{"a": "}, {"}, {"b": []}, {"c": {}}]},
        {"Di": [], "Dr": [{"src": "\\", "dst": '"', "witness": "ü"}]},
        {1: "int key", 3: "int key"}, {2.5: [], 0.5: ["float key"]},
        {True: {"bool key": []}}, {None: [["null key"]]},
        {"nested": {"deeper": {"deepest": [[], [[]], [{}], ({"t": (1, 2)},)]}}},
        {"floats": [0.1, -0.0, 1e300, float("inf"), float("nan"), 10 ** 30]},
        [], {}, "top-level string", 7,
    ]
    for payload in payloads:
        assert to_json(payload) == _reference(payload)


scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
records = st.lists(st.dictionaries(st.text(), scalars, min_size=1,
                                   max_size=3), min_size=2, max_size=4)
json_values = st.recursive(
    scalars | records,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=30)


@st.composite
def long_records(draw):
    """A long list of flat records, at times with one nested record."""
    shapes = draw(st.lists(st.dictionaries(st.text(max_size=2), scalars,
                                           max_size=3), min_size=1, max_size=4))
    rows = [dict(shapes[i % len(shapes)], id=i)
            for i in range(draw(st.integers(2, 3000)))]
    if draw(st.booleans()):
        rows[draw(st.integers(0, len(rows) - 1))]["members"] = draw(
            st.sampled_from([[], {}, ["x"], {"a": None}, ({"t": 1},)]))
    return {"components": rows}


@settings(max_examples=300, deadline=None)
@given(json_values | long_records())
def test_any_json_value_matches_json_dumps(payload):
    assert to_json(payload) == _reference(payload)


# to_json has json.dumps write each Records as a mark string, and cuts the
# text there. Strings that resemble a mark must stay strings.
MARKISH = (st.sampled_from(["\x00", "\x00\x00", "\\u0000", '"\\u0000"',
                            "\\\\u0000", "\\\x00", '"\x00"', ""])
           | st.builds(lambda head, digits, tail: head + digits + tail,
                       st.sampled_from(["\x00", "\\u0000", '"\\u0000',
                                        '\\"\x00', "\x00\x00", ""]),
                       st.text("0123456789abcdef", max_size=40),
                       st.sampled_from(["", '"', '\\"', "\x00", ",\n"])))


@st.composite
def _marked_payloads(draw, depth=0):
    """A payload of mark-like keys and strings with Records at depths 0-2,
    and the same payload as plain data."""
    shape = draw(st.sampled_from(["records", "string", "dict", "list"][
        :4 if depth < 2 else 2]))
    if shape == "records":
        names = draw(st.lists(MARKISH, max_size=3))
        return Records([("member", LabelColumn(len(names), tuple(names)),
                         np.arange(len(names)))], form="values"), names
    if shape == "string":
        text = draw(MARKISH)
        return text, text
    children = draw(st.lists(_marked_payloads(depth + 1), max_size=3))
    if shape == "list":
        return [p for p, _ in children], [r for _, r in children]
    keys = draw(st.lists(MARKISH, min_size=len(children),
                         max_size=len(children), unique=True))
    return ({k: p for k, (p, _) in zip(keys, children)},
            {k: r for k, (_, r) in zip(keys, children)})


@settings(max_examples=300, deadline=None)
@given(_marked_payloads())
@example(({"\x00": "\x00", "a": Records([("id", None, np.arange(2))])},
          {"\x00": "\x00", "a": [{"id": 0}, {"id": 1}]}))
def test_no_payload_string_takes_a_lists_place(case):
    payload, reference = case
    assert to_json(payload) == _reference(reference)


# The list outputs against the dict-per-row and line-join code they replace.

def _reference_components(analysis, members):
    net, report = analysis.network, analysis.report
    names = [kind.value for kind in COMPONENT_KINDS]
    comps = [{"id": i, "size": size, "kind": names[kind]} for i, (size, kind)
             in enumerate(zip(report.sizes.tolist(), report.kinds.tolist()))]
    if members:
        order = np.argsort(report.comp_of, kind="stable").tolist()
        labels = [net.labels[v] for v in order]
        bounds = np.cumsum(report.sizes).tolist()
        for entry, lo, hi in zip(comps, [0, *bounds], bounds):
            entry["members"] = labels[lo:hi]
    return comps


def _reference_classes(analysis):
    names = [c.value for c in NODE_CLASSES]
    return {analysis.network.labels[v]: names[c]
            for v, c in enumerate(analysis.classes.tolist())}


def _reference_record(analysis, record, members):
    """``record`` with each list built a dict or a label per row."""
    reference = {**record, "components": {
        **record["components"],
        "components": _reference_components(analysis, members)}}
    if members:
        labels = analysis.network.labels
        reference["mis"] = {**record["mis"], "members": [
            labels[v] for v in analysis.input_set.tolist()]}
        reference["node_classes"] = _reference_classes(analysis)
    return reference


def _reference_input_graph_rows(ig):
    redundant = np.arange(ig.edge_count) >= ig.possible_edge_count
    order = np.lexsort((ig.dst, ig.src, redundant))
    label = ig.network.labels.__getitem__
    return list(zip(*(map(label, column[order].tolist())
                      for column in (ig.src, ig.dst, ig.witness)),
                    np.where(redundant[order], "Dr", "Di").tolist()))


def _hostile_networks():
    """Digraphs labelled with HOSTILE, then two past the member limit.

    From seed 6 on one label spans many pieces of the writer's tables,
    and from seed 9 more than two slices of the output by itself.
    """
    yield DirectedNetwork(len(HOSTILE), [], HOSTILE)  # no adjacency edge
    for seed in range(12):
        n = len(HOSTILE) + seed
        labels = HOSTILE + [f"x{i}" for i in range(seed)]
        if seed >= 6:
            labels[-1] = "\\\"long\n" * (40 if seed < 9 else 80_000)
        rng = np.random.default_rng(seed)
        edges = rng.integers(0, n, size=(rng.integers(0, 3 * n), 2))
        yield DirectedNetwork(n, edges, labels)
    yield _one_length_network(100_000)
    n = MEMBER_LIST_LIMIT + 2000
    labels = HOSTILE + [f"n{i}" for i in range(n - len(HOSTILE))]
    edges = np.random.default_rng(0).integers(0, n, size=(2 * n, 2))
    yield DirectedNetwork(n, edges, labels)
    yield load_edge_list(f"# nodes: {n}\n0 1\n")


def _one_length_network(size: int) -> DirectedNetwork:
    """Five labels of ``size`` bytes each, so that every cell of a label
    takes the same number of pieces, many more than a slice holds."""
    labels = [c * size for c in "abcde"]
    return DirectedNetwork(5, [(0, 1), (1, 2), (2, 0), (3, 4), (0, 3)], labels)


def test_list_outputs_match_the_per_row_references():
    cases = 0
    for net in _hostile_networks():
        analysis = analyze(net)
        # True first: the references read the labels, and until then the
        # # nodes: network's records are written from its ids' digits
        for members in (True, False, None):
            listed = net.n <= MEMBER_LIST_LIMIT if members is None else members
            record = analysis_record(analysis, members)
            reference = _reference_record(analysis, record, listed)
            assert to_json(record) == _reference(reference)
            if listed:  # the records index like the lists they write
                assert list(record["mis"]["members"]) == reference["mis"][
                    "members"]
                assert dict(record["node_classes"]) == reference[
                    "node_classes"]
            chunks = []  # the command line's way: chunks as they are made
            assert to_json(record, chunks.append) is None
            assert "".join(chunks) == _reference(reference)
            census = component_report_dict(analysis, members)
            assert list(census["components"]) == reference[
                "components"]["components"]
            lines = ["# id\tsize\tkind" + ("\tmembers" if listed else "")]
            lines += [f"{c['id']}\t{c['size']}\t{c['kind']}" + (
                "\t" + ",".join(c["members"]) if listed else "")
                for c in reference["components"]["components"]]
            assert components_tsv(analysis, members) == "\n".join(
                lines) + "\n"
        assert to_json(node_class_records(analysis)) == _reference(
            _reference_classes(analysis))
        rows = _reference_input_graph_rows(analysis.input_graph)
        lines = ["# from\tto\twitness\tphase", *map("\t".join, rows)]
        assert input_graph_tsv(analysis.input_graph) == "\n".join(
            lines) + "\n"
        phases = {"Di": [], "Dr": []}
        for src, dst, witness, phase in rows:
            phases[phase].append({"src": src, "dst": dst, "witness": witness})
        assert to_json(input_graph_dict(analysis.input_graph)) == _reference(
            phases)
        cases += 1
    assert cases == 16


PLANNERS = {ComponentKind.IC: (ic_to_smc,), ComponentKind.UMC: (umc_to_smc,),
            ComponentKind.SMC: (smc_to_ic_full, smc_to_ic_single)}


def test_labels_of_one_long_length_are_written_at_array_speed():
    # 19 MB of output; a numpy call per piece of each cell took 3.4 s
    analysis = analyze(_one_length_network(800_000))
    start = time.perf_counter()
    size = sum(map(len, (to_json(analysis_record(analysis, True)),
                         to_json(node_class_records(analysis)),
                         input_graph_tsv(analysis.input_graph),
                         components_tsv(analysis, True))))
    assert time.perf_counter() - start < 1.5
    assert size > 19_000_000


def test_plan_outputs_match_the_per_row_references():
    reasons = set()
    for net in _hostile_networks():
        analysis = analyze(net)
        report = analysis.report
        for kind, planners in PLANNERS.items():
            ids = np.flatnonzero(report.kinds == COMPONENT_KINDS.index(kind))
            for comp in map(report.component, ids[:3].tolist()):
                for planner in planners:
                    try:
                        plan = planner(analysis, comp)
                    except AlterationError:
                        continue
                    rows = [(net.labels[s], net.labels[d], plan.reason)
                            for s, d in plan.additions.tolist()]
                    payload = plan_dict(plan, net.labels)
                    assert to_json(payload) == _reference({
                        **payload, "additions": [
                            {"src": s, "dst": d, "reason": r}
                            for s, d, r in rows]})
                    lines = ["# src\tdst\treason", *map("\t".join, rows)]
                    assert additions_tsv(plan, net.labels) == "\n".join(
                        lines) + "\n"
                    reasons.add(plan.reason)
    assert reasons == {"saturate_input", "saturate_unsaturated",
                       "adjacency_link"}


def test_a_second_render_builds_no_string_table(monkeypatch):
    # Every string column is a LabelColumn, which keeps its tables: a
    # second record of the same analysis lays out no label, kind or class
    # name again.
    from netcontrol import network, textrows
    from netcontrol.generators import GenSpec, generate

    analysis = analyze(generate(GenSpec(model="sf", n=2000, avg_degree=10,
                                        seed=1)))
    first = to_json(analysis_record(analysis, include_members=True))
    built = []

    def counted(build):
        def counting(*args):
            built.append(build.__name__)
            return build(*args)
        return counting

    monkeypatch.setattr(textrows, "_table", counted(textrows._table))
    monkeypatch.setattr(network, "digit_table",
                        counted(network.digit_table))
    assert to_json(analysis_record(analysis, include_members=True)) == first
    assert built == []


# Random Records of every form against the same lists as plain data, with
# slices of a few pieces, so that cuts fall inside records and nested lists.

NAMES = (st.sampled_from(HOSTILE) | st.text(min_size=9, max_size=40)
         | st.builds(lambda k: '\\"long\n' * k, st.integers(2, 9)))


@st.composite
def _field(draw, kind, size, unique=False):
    """``(strings, values)`` of a Records field with ``size`` records and
    the values it writes: ints, labels of a LabelColumn or fixed names."""
    if kind == "ints":
        ints = draw(st.lists(st.integers(0, 10 ** 12), min_size=size,
                             max_size=size))
        return None, np.array(ints, dtype=np.int64), ints
    names = draw(st.lists(NAMES, min_size=size if unique else 1,
                          max_size=size if unique else 6, unique=unique))
    index = (list(range(size)) if unique else draw(st.lists(
        st.integers(0, len(names) - 1), min_size=size, max_size=size)))
    if unique:  # an object's keys, in json.dumps' sorted order
        names.sort()
    strings = (tuple(names) if kind == "fixed"
               else LabelColumn(len(names), tuple(names)))
    dtype = draw(st.sampled_from([np.int8, np.int32, np.int64]))
    return strings, np.array(index, dtype=dtype), [names[i] for i in index]


KINDS = st.sampled_from(["ints", "labels", "fixed"])


@st.composite
def records_and_data(draw):
    """A Records list, the same list as plain data and its TSV lines."""
    form = draw(st.sampled_from(["dicts", "nested", "values", "object"]))
    size = draw(st.integers(0, 12))
    if form == "object":
        key = draw(_field(draw(st.sampled_from(["labels", "fixed"])), size,
                          unique=True))
        fields = [key, draw(_field(draw(KINDS), size))]
    else:
        count = 1 if form == "values" else draw(st.integers(1, 3))
        fields = [draw(_field(draw(KINDS), size)) for _ in range(count)]
    keys = draw(st.lists(st.text(max_size=3), min_size=len(fields) + 1,
                         max_size=len(fields) + 1, unique=True))
    rows = [list(row) for row in zip(*(data for *_, data in fields))]
    nested = None
    if form == "nested":
        names = draw(st.lists(NAMES, min_size=1, max_size=6))
        lengths = draw(st.lists(st.integers(1, 5), min_size=size,
                                max_size=size))
        items = draw(st.lists(st.integers(0, len(names) - 1),
                              min_size=sum(lengths), max_size=sum(lengths)))
        bounds = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))
        nested = (keys[-1], LabelColumn(len(names), tuple(names)),
                  np.array(items, dtype=np.int64), bounds)
        for row, lo, hi in zip(rows, bounds[:-1], bounds[1:]):
            row.append([names[i] for i in items[lo:hi]])
    records = Records([(key, strings, values) for key, (strings, values, _)
                       in zip(keys, fields)], nested,
                      "dicts" if form == "nested" else form)
    if form == "values":
        data = [row[0] for row in rows]
    elif form == "object":
        data = dict(map(tuple, rows))
    else:
        data = [dict(zip(keys, row)) for row in rows]
    lines = ["\t".join(",".join(v) if isinstance(v, list) else str(v)
                       for v in row) + "\n" for row in rows]
    return records, data, lines


@settings(max_examples=300, deadline=None)
@given(records_and_data(), st.sampled_from([8, 16, 24, 40, 64, 1 << 18]),
       st.lists(st.sampled_from(["dict", "list"]), max_size=2))
def test_records_write_their_data_across_slice_cuts(case, slice_bytes,
                                                    wrappers):
    records, data, lines = case
    payload, reference = records, data
    for wrapper in wrappers:  # deeper indentation
        payload, reference = (({"k": payload}, {"k": reference})
                              if wrapper == "dict"
                              else ([1, payload], [1, reference]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(textrows, "SLICE_BYTES", slice_bytes)
        assert to_json(payload) == _reference(reference)
        assert "".join(records.tsv_chunks()) == "".join(lines)
