"""``reports.to_json`` must write exactly what ``json.dumps`` with
``sort_keys=True, indent=2`` writes, and the list outputs exactly what
building a dict or a line per row writes."""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from netcontrol import (COMPONENT_KINDS, NODE_CLASSES, AlterationError,
                        ComponentKind, DirectedNetwork, analyze,
                        load_edge_list)
from netcontrol.alteration import (ic_to_smc, smc_to_ic_full,
                                   smc_to_ic_single, umc_to_smc)
from netcontrol.reports import (MEMBER_LIST_LIMIT, additions_tsv,
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
    n = MEMBER_LIST_LIMIT + 2000
    labels = HOSTILE + [f"n{i}" for i in range(n - len(HOSTILE))]
    edges = np.random.default_rng(0).integers(0, n, size=(2 * n, 2))
    yield DirectedNetwork(n, edges, labels)
    yield load_edge_list(f"# nodes: {n}\n0 1\n")


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
    assert cases == 15


PLANNERS = {ComponentKind.IC: (ic_to_smc,), ComponentKind.UMC: (umc_to_smc,),
            ComponentKind.SMC: (smc_to_ic_full, smc_to_ic_single)}


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
