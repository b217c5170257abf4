"""``reports.to_json`` must write exactly what ``json.dumps`` with
``sort_keys=True, indent=2`` writes."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from netcontrol.reports import to_json

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
