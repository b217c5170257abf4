"""Spans around the calls into each netcontrol layer, for the traced run.

The wrappers replace the module attributes through which callers look the
functions up, so the traced process makes the same calls as the untraced
one, each inside a span. A span records its op, name, parent, start and
end; spans stay in memory and are written out when the process exits.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, span name). A span name is a metric name without its
# ``_s`` suffix; several functions may share one.
HOOKS = (
    ("netcontrol.cli", "load_edge_list", "network.load"),
    ("netcontrol.network", "DirectedNetwork.with_edges", "network.with_edges"),
    ("netcontrol.pipeline", "maximum_matching", "matching.maximum_matching"),
    ("netcontrol.input_graph", "is_maximum", "matching.is_maximum"),
    ("netcontrol.pipeline", "build_input_graph", "input_graph.build"),
    ("netcontrol.pipeline", "verify_class_separation", "input_graph.verify"),
    ("netcontrol.pipeline", "classify_nodes", "input_graph.classify"),
    ("netcontrol.pipeline", "component_report", "components.report"),
    ("netcontrol.cli", "analyze", "pipeline.analyze"),
    ("netcontrol.cli", "ic_to_smc", "alteration.saturate"),
    ("netcontrol.cli", "umc_to_smc", "alteration.saturate"),
    ("netcontrol.cli", "smc_to_ic_full", "alteration.smc_to_ic_full"),
    ("netcontrol.cli", "alteration_report", "alteration.report"),
    ("netcontrol.cli", "plan_attains_goal", "alteration.report"),
    ("netcontrol.cli", "generate", "generators.generate"),
    ("netcontrol.reports", "analysis_record", "reports.record"),
    ("netcontrol.reports", "plan_dict", "reports.record"),
    ("netcontrol.reports", "to_json", "reports.serialize"),
    ("netcontrol.reports", "sweep_row", "reports.serialize"),
)
ROOT_SPAN = "cli"  # one per op, around its commands
KEPT_SPAN = "pipeline.analyze"  # its results are kept for the op's counts


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [op, name, parent index, start, end]
        self.kept: list = []
        self._open: list[int] = []
        self._op: int | None = None

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = [self._op, name, parent, time.perf_counter(), None]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[4] = time.perf_counter()
            self._open.pop()

    @contextmanager
    def op(self, number: int):
        """Root span of one op; spans outside every op are not counted."""
        self._op = number
        try:
            with self.span(ROOT_SPAN):
                yield
        finally:
            self._op = None

    def _wrap(self, name: str, fn):
        keep = name == KEPT_SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if keep and self._op is not None:
                self.kept.append(result)
            return result
        return traced

    def install(self, hooks=HOOKS) -> int:
        """Wrap every hook that exists; return how many are missing."""
        missing = 0
        for module, attr, name in hooks:
            *path, leaf = attr.split(".")
            try:
                owner = importlib.import_module(module)
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, leaf)
            except (ImportError, AttributeError):
                missing += 1
                continue
            setattr(owner, leaf, self._wrap(name, fn))
        return missing

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def read(path) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def per_op(spans: list[list]) -> list[dict[str, list[float]]]:
    """For each op, ``name -> [self seconds, total seconds, calls]``.

    Self time is a span's duration minus its direct children's durations.
    """
    child_time: dict[int, float] = defaultdict(float)
    for op, name, parent, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    ops: dict[int, dict[str, list[float]]] = defaultdict(
        lambda: defaultdict(lambda: [0.0, 0.0, 0]))
    for index, (op, name, parent, start, end) in enumerate(spans):
        if op is None:
            continue
        entry = ops[op][name]
        entry[0] += end - start - child_time[index]
        entry[1] += end - start
        entry[2] += 1
    return [ops[op] for op in sorted(ops)]
