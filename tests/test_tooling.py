"""Guards on the tooling that reaches into the package from outside."""

import functools
import importlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from netcontrol import COMPONENT_KINDS, GenSpec, analyze, generate


def test_benchmark_span_hooks_resolve_except_the_known_stale_one():
    # perfbench wraps these attributes by name; a renamed or deleted one
    # silently drops its span. The one stale hook is a known open item.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = set()
    for module, attr, _ in spans.HOOKS:
        try:
            functools.reduce(getattr, attr.split("."),
                             importlib.import_module(module))
        except AttributeError:
            missing.add(f"{module}.{attr}")
    assert missing == {"netcontrol.pipeline.verify_class_separation"}


def test_traced_benchmark_counts_read_the_record(monkeypatch):
    # A traced benchmark run sums these counts over each op's analyses by
    # iterating the record's component list; check them against the arrays.
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))  # worker imports its siblings
    spec = importlib.util.spec_from_file_location("perfbench_worker",
                                                  perfbench / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    analysis = analyze(generate(GenSpec(model="sf", n=2000, avg_degree=8,
                                        seed=2)))
    counts = worker.analysis_counts([analysis])
    report = analysis.report
    kinds = np.bincount(report.kinds, minlength=len(COMPONENT_KINDS))
    assert counts["components.count"] == report.component_count
    for kind, count in zip(COMPONENT_KINDS, kinds.tolist()):
        assert counts[f"components.{kind.value.lower()}"] == count
    assert counts["input_graph.possible_inputs"] == np.count_nonzero(
        analysis.input_graph.possible_inputs)
    assert min(kinds) > 0


def test_cli_import_loads_neither_scipy_nor_networkx():
    # Importing scipy.sparse.csgraph alone raises peak RSS by about 32 MB,
    # beyond the benchmark's 10 % bound on every workload.
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, netcontrol.cli; print(sorted(m for m in sys.modules"
            " if m.partition('.')[0] in ('scipy', 'networkx')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_every_subcommand_has_a_handler():
    # main dispatches through _COMMANDS; a parser entry without a handler
    # would end in a KeyError traceback, a handler without one is dead code
    import argparse

    from netcontrol import cli

    sub, = (action for action in cli._build_parser()._actions
            if isinstance(action, argparse._SubParsersAction))
    assert sorted(sub.choices) == sorted(cli._COMMANDS)


def test_every_exit_code_is_documented():
    # The cli docstring and the README's exit-code paragraph each name every
    # EXIT_* value, the out-of-memory case among them.
    from netcontrol import cli

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    codes = {name: value for name, value in vars(cli).items()
             if name.startswith("EXIT_")}
    assert sorted(codes.values()) == list(range(len(codes)))
    for source in (cli.__doc__, readme):
        paragraph, = (" ".join(p.split()) for p in source.split("\n\n")
                      if "Exit codes:" in " ".join(p.split()))
        listed = paragraph[paragraph.index("Exit codes:"):]
        for name, value in codes.items():  # "2 unreadable", "`2` unreadable"
            assert re.search(rf"(?<![\w^]){value}`? [a-z]", listed), name
        assert "not enough memory" in listed


def test_only_the_network_module_reads_the_label_state():
    # A network's labels live in its label column; every other module reads
    # them through it, so no second copy of the labels drifts back in.
    src = Path(__file__).resolve().parents[1] / "src" / "netcontrol"
    readers = sorted(path.name for path in src.glob("*.py")
                     if path.name != "network.py" and re.search(
                         r"\.(labels|_labels|_label_to_id)\b",
                         path.read_text(encoding="utf-8")))
    assert readers == []


def test_only_the_network_and_row_modules_name_byte_table():
    # Strings become a table through a LabelColumn, which keeps it; no
    # other module builds one per render.
    src = Path(__file__).resolve().parents[1] / "src" / "netcontrol"
    builders = sorted(path.name for path in src.glob("*.py")
                      if re.search(r"\bbyte_table\b",
                                   path.read_text(encoding="utf-8")))
    assert builders == ["network.py", "textrows.py"]


def test_thin_level_thresholds_are_constants_not_keywords():
    # The matcher and reach switch to scalar walks of thin levels at sizes
    # fixed in their modules; neither signature grows a knob for them.
    from netcontrol.matching import maximum_matching
    from netcontrol.network import reach

    def parameters(function):
        return [(p.name, p.default) for p in
                inspect.signature(function).parameters.values()]

    empty = inspect.Parameter.empty
    assert parameters(maximum_matching) == [("net", empty), ("order_seed", 0)]
    assert parameters(reach) == [("ptr", empty), ("idx", empty),
                                 ("seen", empty)]


def test_a_failing_property_test_reports_its_example(tmp_path):
    # On a failure hypothesis imports libcst, which warns of a deprecation;
    # under the repo's warning filters that must not stop the run before
    # the example is printed and the tests after it have run.
    (tmp_path / "test_throwaway.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 5\n\n\n"
        "def test_one():\n"
        "    pass\n\n\n"
        "def test_two():\n"
        "    pass\n", encoding="utf-8")
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "--rootdir",
         str(tmp_path), "-p", "no:cacheprovider", "test_throwaway.py"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example: test_fails(" in proc.stdout
    assert "1 failed, 2 passed" in proc.stdout
