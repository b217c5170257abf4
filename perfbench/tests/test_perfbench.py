"""Self-tests of the benchmark on scaled-down workloads.

    python3 -m pytest perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "analyze-er": workloads.AnalyzeER(n=2000),
    "sweep-sf": workloads.SweepSF(n=200, k_list=(2, 4), replicates=2),
    "alter-sf": workloads.AlterSF(n=600),
}


def test_small_workloads_cover_every_workload():
    assert set(SMALL) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("name", sorted(SMALL))
def test_scaled_run_reports_every_metric(name, traced, tmp_path):
    record = run.run(SMALL[name], 3, 0.3, traced, tmp_path)
    assert record["failed"] == 0, record["problems"]
    assert set(record["metrics"]) == set(run.catalog(traced))
    if traced:
        assert record["metrics"]["trace.missing_hooks"] == 0
        assert record["metrics"]["pipeline.calls"] >= 1


def test_tracing_leaves_stdout_unchanged(tmp_path):
    record = run.run(SMALL["alter-sf"], 5, 0.3, True, tmp_path)
    plain, traced = record["stdout_sha256"]
    assert plain == traced and len(plain) == 1


def test_corrupted_output_counts_as_failed_op(tmp_path):
    wl = SMALL["analyze-er"]
    record = run.run(wl, 3, 0.1, True, tmp_path)
    work = tmp_path / "analyze-er-seed3"
    (digest,) = record["stdout_sha256"][0]
    good = json.loads((work / "outputs" / f"{digest}.json").read_text(
        encoding="utf-8"))
    analysis = json.loads(good[0])
    analysis["matching_size"] += 1
    outputs = {"good": good, "bad": [json.dumps(analysis)]}
    sets = [{"dir": str(work / "input0"), "seed": record["input_seeds"][0]}]
    refs = {0: wl.reference(Path(sets[0]["dir"]), sets[0]["seed"])}

    def op(digest):
        return {"set": 0, "error": None, "digest": digest}

    assert run.tally(wl, [op("good")] * 3, outputs, refs, sets) == []
    odd_one = run.tally(wl, [op("good"), op("good"), op("bad")], outputs,
                        refs, sets)
    assert odd_one == ["stdout differs from the other ops' stdout"]
    all_bad = run.tally(wl, [op("bad")] * 2, outputs, refs, sets)
    assert len(all_bad) == 2 and "matching_size" in all_bad[0]


def test_missing_hook_is_counted_not_fatal():
    tracer = spans.Tracer()
    missing = tracer.install([("netcontrol.pipeline", "no_such_stage", "x"),
                              ("netcontrol.no_such_module", "f", "y")])
    assert missing == 2
