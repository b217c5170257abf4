"""Benchmark of the netcontrol command line.

    python3 perfbench/run.py --workload analyze-er --seed 1 --seconds 20 --trace 0

The program is imported from the ``src`` directory beside this one. A run
writes the workload's inputs from ``--seed`` in a process of its own, runs
the op in a closed loop (one caller) in a fresh process for ``--seconds``,
checks every output, prints each metric with its unit, stores a results
record under ``.perfbench_runs/results`` and ends with one JSON line.

``--trace 0`` reports the end-to-end metrics. Set-up runs three times, each
writing its own input set, and its median is reported; the timed loop
cycles through the three input sets. ``--trace 1`` reports the per-layer metrics: it
splits the time between an untraced process and a traced one, whose spans
come from wrappers installed around each layer's calls (see ``spans.py``).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
TIME_LIMIT_S = 170.0  # a run must end within 180 s


class BenchError(Exception):
    """The run could not produce a result."""


def child(role: str, plan: dict, deadline: float) -> tuple[float, dict]:
    """Run one ``worker.py`` role; return its wall seconds and its result."""
    name = f"plan-{role}{'-traced' if plan['traced'] else ''}.json"
    path = Path(plan["work"]) / name
    path.write_text(json.dumps(plan), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), role, str(path),
             repr(started)],
            capture_output=True, text=True, env=env,
            timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        raise BenchError(
            f"the {role} process ran past the time limit") from None
    wall = time.monotonic() - started
    if proc.returncode != 0:
        raise BenchError(f"the {role} process exited {proc.returncode}:\n"
                         + proc.stderr[-3000:])
    return wall, json.loads(proc.stdout.splitlines()[-1])


def verdict(wl, outs: list[str], ref: dict, work: Path) -> str:
    """The output check's complaints, joined; empty when the output passes."""
    try:
        return "; ".join(wl.check(outs, ref, work))
    except (ValueError, LookupError, TypeError) as exc:
        return f"unreadable output: {exc!r}"


def usual_digest(ops: list[dict]) -> str | None:
    """The stdout digest most ops share."""
    digests = Counter(op["digest"] for op in ops if op["digest"])
    return digests.most_common(1)[0][0] if digests else None


def tally(wl, ops: list[dict], outputs: dict, refs: dict,
          sets: list[dict]) -> list[str]:
    """One problem per failed op.

    An op fails when it raised or exited non-zero, when its stdout fails the
    workload's check, or when its stdout differs from that of most ops on
    the same input set: equal arguments must give byte-identical stdout,
    traced or not.
    """
    problems = []
    for index, inputs in enumerate(sets):
        mine = [op for op in ops if op["set"] == index]
        usual = usual_digest(mine)
        complaint = (verdict(wl, outputs[usual], refs[index],
                             Path(inputs["dir"])) if usual else "")
        for op in mine:
            if op["error"]:
                problems.append(op["error"])
            elif op["digest"] != usual:
                problems.append("stdout differs from the other ops' stdout")
            elif complaint:
                problems.append(complaint)
    return problems


def paced(op: dict) -> float:
    """The op's seconds at the reference CPU speed (see worker.PaceProbe)."""
    return op["s"] * op["pace"]


def op_seconds(ops: list[dict]) -> float:
    """Median paced op time over all ops.

    Ops cycle through the input sets, so one graph that is much cheaper or
    dearer than the others moves the median little.
    """
    return statistics.median(map(paced, ops))


def end_to_end(timed: dict, setups: list[float], failed: int) -> dict:
    ops = timed["ops"]
    return {
        "op_s": op_seconds(ops),
        "peak_rss_mb": timed["peak_rss_mb"],
        "setup_s": statistics.median(setups),
        "ok_ratio": 1 - failed / len(ops),
    }


def per_layer(wl, plain: dict, traced: dict, spans_path: Path,
              outs: list[str]) -> dict:
    """Per-op layer metrics, medians over the traced ops.

    A layer's ``_s`` metric is the self time of its spans at the reference
    CPU speed, except ``pipeline.analyze_s``, which includes the layers it
    calls.
    """
    ops = spans.per_op(spans.read(spans_path))
    paces = [op["pace"] for op in traced["ops"]]
    self_, total, calls = 0, 1, 2  # fields of spans.per_op's entries

    def median(name: str, field: int) -> float:
        scale = [1] * len(ops) if field == calls else paces
        return statistics.median(
            op[name][field] * k if name in op else 0
            for op, k in zip(ops, scale))

    metrics = {f"{name}_s": median(name, self_)
               for name in {hook[2] for hook in spans.HOOKS}}
    metrics.update({
        "pipeline.analyze_s": median("pipeline.analyze", total),
        "pipeline.self_s": median("pipeline.analyze", self_),
        "cli.self_s": median(spans.ROOT_SPAN, self_),
        "pipeline.calls": median("pipeline.analyze", calls),
        "matching.calls": median("matching.maximum_matching", calls),
        "generators.networks": median("generators.generate", calls),
    })
    counts = traced["ops"][0]["counts"]
    for name in ("network.edges", "matching.size", "input_graph.edges",
                 "input_graph.possible_inputs", "components.count",
                 "components.ic", "components.umc", "components.smc"):
        metrics[name] = counts.get(name, 0)
    edges = counts.get("network.edges", 0)
    metrics["input_graph.edges_per_edge"] = (
        counts.get("input_graph.edges", 0) / edges if edges else 0.0)
    additions, members = wl.alteration_counts(outs)
    metrics["alteration.additions"] = additions
    metrics["alteration.additions_per_member"] = (
        additions / members if members else 0.0)
    metrics["reports.output_bytes"] = sum(len(o.encode()) for o in outs)
    metrics["trace.overhead_ratio"] = (
        op_seconds(traced["ops"]) / op_seconds(plain["ops"]) - 1)
    metrics["trace.missing_hooks"] = traced["missing_hooks"]
    return metrics


def run(wl, seed: int, seconds: float, traced: bool, base: Path) -> dict:
    """Set up, time and check one workload; return the results record."""
    deadline = time.monotonic() + TIME_LIMIT_S
    work = base / f"{wl.name}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "outputs").mkdir(parents=True)
    (base / "results").mkdir(exist_ok=True)
    # Each set-up writes its own input set, and the timed loop cycles
    # through them, so that one run averages over several graphs.
    sets = [{"dir": str(work / f"input{i}"), "seed": seed * SETUP_REPEATS + i}
            for i in range(1 if traced else SETUP_REPEATS)]
    plan = {"workload": wl.name, "params": dataclasses.asdict(wl),
            "work": str(work), "sets": sets, "seconds": seconds,
            "traced": False, "spans": None}

    setups = []
    for inputs in sets:
        Path(inputs["dir"]).mkdir()
        write_s = 0.0
        if wl.inputs:
            wall, wrote = child("write", {**plan, "sets": [inputs]}, deadline)
            write_s = wall * wrote["pace"]
        if not traced:
            started = child("probe", plan, deadline)[1]
            setups.append(write_s + started["startup_s"] * started["pace"])

    if traced:
        spans_path = base / "results" / f"{wl.name}-seed{seed}.spans.jsonl"
        half = {**plan, "seconds": seconds / 2}
        runs = [child("time", half, deadline)[1],
                child("time", {**half, "traced": True,
                               "spans": str(spans_path)}, deadline)[1]]
    else:
        runs = [child("time", plan, deadline)[1]]
    ops = [op for r in runs for op in r["ops"]]
    digests = {op["digest"] for op in ops if op["digest"]}
    outputs = {d: json.loads((work / "outputs" / f"{d}.json").read_text(
        encoding="utf-8")) for d in digests}
    # the benchmark's own reference computations: off the clock
    refs = {i: wl.reference(Path(sets[i]["dir"]), sets[i]["seed"])
            for i in {op["set"] for op in ops}}
    problems = tally(wl, ops, outputs, refs, sets)
    if traced:
        metrics = per_layer(wl, runs[0], runs[1], spans_path,
                            outputs.get(usual_digest(ops), []))
    else:
        metrics = end_to_end(runs[0], setups, len(problems))
    return {
        "workload": wl.name, "params": dataclasses.asdict(wl), "seed": seed,
        "seconds": seconds, "trace": int(traced), "metrics": metrics,
        "attempted": len(ops), "failed": len(problems),
        "fail_ratio": len(problems) / len(ops), "problems": problems[:5],
        "op_counts": [len(r["ops"]) for r in runs],
        "stdout_sha256": [sorted({op["digest"] for op in r["ops"]} - {None})
                          for r in runs],
        "input_seeds": [inputs["seed"] for inputs in sets],
        "op_input": [[op["set"] for op in r["ops"]] for r in runs],
        "op_wall_s": [[op["s"] for op in r["ops"]] for r in runs],
        "op_pace": [[op["pace"] for op in r["ops"]] for r in runs],
        "startup_s": [r["startup_s"] for r in runs], "setup_s": setups,
        "environment": environment(),
    }


def environment() -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "netcontrol").glob("*.py")):
        source.update(path.read_bytes())
    return {"commit": commit, "src_sha256": source.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0))}


def catalog(traced: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json lists them for this mode."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if traced else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "netcontrol" / "cli.py").is_file():
        sys.stderr.write(f"error: no netcontrol sources under {SRC}\n")
        return 2
    units = catalog(bool(args.trace))

    base = ROOT / ".perfbench_runs"
    try:
        record = run(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), base)
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    metrics = record["metrics"]
    if set(metrics) != set(units):
        sys.stderr.write("error: metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(units))}\n")
        return 1
    path = (base / "results"
            / f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    path.write_text(json.dumps(record, indent=2), encoding="utf-8")

    print(f"{args.workload} seed {args.seed}: ops {record['op_counts']}, "
          f"{record['failed']} of {record['attempted']} failed, "
          f"fail_ratio {record['fail_ratio']:g}; record {path}")
    for problem in record["problems"]:
        print(f"  failed op: {problem.strip().splitlines()[-1]}")
    for name, unit in units.items():
        print(f"  {name:34} {metrics[name]:<12.6g} {unit}")
    print(json.dumps({
        "correct": record["failed"] == 0, "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
