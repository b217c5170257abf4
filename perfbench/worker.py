"""Child processes of the benchmark.

    python worker.py write PLAN SPAWNED_AT  # write the workload's input files
    python worker.py probe PLAN SPAWNED_AT  # start up as ``time`` does, then stop
    python worker.py time PLAN SPAWNED_AT   # run the op in a closed loop

PLAN is the JSON run plan ``run.py`` writes. SPAWNED_AT is the parent's
``time.monotonic()`` just before the spawn, so start-up covers interpreter
start and imports. The last line of stdout is a JSON object.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import signal
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from netcontrol import reports
from netcontrol.cli import main as cli_main

import spans
import workloads


class PaceProbe:
    """Samples how fast the CPU runs this process, compared to a reference.

    On the shared 2-vCPU KVM guest (Intel Xeon, 2.0 GHz) the benchmark was
    tuned on, each vCPU alternates, independently and for 1 to 20 s at a
    time, between two speeds about 1.5x apart, so raw op times spread by a
    quarter from run to run. A timer runs a fixed loop every ``INTERVAL_S``
    (about 1 % of the time); the loop's reference duration over its measured
    duration is the pace: 1 at the reference speed, below 1 when slowed.
    Wall seconds times the mean pace over an interval give the seconds the
    interval would have taken at the reference speed.
    """

    INTERVAL_S = 0.1
    LOOP = 20_000
    REFERENCE_S = 0.00075  # the loop's duration on an uncontended vCPU

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, pace)

    def _tick(self, signum=None, frame=None):
        began = time.perf_counter()
        total = 0
        for i in range(self.LOOP):
            total += i
        self.samples.append(
            (began, self.REFERENCE_S / (time.perf_counter() - began)))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        self._tick()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def pace(self, start: float = float("-inf"),
             end: float = float("inf")) -> float:
        """Mean pace of the samples taken between ``start`` and ``end``."""
        window = [p for t, p in self.samples if start <= t <= end]
        if not window:  # an interval shorter than the timer's period
            window = [min(self.samples, key=lambda s: abs(s[0] - start))[1]]
        return sum(window) / len(window)


def main(argv: list[str]) -> int:
    with PaceProbe() as probe:
        result = serve(argv[1], argv[2], float(argv[3]), probe)
    result["pace"] = probe.pace()
    print(json.dumps(result))
    return 0


def serve(role: str, plan_path: str, spawned_at: float, probe) -> dict:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    wl = workloads.from_plan(plan)
    sets = [(Path(s["dir"]), s["seed"]) for s in plan["sets"]]
    if role == "write":
        for work, seed in sets:
            wl.write_inputs(cli_main, work, seed)
        return {}

    tracer = spans.Tracer() if plan["traced"] else None
    missing = tracer.install() if tracer else 0
    argv_sets = [wl.op_argvs(work, seed) for work, seed in sets]
    result = {"startup_s": time.monotonic() - spawned_at}
    if role == "time":
        gc.collect()
        result["ops"] = closed_loop(argv_sets, plan["seconds"], tracer,
                                    Path(plan["work"]) / "outputs")
        for op in result["ops"]:
            op["pace"] = probe.pace(op["began"], op["began"] + op["s"])
        result["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        result["missing_hooks"] = missing
        if tracer:
            tracer.write(plan["spans"])
    return result


def closed_loop(argv_sets, seconds, tracer, outputs: Path) -> list[dict]:
    """Run ops back to back until ``seconds`` have passed, at least once.

    Op ``k`` runs the commands of input set ``k mod len(argv_sets)``. Each
    op's stdouts are stored once per distinct digest under ``outputs``
    for the parent to check; a traced op also reports its analysis counts.
    """
    ops = []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        index = len(ops) % len(argv_sets)
        op = {"set": index, "error": None, "digest": None,
              "began": time.perf_counter()}
        outs = None
        try:
            with tracer.op(len(ops)) if tracer else nullcontext():
                outs = [workloads.run_cli(cli_main, argv)
                        for argv in argv_sets[index]]
        except Exception:  # a failed op is counted by the parent, not fatal
            op["error"] = traceback.format_exc()[-1500:]
        op["s"] = time.perf_counter() - op["began"]
        if outs is not None:
            blob = json.dumps(outs)
            op["digest"] = hashlib.sha256(blob.encode()).hexdigest()
            path = outputs / f"{op['digest']}.json"
            if not path.exists():
                path.write_text(blob, encoding="utf-8")
        if tracer:
            op["counts"] = analysis_counts(tracer.kept)
            tracer.kept.clear()
        ops.append(op)
        gc.collect()
    return ops


def analysis_counts(analyses) -> dict[str, int]:
    """Counts summed over an op's analyses, from their ``analyze`` records.

    ``reports.analysis_record`` builds the record ``netcontrol analyze``
    prints, so the counts use stdout's fields even where the command itself
    prints none (``sweep``).
    """
    record = getattr(reports, "analysis_record", None)
    counts: dict[str, int] = {}
    for analysis in analyses if record else ():
        rec = record(analysis, include_members=False)
        comps = rec["components"]
        found = {
            "network.edges": rec["l"],
            "matching.size": rec["matching_size"],
            "input_graph.edges": rec["input_graph_edges"],
            # every possible-input node lies in an IC and every IC member
            # is a possible input, so IC sizes sum to the closure's size
            "input_graph.possible_inputs": sum(
                c["size"] for c in comps["components"] if c["kind"] == "IC"),
            "components.count": comps["component_count"],
            **{f"components.{kind.lower()}": count
               for kind, count in comps["kind_counts"].items()},
        }
        for name, value in found.items():
            counts[name] = counts.get(name, 0) + value
    return counts


if __name__ == "__main__":
    sys.exit(main(sys.argv))
