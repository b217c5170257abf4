"""The benchmark's workloads: inputs, the timed operation, and output checks.

Every workload drives the real command line, ``netcontrol.cli.main(argv)``.
Inputs are made by the ``write`` role of ``worker.py`` in a process of its
own; the timed process sees only those files and the argument lists that
``op_argvs`` returns. Checks read stdout only, because stdout is the
program's contract while its internals are free to change.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path


class OpError(Exception):
    """A command of an operation exited with a non-zero code."""


def run_cli(cli_main, argv: list[str]) -> str:
    """Run one command in-process and return its stdout."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli_main(argv)
    except SystemExit as exc:  # argparse reports usage errors this way
        code = exc.code
    if code != 0:
        raise OpError(f"netcontrol {argv[0]} exited {code}: "
                      f"{err.getvalue().strip()[-500:]}")
    return out.getvalue()


def _generate(cli_main, model: str, n: int, k: float, seed: int,
              path: Path) -> None:
    run_cli(cli_main, ["generate", "--model", model, "-n", str(n),
                       "-k", f"{k:g}", "--seed", str(seed), "-o", str(path)])


def _edge_set(path: Path) -> set[tuple[str, str]]:
    with open(path, encoding="utf-8") as fh:
        return {tuple(line.split()) for line in fh
                if line.strip() and not line.startswith("#")}


def _edge_target(n: int, k: float) -> int:
    # the generators draw exactly round(k * N / 2) edges, half away from zero
    return int(k * n / 2 + 0.5)


class Workload:
    """Defaults for a workload that writes no input and alters nothing."""

    inputs: tuple[str, ...] = ()

    def write_inputs(self, cli_main, work: Path, seed: int) -> None:
        pass

    def reference(self, work: Path, seed: int) -> dict:
        return {}

    def alteration_counts(self, outs: list[str]) -> tuple[int, int]:
        """Edges added and target-component members, over the op's steps."""
        return 0, 0


@dataclass(frozen=True)
class AnalyzeER(Workload):
    """``netcontrol analyze FILE`` on one uniform random digraph."""

    n: int = 100_000
    k: float = 10.0

    name = "analyze-er"
    inputs = ("net.txt",)

    def write_inputs(self, cli_main, work: Path, seed: int) -> None:
        _generate(cli_main, "er", self.n, self.k, seed, work / "net.txt")

    def op_argvs(self, work: Path, seed: int) -> list[list[str]]:
        return [["analyze", str(work / "net.txt")]]

    def reference(self, work: Path, seed: int) -> dict:
        """Matching size from scipy's Hopcroft-Karp, an independent solver."""
        import numpy as np
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import maximum_bipartite_matching

        pairs = np.loadtxt(work / "net.txt", dtype=np.int64, comments="#",
                           ndmin=2)
        graph = csr_matrix((np.ones(len(pairs), dtype=np.int8),
                            (pairs[:, 0], pairs[:, 1])),
                           shape=(self.n, self.n))
        match = maximum_bipartite_matching(graph, perm_type="column")
        return {"matching_size": int((match >= 0).sum())}

    def check(self, outs: list[str], ref: dict, work: Path) -> list[str]:
        rec = json.loads(outs[0])
        comps = rec["components"]
        problems = []
        if (rec["n"], rec["l"]) != (self.n, _edge_target(self.n, self.k)):
            problems.append(f"analysed N={rec['n']}, L={rec['l']}")
        if rec["n"] - rec["matching_size"] != rec["mis"]["size"]:
            problems.append("n - matching_size != mis.size")
        if sum(c["size"] for c in comps["components"]) != rec["n"]:
            problems.append("component sizes do not sum to n")
        if sum(comps["kind_counts"].values()) != comps["component_count"]:
            problems.append("kind counts do not sum to component_count")
        if rec["matching_size"] != ref["matching_size"]:
            problems.append(f"matching_size {rec['matching_size']} != "
                            f"scipy's {ref['matching_size']}")
        if rec["input_graph_edges"] > rec["l"]:
            problems.append("more control-adjacency edges than edges")
        return problems


@dataclass(frozen=True)
class SweepSF(Workload):
    """``netcontrol sweep`` over a grid of small scale-free networks."""

    n: int = 2000
    k_list: tuple[float, ...] = (2, 4, 6, 8, 10, 12)
    replicates: int = 5

    name = "sweep-sf"

    def op_argvs(self, work: Path, seed: int) -> list[list[str]]:
        return [["sweep", "--model", "sf", "-n", str(self.n),
                 "--k-list", ",".join(f"{k:g}" for k in self.k_list),
                 "--replicates", str(self.replicates),
                 "--seed-base", str(seed)]]

    def reference(self, work: Path, seed: int) -> dict:
        return {"grid": [[f"{k:g}", str(s)] for k in self.k_list
                         for s in range(seed, seed + self.replicates)]}

    def check(self, outs: list[str], ref: dict, work: Path) -> list[str]:
        header, *rows = outs[0].splitlines()
        cols = header.split(",")
        table = [dict(zip(cols, row.split(","))) for row in rows]
        want = {tuple(cell) for cell in ref["grid"]}
        problems = []
        if len(rows) != len(want):
            problems.append(f"{len(rows)} data rows, expected {len(want)}")
        if {(r["k"], r["seed"]) for r in table} != want:
            problems.append("rows do not cover the requested (k, seed) grid")
        if any(r["cc_kind"] not in ("I", "U", "S") for r in table):
            problems.append("cc_kind outside {I,U,S}")
        return problems


@dataclass(frozen=True)
class AlterSF(Workload):
    """Saturate the giant component of a scale-free network, then re-open it.

    Step one turns the largest component into an SMC; step two covers the
    largest SMC of the saturated network (BASE plus step one's additions,
    written at set-up) with adjacency links, turning it back into an IC.
    """

    n: int = 6000
    k: float = 10.0

    name = "alter-sf"
    inputs = ("base.txt", "sat.txt")

    def write_inputs(self, cli_main, work: Path, seed: int) -> None:
        base = work / "base.txt"
        _generate(cli_main, "sf", self.n, self.k, seed, base)
        step = json.loads(run_cli(cli_main, self.op_argvs(work, seed)[0]))
        added = "".join(f"{a['src']}\t{a['dst']}\n"
                        for a in step["plan"]["additions"])
        (work / "sat.txt").write_text(base.read_text(encoding="utf-8") + added,
                                      encoding="utf-8")

    def op_argvs(self, work: Path, seed: int) -> list[list[str]]:
        # no -o: ``alter -o`` writes goal_attained nowhere
        return [["alter", str(work / "base.txt"), "--component", "largest",
                 "--to", "smc"],
                ["alter", str(work / "sat.txt"), "--component", "largest-smc",
                 "--to", "ic", "--mode", "full"]]

    def check(self, outs: list[str], ref: dict, work: Path) -> list[str]:
        steps = [json.loads(out) for out in outs]
        problems = []
        for step, name in zip(steps, self.inputs):
            plan = step["plan"]
            if not step["goal_attained"]:
                problems.append(f"goal not attained on {name}")
            if plan["edge_count"] != len(plan["additions"]):
                problems.append(f"edge_count is not the additions' count "
                                f"on {name}")
            added = {(a["src"], a["dst"]) for a in plan["additions"]}
            if added & _edge_set(work / name):
                problems.append(f"an added edge is already in {name}")
        saturate, cover = (step["plan"] for step in steps)
        if (saturate["mis_after"]
                != saturate["mis_before"] - saturate["edge_count"]):
            problems.append("saturation did not shrink the MIS by one "
                            "per edge")
        if cover["mis_after"] != cover["mis_before"]:
            problems.append("adjacency links changed the MIS")
        return problems

    def alteration_counts(self, outs: list[str]) -> tuple[int, int]:
        additions = members = 0
        for step in map(json.loads, outs):
            plan = step["plan"]
            additions += plan["edge_count"]
            members += next(c["size"]
                            for c in step["before"]["components"]["components"]
                            if c["id"] == plan["target_component_id"])
        return additions, members


WORKLOADS = {wl.name: wl for wl in (AnalyzeER(), SweepSF(), AlterSF())}


def from_plan(plan: dict):
    """The workload a run plan names, with the plan's parameters."""
    return type(WORKLOADS[plan["workload"]])(**plan["params"])
