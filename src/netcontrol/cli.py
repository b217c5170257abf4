"""Batch command-line front door.

Exit codes: 0 success, 1 usage error, 2 unreadable/invalid input or an
unwritable ``-o`` path, 3 infeasible alteration or exchange, 4 oracle guard
exceeded, 5 internal error (a violated invariant, a non-maximum matching or
a stray ``ValueError``, never bad input).
Data goes to stdout (or ``-o``); timing notes go to stderr so repeated runs
with the same seed stay byte-identical.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import reports
from .alteration import (alteration_report, apply_plan, ic_to_smc,
                         plan_attains_goal, smc_to_ic_full, smc_to_ic_single,
                         umc_to_smc)
from .components import COMPONENT_KINDS, ComponentKind, largest_component
from .errors import (AlterationError, EdgeListParseError, ExchangeError,
                     GenerationError, NetcontrolError, OracleInfeasibleError)
from .generators import GenSpec, generate
from .input_graph import NODE_CLASSES
from .matching import exchange, input_nodes, maximum_matching
from .network import DirectedNetwork, load_edge_list, write_edge_list
from .oracle import OracleGuard, enumerate_maximum_matchings, exhaustive_classes
from .pipeline import NetworkAnalysis, analyze

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_ORACLE = 4
EXIT_INTERNAL = 5


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="netcontrol",
                     description="Structural-controllability toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("-o", "--output", metavar="PATH",
                       help="write output here instead of stdout")
        return p

    p = add("generate", "write a synthetic network as an edge list")
    p.add_argument("--model", choices=("er", "sf"), required=True)
    p.add_argument("-n", "--nodes", type=int, required=True)
    p.add_argument("-k", "--avg-degree", type=float, required=True)
    p.add_argument("--gamma-in", type=float, default=3.0)
    p.add_argument("--gamma-out", type=float, default=3.0)
    p.add_argument("--seed", type=int, default=0)

    for name, help_text in (
            ("analyze", "full analysis record for an edge-list file"),
            ("classify", "per-node control classes"),
            ("inputgraph", "control-adjacency edges as TSV"),
            ("components", "control components and kinds")):
        p = add(name, help_text)
        p.add_argument("path")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("json", "tsv"),
                       default="json" if name == "analyze" else "tsv")
        p.add_argument("--members", action="store_true",
                       help="include member lists even on large networks")

    p = add("alter", "plan edge additions that flip a component's type")
    p.add_argument("path")
    p.add_argument("--component", default="largest",
                   help="component id, or largest[-ic|-mc|-umc|-smc]")
    p.add_argument("--to", choices=("smc", "ic"), required=True)
    p.add_argument("--mode", choices=("single", "full"), default="single")
    p.add_argument("--seed", type=int, default=0)

    p = add("exchange", "swap one input node for a control-adjacent one")
    p.add_argument("path")
    p.add_argument("--node", required=True, help="label of the input node")
    p.add_argument("--via", help="label of the in-edge source (default: lowest id)")
    p.add_argument("--seed", type=int, default=0)

    p = add("oracle-check", "compare exhaustive and pipeline classifications")
    p.add_argument("path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-nodes", type=int, default=16)
    p.add_argument("--max-count", type=int, default=10 ** 6)

    p = add("sweep", "generate/analyze a grid of synthetic networks to CSV")
    p.add_argument("--model", choices=("er", "sf"), required=True)
    p.add_argument("-n", "--nodes", type=int, required=True)
    p.add_argument("--k-list", required=True,
                   help="comma-separated average degrees, e.g. 2,4,6")
    p.add_argument("--replicates", type=int, default=10)
    p.add_argument("--seed-base", type=int, default=0)
    p.add_argument("--gamma-in", type=float, default=3.0)
    p.add_argument("--gamma-out", type=float, default=3.0)

    return parser


class _OutputError(NetcontrolError):
    """An output file could not be written."""


def _write(path: Path, text: str) -> None:
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _OutputError(f"cannot write {path}: {exc}") from exc


def _emit(text: str, output: str | None) -> None:
    if output:
        _write(Path(output), text)
    else:
        sys.stdout.write(text)


def _load(path: str) -> DirectedNetwork:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return load_edge_list(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise EdgeListParseError(f"cannot read {path}: {exc}") from exc


def _select_component(analysis: NetworkAnalysis, selector: str):
    report = analysis.report
    if selector.isdecimal():
        ident = int(selector)
        if ident >= report.component_count:
            raise AlterationError(f"no component with id {ident}")
        return report.component(ident)
    ic, umc, smc = map(report.kinds.__eq__, range(len(COMPONENT_KINDS)))
    pools = {"largest": None, "largest-ic": ic, "largest-mc": ~ic,
             "largest-umc": umc, "largest-smc": smc}
    if selector not in pools:
        raise AlterationError(f"unknown component selector {selector!r}")
    pool = pools[selector]
    if pool is not None and not pool.any():
        raise AlterationError(f"no component matches {selector!r}")
    return report.component(
        largest_component(report.sizes, report.kinds, pool))


def _cmd_generate(args) -> int:
    spec = GenSpec(model=args.model, n=args.nodes, avg_degree=args.avg_degree,
                   gamma_in=args.gamma_in, gamma_out=args.gamma_out,
                   seed=args.seed)
    net = generate(spec)
    header = [f"# model: {spec.model}",
              f"# avg_degree: {spec.avg_degree:g}",
              f"# seed: {spec.seed}"]
    if spec.model == "sf":
        header.append(f"# gamma_in: {spec.gamma_in:g}")
        header.append(f"# gamma_out: {spec.gamma_out:g}")
    header.append(f"# nodes: {net.n}")
    _emit("\n".join(header) + "\n" + write_edge_list(net), args.output)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    analysis = analyze(_load(args.path), args.seed)
    include = True if args.members else None
    record = reports.analysis_record(analysis, include_members=include)
    if args.format == "json":
        _emit(reports.to_json(record), args.output)
    else:
        flat = {k: v for k, v in record.items() if not isinstance(v, dict)}
        flat["n_mis_percent"] = record["mis"]["n_mis_percent"]
        flat["cc_max_percent"] = record["components"]["cc_max"]["percent"]
        flat["cc_max_kind"] = record["components"]["cc_max"]["kind"]
        lines = [f"{key}\t{flat[key]}" for key in sorted(flat)]
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _cmd_classify(args) -> int:
    analysis = analyze(_load(args.path), args.seed)
    if args.format == "json":
        _emit(reports.to_json(reports.classes_dict(analysis)), args.output)
    else:
        _emit(reports.classes_tsv(analysis), args.output)
    return EXIT_OK


def _cmd_inputgraph(args) -> int:
    analysis = analyze(_load(args.path), args.seed)
    if args.format == "json":
        _emit(reports.to_json(reports.input_graph_dict(analysis.input_graph)),
              args.output)
    else:
        _emit(reports.input_graph_tsv(analysis.input_graph), args.output)
    return EXIT_OK


def _cmd_components(args) -> int:
    analysis = analyze(_load(args.path), args.seed)
    include = args.members or analysis.network.n <= reports.MEMBER_LIST_LIMIT
    if args.format == "json":
        payload = reports.component_report_dict(
            analysis.report, analysis.network, include)
        _emit(reports.to_json(payload), args.output)
    else:
        _emit(reports.components_tsv(
            analysis.report, analysis.network, include), args.output)
    return EXIT_OK


def _cmd_alter(args) -> int:
    net = _load(args.path)
    before = analyze(net, args.seed)
    comp = _select_component(before, args.component)
    if args.to == "smc" and comp.kind is ComponentKind.IC:
        plan = ic_to_smc(net, before.matching, comp)
    elif args.to == "smc" and comp.kind is ComponentKind.UMC:
        plan = umc_to_smc(net, before.matching, comp)
    elif args.to == "ic" and comp.kind is ComponentKind.SMC:
        build = smc_to_ic_full if args.mode == "full" else smc_to_ic_single
        plan = build(net, before.matching, comp, ig=before.input_graph)
    else:
        raise AlterationError(
            f"cannot alter a {comp.kind.value} component to {args.to.upper()}"
            + ("; saturate it to SMC first" if args.to == "ic" else ""))
    after = analyze(apply_plan(net, plan), args.seed)
    plan = alteration_report(before, after, plan)

    labels = net.labels
    include = net.n <= reports.MEMBER_LIST_LIMIT
    payload = {
        "plan": reports.plan_dict(plan, labels),
        "goal_attained": plan_attains_goal(plan, after),
        "before": reports.analysis_record(before, include_members=include),
        "after": reports.analysis_record(after, include_members=include),
    }
    if args.output:
        prefix = Path(args.output)
        _write(prefix.with_suffix(".plan.json"),
               reports.to_json(payload["plan"]))
        _write(prefix.with_suffix(".added.tsv"),
               reports.additions_tsv(plan, labels))
        _write(prefix.with_suffix(".before.json"),
               reports.to_json(payload["before"]))
        _write(prefix.with_suffix(".after.json"),
               reports.to_json(payload["after"]))
    else:
        sys.stdout.write(reports.to_json(payload))
    return EXIT_OK


def _cmd_exchange(args) -> int:
    net = _load(args.path)
    try:
        node = net.id_of(args.node)
        via = net.id_of(args.via) if args.via else None
    except KeyError as exc:
        raise EdgeListParseError(f"unknown node label {exc}") from exc
    m = maximum_matching(net, args.seed)
    if via is None:
        candidates = net.predecessors(node)
        if not candidates.size:
            raise ExchangeError(
                f"node {args.node} has no in-edge and is in every input set")
        via = int(candidates[0])
    result = exchange(net, m, node, via)
    labels = net.labels
    payload = {
        "node": labels[node],
        "via": labels[via],
        "replaced": labels[result.replaced],
        "mis_before": [labels[v] for v in input_nodes(m).tolist()],
        "mis_after": [labels[v]
                      for v in input_nodes(result.matching).tolist()],
        "matching_size": result.matching.size,
    }
    _emit(reports.to_json(payload), args.output)
    return EXIT_OK


def _cmd_oracle_check(args) -> int:
    net = _load(args.path)
    guard = OracleGuard(max_nodes=args.max_nodes, max_count=args.max_count)
    enum = enumerate_maximum_matchings(net, guard)
    truth = exhaustive_classes(net, enum)
    analysis = analyze(net, args.seed)
    diffs = [
        {"node": net.labels[v], "oracle": NODE_CLASSES[truth[v]].value,
         "pipeline": NODE_CLASSES[analysis.classes[v]].value}
        for v in np.flatnonzero(truth != analysis.classes).tolist()
    ]
    possible = np.flatnonzero(analysis.input_graph.possible_inputs).tolist()
    payload = {
        "agree": not diffs,
        "diffs": diffs,
        "matching_count": enum.matching_count,
        "distinct_input_sets": len(enum.input_sets),
        "possible_inputs_match_union": enum.in_some_set == set(possible),
    }
    _emit(reports.to_json(payload), args.output)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    try:
        k_values = [float(tok) for tok in args.k_list.split(",") if tok]
    except ValueError:
        raise GenerationError(f"bad k list {args.k_list!r}")
    if not k_values:
        raise GenerationError(f"k list {args.k_list!r} names no degree")
    if args.replicates < 1:
        raise GenerationError(
            f"replicates must be positive, got {args.replicates}")
    rows = [reports.SWEEP_HEADER]
    for k in k_values:
        for seed in range(args.seed_base, args.seed_base + args.replicates):
            spec = GenSpec(model=args.model, n=args.nodes, avg_degree=k,
                           gamma_in=args.gamma_in, gamma_out=args.gamma_out,
                           seed=seed)
            analysis = analyze(generate(spec), seed=0)
            rows.append(reports.sweep_row(args.model, args.nodes, k, seed,
                                          analysis))
    _emit("\n".join(rows) + "\n", args.output)
    return EXIT_OK


_COMMANDS = {
    "generate": _cmd_generate,
    "analyze": _cmd_analyze,
    "classify": _cmd_classify,
    "inputgraph": _cmd_inputgraph,
    "components": _cmd_components,
    "alter": _cmd_alter,
    "exchange": _cmd_exchange,
    "oracle-check": _cmd_oracle_check,
    "sweep": _cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        code = _COMMANDS[args.command](args)
    except (EdgeListParseError, GenerationError, _OutputError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except (AlterationError, ExchangeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INFEASIBLE
    except OracleInfeasibleError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ORACLE
    except (NetcontrolError, ValueError) as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return EXIT_INTERNAL
    elapsed_ms = (time.perf_counter() - started) * 1000
    sys.stderr.write(f"# {args.command} completed in {elapsed_ms:.1f} ms\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
