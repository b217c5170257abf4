"""Batch command-line front door.

Exit codes: 0 success, 1 usage error, 2 unreadable/invalid input, an
unwritable ``-o`` path or a request that does not fit in memory (``error:
not enough memory ...``), 3 infeasible alteration or exchange, 4 oracle
guard exceeded, 5 internal error (a violated invariant, a non-maximum
matching or a stray ``ValueError``, never bad input).
Each command returns its output: a payload dict (or the records of
``classify``), written as JSON; a string; or a list writer that passes its
text in chunks to a write function. :func:`main` writes it once, to stdout
or ``-o``; timing notes go to stderr so repeated runs with the same seed
stay byte-identical.
"""

from __future__ import annotations

import argparse
import functools
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
from .generators import GenSpec, edges, generate
from .input_graph import NODE_CLASSES
from .matching import exchange, input_nodes, maximum_matching
from .network import DirectedNetwork, load_edge_list, write_edge_list
from .oracle import OracleGuard, enumerate_maximum_matchings, exhaustive_classes
from .pipeline import NetworkAnalysis, analyze, part_reports

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_ORACLE = 4
EXIT_INTERNAL = 5

# Most of the sum, over a sweep union's networks, of the larger of edge and
# node count. Above 2^16 the union's arrays raise the process's peak RSS.
_UNION_SIZE = 1 << 16


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


@functools.cache  # built once per process: parse_args leaves it as it was
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
        if name in ("analyze", "components"):
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


def _emit(text, output: str | Path | None) -> None:
    """Write a command's output ``text`` to ``output``, or to stdout.

    ``text`` is a payload dict or :class:`reports.Records`, written by
    :func:`reports.to_json` (looked up here, so a wrapper set on it after
    import still sees every write); a string; or a function that passes its
    text in chunks to the write function it is given, as the list writers of
    :mod:`~netcontrol.reports` do.
    """
    if isinstance(text, (dict, reports.Records)):
        text = functools.partial(reports.to_json, text)
    emit = text if callable(text) else (lambda write: write(text))
    if not output:
        emit(sys.stdout.write)
        return
    try:
        with open(output, "w", encoding="utf-8") as fh:
            emit(fh.write)
    except OSError as exc:
        raise _OutputError(f"cannot write {output}: {exc}") from exc


def _load(path: str) -> DirectedNetwork:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return load_edge_list(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise EdgeListParseError(f"cannot read {path}: {exc}") from exc


def _select_component(analysis: NetworkAnalysis, selector: str):
    report = analysis.report
    if selector.isascii() and selector.isdigit():  # the loader's digits
        digits = selector.lstrip("0") or "0"  # int() refuses 4 300 and up
        if (len(digits) > len(str(report.component_count))
                or int(digits) >= report.component_count):
            raise AlterationError(f"no component with id {digits}")
        return report.component(int(digits))
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


def _cmd_generate(args):
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
    return "\n".join(header) + "\n" + write_edge_list(net)


def _cmd_analyze(args):
    analysis = analyze(_load(args.path), args.seed)
    if args.format == "json":
        return reports.analysis_record(analysis, args.members or None)
    # the TSV keeps no list, so the record is built without them
    record = reports.analysis_record(analysis, include_members=False)
    flat = {k: v for k, v in record.items() if not isinstance(v, dict)}
    flat["n_mis_percent"] = record["mis"]["n_mis_percent"]
    flat["cc_max_percent"] = record["components"]["cc_max"]["percent"]
    flat["cc_max_kind"] = record["components"]["cc_max"]["kind"]
    return "".join(f"{key}\t{flat[key]}\n" for key in sorted(flat))


def _cmd_classify(args):
    analysis = analyze(_load(args.path), args.seed)
    if args.format == "json":
        return reports.node_class_records(analysis)
    return reports.classes_tsv(analysis)


def _cmd_inputgraph(args):
    analysis = analyze(_load(args.path), args.seed)
    if args.format == "json":
        return reports.input_graph_dict(analysis.input_graph)
    return functools.partial(reports.input_graph_tsv, analysis.input_graph)


def _cmd_components(args):
    analysis = analyze(_load(args.path), args.seed)
    include = args.members or None
    if args.format == "json":
        return reports.component_report_dict(analysis, include)
    return functools.partial(reports.components_tsv, analysis, include)


def _cmd_alter(args):
    net = _load(args.path)
    try:  # before planning: a prefix with an empty name (".", "/") fails
        paths = [Path(args.output).with_suffix(suffix) for suffix in
                 (".plan.json", ".added.tsv", ".before.json", ".after.json")
                 ] if args.output else []
    except ValueError as exc:
        raise _OutputError(f"cannot write {args.output}: {exc}") from exc
    before = analyze(net, args.seed)
    comp = _select_component(before, args.component)
    if args.to == "smc" and comp.kind is ComponentKind.IC:
        plan = ic_to_smc(before, comp)
    elif args.to == "smc" and comp.kind is ComponentKind.UMC:
        plan = umc_to_smc(before, comp)
    elif args.to == "ic" and comp.kind is ComponentKind.SMC:
        build = smc_to_ic_full if args.mode == "full" else smc_to_ic_single
        plan = build(before, comp)
    else:
        kind, to = comp.kind.value, args.to.upper()
        raise AlterationError(
            f"cannot alter {kind} component {comp.id} to {to}; "
            + ("it is one already" if kind == to
               else "saturate it to SMC first"))
    after = analyze(apply_plan(net, plan), args.seed, plan.matching_after)
    plan = alteration_report(before, after, plan)

    payload = {
        "plan": reports.plan_dict(plan, net.label_column),
        "goal_attained": plan_attains_goal(plan, after),
        "before": reports.analysis_record(before),
        "after": reports.analysis_record(after),
    }
    if not paths:
        return payload
    plan_file = {**payload["plan"], "goal_attained": payload["goal_attained"]}
    for path, text in zip(paths, (
            plan_file, reports.additions_tsv(plan, net.label_column),
            payload["before"], payload["after"])):
        _emit(text, path)
    return None


def _cmd_exchange(args):
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
    labels = net.label_column
    return {
        "node": labels[node],
        "via": labels[via],
        "replaced": labels[result.replaced],
        "mis_before": reports.Records(
            [("member", labels, input_nodes(m))], form="values"),
        "mis_after": reports.Records(
            [("member", labels, input_nodes(result.matching))],
            form="values"),
        "matching_size": result.matching.size,
    }


def _cmd_oracle_check(args):
    net = _load(args.path)
    guard = OracleGuard(max_nodes=args.max_nodes, max_count=args.max_count)
    enum = enumerate_maximum_matchings(net, guard)
    truth = exhaustive_classes(net, enum)
    analysis = analyze(net, args.seed)
    diffs = [
        {"node": net.label_column[v], "oracle": NODE_CLASSES[truth[v]].value,
         "pipeline": NODE_CLASSES[analysis.classes[v]].value}
        for v in np.flatnonzero(truth != analysis.classes).tolist()
    ]
    possible = np.flatnonzero(analysis.input_graph.possible_inputs).tolist()
    return {
        "agree": not diffs,
        "diffs": diffs,
        "matching_count": enum.matching_count,
        "distinct_input_sets": len(enum.input_sets),
        "possible_inputs_match_union": enum.in_some_set == set(possible),
    }


def _cmd_sweep(args):
    try:
        k_values = [float(tok) for tok in args.k_list.split(",") if tok]
    except ValueError:
        raise GenerationError(f"bad k list {args.k_list!r}")
    if not k_values:
        raise GenerationError(f"k list {args.k_list!r} names no degree")
    if args.replicates < 1:
        raise GenerationError(
            f"replicates must be positive, got {args.replicates}")
    specs = [GenSpec(model=args.model, n=args.nodes, avg_degree=k,
                     gamma_in=args.gamma_in, gamma_out=args.gamma_out,
                     seed=seed)
             for k in k_values
             for seed in range(args.seed_base,
                               args.seed_base + args.replicates)]
    # Consecutive networks, across values of k, share one disjoint union of
    # up to _UNION_SIZE, analysed once, which pays the matcher's fixed cost
    # per BFS level once for all of them (pipeline.part_reports). A network
    # above the cap is analysed alone.
    rows = [reports.SWEEP_HEADER]
    batch, size = [], 0
    for spec in specs:
        cost = max(spec.edge_target, spec.n)
        if batch and size + cost > _UNION_SIZE:
            rows += _sweep_rows(batch)
            batch, size = [], 0
        batch.append(spec)
        size += cost
    rows += _sweep_rows(batch)
    return "\n".join(rows) + "\n"


def _sweep_rows(specs: list[GenSpec]) -> list[str]:
    """Rows of the networks ``specs`` make, analysed as one union."""
    n = specs[0].n
    bounds = list(range(0, (len(specs) + 1) * n, n))
    # each drawn array is freed once its shifted copy exists; int32 pairs
    # hold half the bytes while the constructor runs
    analysis = analyze(DirectedNetwork(bounds[-1], np.concatenate(
        [edges(spec) + lo for spec, lo in zip(specs, bounds)],
        dtype=np.int32)), seed=0)
    return [reports.sweep_row(spec.model, n, spec.avg_degree, spec.seed,
                              possible, report)
            for spec, (possible, report)
            in zip(specs, part_reports(analysis, bounds))]


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
        output = _COMMANDS[args.command](args)
        if output is not None:  # alter -o has written its own files
            _emit(output, args.output)
    except (EdgeListParseError, GenerationError, _OutputError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except (AlterationError, ExchangeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INFEASIBLE
    except OracleInfeasibleError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ORACLE
    except MemoryError as exc:  # a request larger than the memory at hand
        sys.stderr.write(f"error: not enough memory: {exc}\n")
        return EXIT_INPUT
    except (NetcontrolError, ValueError) as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return EXIT_INTERNAL
    elapsed_ms = (time.perf_counter() - started) * 1000
    sys.stderr.write(f"# {args.command} completed in {elapsed_ms:.1f} ms\n")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
