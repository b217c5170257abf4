"""Stable serialization of analyses, plans, and sweep rows.

All numbers are rounded the same way everywhere: percentages to two
decimals (half away from zero), plain ratios to six significant digits.
JSON is dumped with sorted keys so equal inputs give byte-equal output.
"""

from __future__ import annotations

import json
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from .alteration import AlterationPlan
from .components import COMPONENT_KINDS, ComponentReport
from .input_graph import NODE_CLASSES, InputGraph
from .network import DirectedNetwork
from .pipeline import NetworkAnalysis

MEMBER_LIST_LIMIT = 10_000  # suppress per-node listings above this size


def round_percent(fraction: float) -> float:
    """``fraction`` as a percentage with two decimals, half away from zero."""
    quant = (Decimal(repr(fraction)) * 100).quantize(
        Decimal("0.01"), rounding=ROUND_HALF_UP)
    return float(quant)


def round_ratio(value: float) -> float:
    return float(f"{value:.6g}")


def to_json(payload: dict) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2)`` plus a newline.

    ``indent`` drops CPython to its pure-Python encoder. Here the C encoder
    writes each container that holds no container, and each list of such
    dicts, in one call whose item separator carries the newline and
    indentation: JSON strings never hold a raw newline.
    """
    return _indented(payload, "\n") + "\n"


def _indented(obj, newline: str) -> str:
    """``obj`` as ``indent=2`` JSON that starts after ``newline``."""
    is_dict = isinstance(obj, dict)
    if not (is_dict or isinstance(obj, (list, tuple))) or not obj:
        return json.dumps(obj)
    inner = newline + "  "
    types = set(map(type, obj.values() if is_dict else obj))
    if not _has_container(types):
        flat = json.dumps(obj, sort_keys=True, separators=("," + inner, ": "))
        return flat[0] + inner + flat[1:-1] + newline + flat[-1]
    if (not is_dict and types == {dict} and all(obj)
            and not _has_container({type(v) for rec in obj
                                    for v in rec.values()})):
        # Records: "," + deep + "{" occurs only between two records.
        deep = inner + "  "
        flat = json.dumps(obj, sort_keys=True, separators=("," + deep, ": "))
        return ("[" + inner + "{" + deep + flat[2:-2].replace(
            "}," + deep + "{", inner + "}," + inner + "{" + deep)
            + inner + "}" + newline + "]")
    if is_dict:  # non-string keys are written as json writes them
        items = [json.dumps(k if isinstance(k, str) else json.dumps(k))
                 + ": " + _indented(v, inner) for k, v in sorted(obj.items())]
    else:
        items = [_indented(v, inner) for v in obj]
    opener, closer = "{}" if is_dict else "[]"
    return opener + inner + ("," + inner).join(items) + newline + closer


def _has_container(types) -> bool:
    return any(issubclass(t, (dict, list, tuple)) for t in types)


def component_report_dict(report: ComponentReport, net: DirectedNetwork,
                          include_members: bool) -> dict:
    names = [kind.value for kind in COMPONENT_KINDS]
    kinds = map(names.__getitem__, report.kinds.tolist())
    comps = [{"id": ident, "size": size, "kind": kind} for ident, (size, kind)
             in enumerate(zip(report.sizes.tolist(), kinds))]
    if include_members:  # labels of the members of each, by ascending id
        order = np.argsort(report.comp_of, kind="stable").tolist()
        members = list(map(net.labels.__getitem__, order))
        bounds = np.cumsum(report.sizes).tolist()
        for entry, lo, hi in zip(comps, [0, *bounds], bounds):
            entry["members"] = members[lo:hi]
    cc_max = report.cc_max
    return {
        "n": report.n,
        "l": report.edge_count,
        "avg_degree": round_ratio(report.avg_degree),
        "n_mis_percent": round_percent(report.n_mis_fraction),
        "mis_size": report.mis_size,
        "perfectly_matched": report.perfectly_matched,
        "component_count": report.component_count,
        "kind_counts": report.kind_counts(),
        "components": comps,
        "cc_max": {
            "id": cc_max,
            "size": int(report.sizes[cc_max]),
            "percent": round_percent(report.cc_max_fraction),
            "kind": report.kind(cc_max).letter,
        },
    }


def analysis_record(analysis: NetworkAnalysis,
                    include_members: bool | None = None) -> dict:
    net = analysis.network
    if include_members is None:
        include_members = net.n <= MEMBER_LIST_LIMIT
    record = {
        "n": net.n,
        "l": net.edge_count,
        "avg_degree": round_ratio(analysis.report.avg_degree),
        "self_loops": net.self_loop_count(),
        "seed": analysis.seed,
        "matching_size": analysis.matching.size,
        "mis": {
            "size": analysis.report.mis_size,
            "n_mis_percent": round_percent(analysis.report.n_mis_fraction),
            "perfectly_matched": analysis.report.perfectly_matched,
        },
        "input_graph_edges": analysis.input_graph.edge_count,
        "possible_input_percent": round_percent(int(np.count_nonzero(
            analysis.input_graph.possible_inputs)) / net.n),
        "components": component_report_dict(
            analysis.report, net, include_members),
    }
    if include_members:
        record["mis"]["members"] = list(map(
            net.labels.__getitem__, analysis.input_set.tolist()))
        record["node_classes"] = classes_dict(analysis)
    return record


def classes_dict(analysis: NetworkAnalysis) -> dict[str, str]:
    """Node label -> class name."""
    names = [c.value for c in NODE_CLASSES]
    return dict(zip(analysis.network.labels,
                    map(names.__getitem__, analysis.classes.tolist())))


def plan_dict(plan: AlterationPlan, labels) -> dict:
    payload = {
        "target_component_id": plan.target_component_id,
        "requested_kind": plan.requested_kind.value,
        "additions": [
            {"src": labels[a.src], "dst": labels[a.dst], "reason": a.reason}
            for a in plan.additions
        ],
        "edge_count": len(plan.additions),
        "mis_before": plan.mis_before,
        "mis_after": plan.mis_after,
    }
    if plan.p is not None:
        payload["p_percent"] = round_percent(plan.p)
    if plan.delta_n_d is not None:
        payload["delta_n_d_percent"] = round_percent(plan.delta_n_d)
    return payload


def additions_tsv(plan: AlterationPlan, labels) -> str:
    lines = ["# src\tdst\treason"]
    lines += [f"{labels[a.src]}\t{labels[a.dst]}\t{a.reason}"
              for a in plan.additions]
    return "\n".join(lines) + "\n"


def input_graph_rows(ig: InputGraph) -> list[tuple[str, str, str, str]]:
    """``(src, dst, witness, phase)`` labels, phase ``Di`` then ``Dr``.

    Each phase is sorted by (src id, dst id); no pair occurs twice.
    """
    redundant = np.arange(ig.edge_count) >= ig.possible_edge_count
    order = np.lexsort((ig.dst, ig.src, redundant))
    label = ig.network.labels.__getitem__
    return list(zip(*(map(label, column[order].tolist())
                      for column in (ig.src, ig.dst, ig.witness)),
                    np.where(redundant[order], "Dr", "Di").tolist()))


def input_graph_tsv(ig: InputGraph) -> str:
    lines = ["# from\tto\twitness\tphase"]
    lines += map("\t".join, input_graph_rows(ig))
    return "\n".join(lines) + "\n"


def input_graph_dict(ig: InputGraph) -> dict[str, list[dict[str, str]]]:
    payload: dict[str, list[dict[str, str]]] = {"Di": [], "Dr": []}
    for src, dst, witness, phase in input_graph_rows(ig):
        payload[phase].append({"src": src, "dst": dst, "witness": witness})
    return payload


def components_tsv(report: ComponentReport, net: DirectedNetwork,
                   include_members: bool) -> str:
    lines = ["# id\tsize\tkind" + ("\tmembers" if include_members else "")]
    for c in component_report_dict(report, net, include_members)[
            "components"]:
        lines.append(f"{c['id']}\t{c['size']}\t{c['kind']}" + (
            "\t" + ",".join(c["members"]) if include_members else ""))
    return "\n".join(lines) + "\n"


def classes_tsv(analysis: NetworkAnalysis) -> str:
    cells = [f"{c.value}\t{'yes' if c.possible_input else 'no'}"
             for c in NODE_CLASSES]
    lines = ["# node\tclass\tpossible_input"]
    lines += map("{}\t{}".format, analysis.network.labels,
                 map(cells.__getitem__, analysis.classes.tolist()))
    return "\n".join(lines) + "\n"


SWEEP_HEADER = "model,N,k,seed,cc_max_frac,cc_count,n_p,cc_kind"


def sweep_row(model: str, n: int, k: float, seed: int,
              analysis: NetworkAnalysis) -> str:
    report = analysis.report
    n_p = int(np.count_nonzero(analysis.input_graph.possible_inputs)) / n
    return ",".join([
        model,
        str(n),
        f"{k:g}",
        str(seed),
        f"{round_ratio(report.cc_max_fraction):g}",
        str(report.component_count),
        f"{round_ratio(n_p):g}",
        report.kind(report.cc_max).letter,
    ])
