"""Flip the control type of most of a network with a handful of edges.

Saturating every input node of an input component turns its members
redundant; linking one input node into a saturated matched component makes
its whole forward closure possible-input again. On a dense network with a
giant component each direction touches most of the graph, and the reverse
step needs exactly one edge. Each plan carries a maximum matching of the
network it makes, so each re-analysis starts from that matching instead
of searching for one.
"""

from netcontrol import ComponentKind, GenSpec, analyze, generate
from netcontrol.alteration import (alteration_report, apply_plan, ic_to_smc,
                                   smc_to_ic_single)

net = generate(GenSpec(model="sf", n=2000, avg_degree=10, seed=0))
before = analyze(net)
giant = before.report.component(before.report.cc_max)
print(f"start: giant {giant.kind.value} with {giant.size}/{net.n} nodes, "
      f"{before.input_set.size} input nodes")

plan1 = ic_to_smc(before, giant)
net2 = apply_plan(net, plan1)
middle = analyze(net2, matching=plan1.matching_after)
plan1 = alteration_report(before, middle, plan1)
print(f"\nIC -> SMC: added {len(plan1.additions)} edges "
      f"(p = {plan1.p:.2%} of the original edges)")
print(f"  classes flipped: {plan1.delta_n_d:.1%} of all nodes")
print(f"  input-set size: {plan1.mis_before} -> {plan1.mis_after}")
giant2 = middle.report.component(middle.report.cc_max)
print(f"  giant is now {giant2.kind.value} with {giant2.size} nodes")

plan2 = smc_to_ic_single(middle, giant2)
final = analyze(apply_plan(net2, plan2), matching=plan2.matching_after)
plan2 = alteration_report(middle, final, plan2)
src, dst = plan2.additions[0].tolist()
print(f"\nSMC -> IC: one edge {net.labels[src]} -> {net.labels[dst]}")
print(f"  classes flipped back: {plan2.delta_n_d:.1%} of all nodes")
final_kind = final.report.kind(final.report.cc_max)
print(f"  giant is now {final_kind.value} again")
assert final_kind is ComponentKind.IC
