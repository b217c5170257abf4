"""The control-adjacency graph and its three component types.

Node a is control adjacent to node b when a witness c has an unmatched
edge to a and a matched edge to b: a can then stand in for b as an input
node. Connected components of that relation share one control class, and
each component is one of:

  IC   input component: holds an input node; members can all be inputs
  UMC  matched component reached by an edge from an unsaturated node
  SMC  matched component no unsaturated node points at

The demo network stacks all three kinds side by side.
"""

from netcontrol import analyze, control_reachable_from, load_edge_list

net = load_edge_list("""
a b
c b
c d
x y
y x
u x
""")
analysis = analyze(net)

print("per-node classes:")
for v in range(net.n):
    print(f"  {net.labels[v]:>2}  {analysis.classes[v].value}")

print("\ncontrol-adjacency edges (src can replace dst, via witness):")
ig = analysis.input_graph
for src, dst, witness in zip(ig.src, ig.dst, ig.witness):
    print(f"  {net.labels[src]} -> {net.labels[dst]}"
          f"   (witness {net.labels[witness]})")

print("\ncomponents:")
for comp in analysis.report.components:
    members = ",".join(net.labels[v] for v in comp.sorted_members())
    print(f"  #{comp.id} {comp.kind.value:<3} {{{members}}}")

start = net.id_of("a")
reach = control_reachable_from(analysis.input_graph, start)
print("\ncontrol-reachable from a:",
      sorted(net.labels[v] for v in reach))
print(f"largest component: {analysis.report.cc_max.kind.value}, "
      f"{analysis.report.cc_max.size}/{net.n} nodes")
