"""Minimum input sets and input-node exchange, step by step.

A directed network is structurally controllable from a small set of nodes:
pair every node's out-side with targets' in-sides, compute a maximum
matching, and the nodes left unmatched on the in-side form a minimum input
set. Different maximum matchings give different (equally small) sets, and
any input node with an in-edge can be swapped for a neighbor in one move.
"""

from netcontrol import (exchange, input_nodes, is_maximum, load_edge_list,
                        maximum_matching, unsaturated_nodes)

net = load_edge_list("""
regulator geneA
regulator geneB
geneA geneC
""")
print(f"network: {net.n} nodes, {net.edge_count} edges")

m = maximum_matching(net, order_seed=0)
print(f"maximum matching size: {m.size}")
for u, v in m.pairs():
    print(f"  matched edge {net.labels[u]} -> {net.labels[v]}")

mis = input_nodes(m)  # node ids, ascending
print("minimum input set:", sorted(net.labels[v] for v in mis))
print("unsaturated nodes:",
      sorted(net.labels[v] for v in unsaturated_nodes(m)))
print("matching is maximum:", is_maximum(net, m))

# 'geneB' is an input node here; its in-edge from 'regulator' lets us swap
# it out of the input set. The replacement is whichever node loses the
# regulator's matched edge.
target = net.id_of("geneB")
via = net.id_of("regulator")
result = exchange(net, m, target, via)
print(f"exchanged geneB out; replacement: {net.labels[result.replaced]}")
print("new input set:", sorted(net.labels[v]
                               for v in input_nodes(result.matching)))
