"""Cross-check the adjacency pipeline against brute-force enumeration.

Small networks allow enumerating every maximum matching, so the set of
nodes appearing in at least one minimum input set is known exactly. The
control-adjacency closure must reproduce it node for node; this script
replays that comparison on a batch of random digraphs.
"""

import random

import numpy as np

from netcontrol import (build_input_graph, classify_exhaustive, classify_nodes,
                        enumerate_maximum_matchings, maximum_matching)
from netcontrol.network import DirectedNetwork

rng = random.Random(7)
agreements = 0
for trial in range(60):
    n = rng.randint(3, 8)
    edges = [(u, v) for u in range(n) for v in range(n)
             if u != v and rng.random() < 0.3]
    net = DirectedNetwork(n, edges)

    truth = classify_exhaustive(net)
    ig = build_input_graph(net, maximum_matching(net, 0))
    assert np.array_equal(classify_nodes(ig), truth)  # class codes

    enum = enumerate_maximum_matchings(net)
    union = frozenset().union(*enum.input_sets)
    assert set(np.flatnonzero(ig.possible_inputs).tolist()) == union
    agreements += 1

print(f"pipeline agreed with exhaustive enumeration on {agreements}/60 "
      f"random digraphs")

net = DirectedNetwork(3, [(0, 1), (0, 2)])
enum = enumerate_maximum_matchings(net)
print(f"\nbranching triple: {enum.matching_count} maximum matchings, "
      f"input sets {[sorted(s) for s in enum.input_sets]}")
print("node 0 is critical (no in-edge): present in every input set")
