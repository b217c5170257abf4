"""Watch the giant control component emerge as networks densify.

Sweeping average degree on synthetic networks shows the component count
collapsing while the largest component swallows the graph. Past the
transition a single giant component fixes the control class of almost
every node, so the possible-input fraction lands near 0 or near 1
depending on the giant's type: the bimodality seen in dense networks.
"""

from netcontrol import GenSpec, analyze, generate

N = 600
SEEDS = range(5)

for model in ("er", "sf"):
    print(f"{model.upper()} networks, N={N} ({len(SEEDS)} seeds per row)")
    print("   k   cc_max/N   components   n_p range")
    for k in (2, 4, 6, 8, 10, 12):
        fracs, counts, nps = [], [], []
        for seed in SEEDS:
            a = analyze(generate(GenSpec(model=model, n=N, avg_degree=k,
                                         seed=seed)))
            fracs.append(a.report.cc_max_fraction)
            counts.append(a.report.component_count)
            nps.append(a.input_graph.possible_inputs.sum() / N)
        print(f"  {k:2d}   {sum(fracs)/len(fracs):8.3f}"
              f"   {sum(counts)/len(counts):10.1f}"
              f"   {min(nps):.2f} .. {max(nps):.2f}")
    print()
