"""Synthetic directed networks: uniform random and scale-free.

Both generators draw exactly ``L = round(k * N / 2)`` distinct directed
edges (no self-loops), so the realized total-degree average ``2L/N`` matches
the request up to rounding. A single seeded RNG stream makes every output
reproducible. The scale-free sampler follows the static weighting scheme:
node ``i`` gets weight ``(i + 1 + tau) ** -alpha`` with
``alpha = 1 / (gamma - 1)`` independently for the out (source) and in
(target) side, which pins both the edge count and the tail exponents. The
small smoothing constant ``tau`` spreads weight away from the first few
ranks; without it the top-rank nodes condense enough degree at desk scales
to blur the dense-network bifurcation, while the tail exponent is
unaffected (the shift is invisible for ranks well above ``tau``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GenerationError
from .network import MAX_DECLARED_NODES, DirectedNetwork

RANK_SMOOTHING = 5.0  # tau: rank shift applied to the static weights


@dataclass(frozen=True)
class GenSpec:
    """Parameters for one synthetic network."""

    model: str  # "er" | "sf"
    n: int
    avg_degree: float
    gamma_in: float = 3.0
    gamma_out: float = 3.0
    seed: int = 0

    def __post_init__(self):
        if self.model not in ("er", "sf"):
            raise GenerationError(f"unknown model {self.model!r}")
        if not 1 <= self.n <= MAX_DECLARED_NODES:
            # a larger n could not be written under a loadable "# nodes:"
            raise GenerationError(
                f"n must be between 1 and {MAX_DECLARED_NODES}")
        if self.seed < 0:
            raise GenerationError("seed must be non-negative")
        if not all(map(math.isfinite,
                       (self.avg_degree, self.gamma_in, self.gamma_out))):
            raise GenerationError("avg_degree and exponents must be finite")
        if self.avg_degree < 0:
            raise GenerationError("avg_degree must be non-negative")
        if self.model == "sf" and (self.gamma_in <= 2 or self.gamma_out <= 2):
            raise GenerationError("degree exponents must exceed 2")
        capacity = self.n * (self.n - 1)
        if self.edge_target > capacity:
            raise GenerationError(f"{self.edge_target} edges requested but "
                                  f"only {capacity} possible")

    @property
    def edge_target(self) -> int:
        # half away from zero; round() would settle ties toward even
        return int(math.floor(self.avg_degree * self.n / 2 + 0.5))


def er_directed(spec: GenSpec) -> DirectedNetwork:
    """Uniform digraph: ``edge_target`` distinct edges without replacement."""
    if spec.model != "er":
        raise GenerationError("spec.model must be 'er'")
    target = spec.edge_target
    rng = np.random.default_rng(spec.seed)
    capacity = spec.n * (spec.n - 1)
    edges = _rejection_sample(spec.n, target, capacity * max(spec.n, 10),
                              lambda size: (rng.integers(0, spec.n, size),
                                            rng.integers(0, spec.n, size)))
    return DirectedNetwork(spec.n, edges)


def scale_free_directed(spec: GenSpec) -> DirectedNetwork:
    """Scale-free digraph via static per-node weights on both edge ends."""
    if spec.model != "sf":
        raise GenerationError("spec.model must be 'sf'")
    target = spec.edge_target
    rng = np.random.default_rng(spec.seed)
    ranks = np.arange(1, spec.n + 1, dtype=np.float64) + RANK_SMOOTHING
    p_out = ranks ** (-1.0 / (spec.gamma_out - 1.0))
    p_in = ranks ** (-1.0 / (spec.gamma_in - 1.0))
    p_out /= p_out.sum()
    p_in /= p_in.sum()
    stall_budget = max(spec.n * max(target, 1), 10_000)
    edges = _rejection_sample(
        spec.n, target, stall_budget,
        lambda size: (rng.choice(spec.n, size=size, p=p_out),
                      rng.choice(spec.n, size=size, p=p_in)))
    return DirectedNetwork(spec.n, edges)


def generate(spec: GenSpec) -> DirectedNetwork:
    return er_directed(spec) if spec.model == "er" else scale_free_directed(spec)


def _rejection_sample(n, target, stall_budget, draw) -> np.ndarray:
    """Accept distinct non-loop pairs from ``draw`` until ``target`` reached.

    Draws are examined in order and a pair is accepted unless it is a loop
    or was drawn before; each batch is filtered at once, by first occurrence
    within it and a search in the sorted keys ``u*n+v`` accepted earlier.
    ``stall_budget`` bounds the attempts in a row without a new edge;
    exceeding it raises :class:`GenerationError` instead of spinning.
    """
    accepted = [np.empty((0, 2), dtype=np.int64)]
    seen = np.array([-1])  # sorted keys of accepted pairs, after a sentinel
    have = 0
    since_accept = 0
    batch = max(1024, 2 * target)
    while have < target:
        srcs, dsts = draw(batch)
        keys = srcs * n + dsts
        order = np.argsort(keys, kind="stable")
        ordered = keys[order]
        first = np.empty(batch, dtype=bool)
        first[order[:1]] = True
        first[order[1:]] = ordered[1:] != ordered[:-1]
        at = np.minimum(seen.searchsorted(keys), seen.size - 1)
        known = seen[at] == keys
        take = np.flatnonzero(first & (srcs != dsts) & ~known)[:target - have]
        # Rejected draws before each acceptance, counted on from the last
        # batch, and after the last one when the target is still short.
        ends = take if have + take.size == target else np.append(take, batch)
        gaps = np.diff(ends, prepend=-1 - since_accept) - 1
        stalled = np.flatnonzero(gaps > stall_budget)
        if stalled.size:
            raise GenerationError(
                f"no new edge after {stall_budget + 1} attempts "
                f"({have + int(stalled[0])}/{target} drawn)")
        have += take.size
        since_accept = int(gaps[-1])
        accepted.append(np.column_stack((srcs[take], dsts[take])))
        seen = np.sort(np.concatenate((seen, keys[take])))
    return np.concatenate(accepted)

