"""Synthetic directed networks: uniform random and scale-free.

A :class:`GenSpec` names the model; :func:`edges` draws its edges and
:func:`generate` builds the network from them (``sweep`` joins several
specs' edges into one network). Both models draw exactly
``L = round(k * N / 2)`` distinct directed edges (no self-loops), so the
realized total-degree average ``2L/N`` matches the request up to rounding.
A single seeded RNG stream makes every output reproducible. The scale-free
sampler follows the static weighting scheme: node ``i`` gets weight
``(i + 1 + tau) ** -alpha`` with ``alpha = 1 / (gamma - 1)``
independently for the out (source) and in (target) side, which pins both
the edge count and the tail exponents. The small smoothing constant ``tau``
spreads weight away from the first few ranks; without it the top-rank
nodes condense enough degree at desk scales to blur the dense-network
bifurcation, while the tail exponent is unaffected (the shift is invisible
for ranks well above ``tau``).

Edges are drawn in batches. Each batch is read only as far as the target
needs, and the part read is filtered with one sort of packed words. A
scale-free endpoint is looked up in a guide table built once per node
count and exponent (:func:`_draw_table`), which returns what
``Generator.choice`` would from the same stream; only the uniforms read
are looked up. On N=10^5, k=10 (2.0 GHz Xeon) building the network takes
about 0.06 s for ER and 0.08 s for SF (0.5 s with ``Generator.choice``);
the whole ``generate`` command takes about 0.3 s, most of it interpreter
start-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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
        # compared as floats, before edge_target's int(): a finite but huge
        # k makes k*N/2 infinite
        if self.avg_degree * self.n / 2 + 0.5 >= capacity + 1:
            raise GenerationError(
                f"k*N/2 = {self.avg_degree * self.n / 2:g} edges requested "
                f"but only {capacity} possible")

    @property
    def edge_target(self) -> int:
        # half away from zero; round() would settle ties toward even
        return int(math.floor(self.avg_degree * self.n / 2 + 0.5))


def edges(spec: GenSpec) -> np.ndarray:
    """The ``(L, 2)`` edges of ``spec``, in the order they were drawn.

    An ER edge is a uniform pair; a scale-free one draws each end from the
    static weights of its side. Distinct non-loop pairs are kept until
    ``edge_target`` are found.
    """
    target = spec.edge_target
    rng = np.random.default_rng(spec.seed)
    if spec.model == "er":
        return _rejection_sample(
            spec.n, target, spec.n * (spec.n - 1) * max(spec.n, 10),
            lambda size: (rng.integers(0, spec.n, size),
                          rng.integers(0, spec.n, size)))
    lookup_out, lookup_in = (_draw_table(spec.n, gamma)
                             for gamma in (spec.gamma_out, spec.gamma_in))
    return _rejection_sample(
        spec.n, target, max(spec.n * max(target, 1), 10_000),
        lambda size: (rng.random(size), rng.random(size)),
        lambda u_out, u_in: (lookup_out(u_out), lookup_in(u_in)))


def generate(spec: GenSpec) -> DirectedNetwork:
    return DirectedNetwork(spec.n, edges(spec))


@lru_cache(maxsize=2)
def _draw_table(n: int, gamma: float):
    """The lookup of :func:`_weighted_draw` over the static weights of ``n``
    nodes at exponent ``gamma``, built once per ``(n, gamma)``.

    The cache keeps the tables of the last two ``(n, gamma)`` alive, enough
    for the out and in sides of one network. A table is a cumulative sum
    and a guide, 16 B per node together (16 MB at N=10^6); both are
    read-only, since every call shares them.
    """
    return _weighted_draw(_static_weights(n, gamma))


def _static_weights(n: int, gamma: float) -> np.ndarray:
    """Node ``i``'s weight ``(i + 1 + tau) ** -alpha``, normalised."""
    ranks = np.arange(1, n + 1, dtype=np.float64) + RANK_SMOOTHING
    p = ranks ** (-1.0 / (gamma - 1.0))
    p /= p.sum()
    return p


def _weighted_draw(p: np.ndarray):
    """``lookup(u)``: the nodes that ``rng.choice(p.size, u.size, p=p)``
    returns when its uniforms are ``u``, that is when ``u`` is the
    ``rng.random(size)`` the same stream would draw.

    ``Generator.choice`` returns ``cdf.searchsorted(u, side="right")`` over
    ``cdf = p.cumsum()`` divided by its last entry; the binary search is
    most of its cost. Here a guide table (Chen & Asau 1974) maps the key
    ``floor(u * B)``, ``B = p.size``, to the count of ``cdf`` entries with
    a smaller key. Those entries are all ``<= u``, since rounding is
    monotone, so the table never overshoots; a few vectorised steps up
    while ``cdf[idx] <= u`` reach the same index. The table has ``B + 1``
    entries because ``u * B`` can round up to ``B``. The sampler draws the
    uniforms and looks up only those it reads.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    scale = p.size
    guide = np.floor(cdf * scale).searchsorted(np.arange(scale + 1))
    cdf.flags.writeable = guide.flags.writeable = False

    def lookup(u: np.ndarray) -> np.ndarray:
        idx = np.empty(u.size, dtype=np.int64)
        np.multiply(u, scale, out=idx, casting="unsafe")  # floor(u * B)
        guide.take(idx, out=idx)
        short = np.flatnonzero(cdf[idx] <= u)
        while short.size:
            idx[short] += 1
            short = short[cdf[idx[short]] <= u[short]]
        return idx
    return lookup


def _rejection_sample(n, target, stall_budget, draw, decode=None
                      ) -> np.ndarray:
    """Accept distinct non-loop pairs from ``draw`` until ``target`` reached.

    Draws are examined in order and a pair is accepted unless it is a loop
    or was drawn before. ``draw(size)`` returns a batch's two raw arrays,
    and ``decode``, if given, turns slices of them into source and target
    ids. Each batch is read first up to the missing edge count ``m`` and a
    margin for the draws it will reject, ``m/64 + m*target/n**2 + 64``
    (the second term is twice the repeats that ``m`` uniform draws meet
    among the ``n**2`` pairs), and the rest of it only when that prefix
    falls short. The part read is filtered at once: its keys ``u << b | v``
    (``b`` the bit width of ``n - 1``) follow those accepted earlier, and a
    draw is new when its key occurs there first (:func:`_first_occurrences`).
    ``stall_budget`` bounds the attempts in a row without a new edge;
    exceeding it raises :class:`GenerationError` instead of spinning.
    """
    bits = (n - 1).bit_length()
    accepted = np.empty(0, dtype=np.int64)  # keys, in the order accepted
    since_accept = 0
    batch = max(1024, 2 * target)
    while accepted.size < target:
        raw = draw(batch)
        need = target - accepted.size
        lo, hi = 0, min(batch, need + need // 64 + need * target // n**2 + 64)
        while lo < batch and accepted.size < target:  # the prefix, the rest
            have = accepted.size
            srcs, dsts = raw[0][lo:hi], raw[1][lo:hi]
            if decode:
                srcs, dsts = decode(srcs, dsts)
            keys = np.concatenate((accepted, srcs << bits | dsts))
            new = _first_occurrences(keys, 2 * bits)[have:] & (srcs != dsts)
            take = np.flatnonzero(new)[:target - have]
            # Rejected draws before each acceptance, counted on from the
            # last part read, and after the last one when still short.
            ends = (take if have + take.size == target
                    else np.append(take, hi - lo))
            gaps = np.diff(ends, prepend=-1 - since_accept) - 1
            stalled = np.flatnonzero(gaps > stall_budget)
            if stalled.size:
                raise GenerationError(
                    f"no new edge after {stall_budget + 1} attempts "
                    f"({have + int(stalled[0])}/{target} drawn)")
            since_accept = int(gaps[-1])
            accepted = np.concatenate((accepted, keys[have + take]))
            lo, hi = hi, batch
    return np.column_stack((accepted >> bits, accepted & (1 << bits) - 1))


def _first_occurrences(keys: np.ndarray, bits: int) -> np.ndarray:
    """Mask of the first occurrence of each value in ``keys``, which are
    non-negative and below ``2**bits``.

    One sort groups equal keys. When a key and its position fit in 64
    bits, the words ``key << s | position`` (``s`` the bit width of
    ``keys.size``) are sorted, so each run of a key starts at its first
    occurrence and every later word of the run marks a repeat. Wider keys
    are argsorted and each run of a repeated key keeps its least position.
    Unlike :func:`~netcontrol.network.first_of_each`, the keys need not be
    small enough to index a work array.
    """
    shift = keys.size.bit_length()
    first = np.ones(keys.size, dtype=bool)
    if bits + shift <= 64:
        words = keys.astype(np.uint64)
        words <<= shift
        words |= np.arange(keys.size, dtype=np.uint64)
        words.sort()
        runs = words >> shift
        later = words[1:][runs[1:] == runs[:-1]]  # repeats, by key
        later &= np.uint64((1 << shift) - 1)
        first[later] = False
        return first
    order = np.argsort(keys)
    ordered = keys[order]
    tied = np.zeros(keys.size + 1, dtype=bool)  # equal to the key before
    np.equal(ordered[1:], ordered[:-1], out=tied[1:-1])
    runs = np.flatnonzero(tied[:-1] | tied[1:])  # sorted spots in repeats
    spots = order[runs]
    first[spots] = False
    if spots.size:
        first[np.minimum.reduceat(spots, np.flatnonzero(~tied[runs]))] = True
    return first
