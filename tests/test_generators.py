import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netcontrol import GenSpec, GenerationError, generate
from netcontrol import generators
from netcontrol.generators import (_first_occurrences, _rejection_sample,
                                   _static_weights, _weighted_draw, edges)
from netcontrol.network import write_edge_list


def test_er_zero_degree():
    net = generate(GenSpec(model="er", n=4, avg_degree=0, seed=1))
    assert net.edge_count == 0


def test_er_exact_edge_count_and_realized_degree():
    net = generate(GenSpec(model="er", n=1000, avg_degree=6, seed=42))
    assert net.edge_count == 3000
    assert 2 * net.edge_count / net.n == pytest.approx(6.0)
    assert net.self_loop_count() == 0


def test_er_deterministic():
    spec = GenSpec(model="er", n=200, avg_degree=4, seed=9)
    assert write_edge_list(generate(spec)) == write_edge_list(generate(spec))


def test_er_different_seeds_differ():
    a = generate(GenSpec(model="er", n=200, avg_degree=4, seed=1))
    b = generate(GenSpec(model="er", n=200, avg_degree=4, seed=2))
    assert a != b


def test_er_rejects_impossible_density():
    with pytest.raises(GenerationError):
        generate(GenSpec(model="er", n=3, avg_degree=10, seed=0))


def test_er_degrees_look_binomial():
    net = generate(GenSpec(model="er", n=2000, avg_degree=8, seed=3))
    out_deg = np.diff(net.out_ptr)
    assert out_deg.mean() == pytest.approx(4.0, abs=0.01)
    assert out_deg.var() == pytest.approx(4.0, rel=0.15)  # Poisson limit


def test_sf_exact_edge_count():
    net = generate(GenSpec(model="sf", n=1000, avg_degree=6, seed=5))
    assert net.edge_count == 3000
    assert net.self_loop_count() == 0


def test_sf_deterministic():
    spec = GenSpec(model="sf", n=300, avg_degree=6, seed=11)
    assert generate(spec) == generate(spec)


def test_sf_requires_tail_exponent_above_two():
    with pytest.raises(GenerationError):
        GenSpec(model="sf", n=100, avg_degree=4, gamma_in=1.5, seed=0)


def test_spec_validation():
    with pytest.raises(GenerationError):
        GenSpec(model="other", n=10, avg_degree=2)
    with pytest.raises(GenerationError):
        GenSpec(model="er", n=0, avg_degree=2)
    with pytest.raises(GenerationError):
        GenSpec(model="er", n=10, avg_degree=-1)
    with pytest.raises(GenerationError, match="seed"):
        GenSpec(model="er", n=10, avg_degree=2, seed=-1)


def test_spec_rejects_more_nodes_than_a_file_can_declare():
    import tracemalloc

    from netcontrol.network import MAX_DECLARED_NODES
    GenSpec(model="er", n=MAX_DECLARED_NODES, avg_degree=0)
    tracemalloc.start()
    try:
        with pytest.raises(GenerationError, match="n must be"):
            GenSpec(model="sf", n=MAX_DECLARED_NODES + 1, avg_degree=10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("field", ["avg_degree", "gamma_in", "gamma_out"])
@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_spec_rejects_non_finite_parameters(field, value):
    params = {"model": "sf", "n": 10, "avg_degree": 2.0, field: value}
    with pytest.raises(GenerationError, match="finite"):
        GenSpec(**params)


def hill_exponent(degrees, d_min):
    tail = degrees[degrees >= d_min]
    return 1 + len(tail) / np.log(tail / (d_min - 0.5)).sum()


@pytest.mark.slow
def test_sf_tail_exponents_near_three():
    """Maximum-likelihood tail fit on a large sample, both directions."""
    net = generate(GenSpec(model="sf", n=10_000, avg_degree=10, seed=0))
    in_deg = np.diff(net.in_ptr)
    out_deg = np.diff(net.out_ptr)
    assert hill_exponent(in_deg, 10) == pytest.approx(3.0, abs=0.3)
    assert hill_exponent(out_deg, 10) == pytest.approx(3.0, abs=0.3)


def test_realized_degree_within_rounding():
    for spec in (GenSpec(model="er", n=501, avg_degree=3.0, seed=2),
                 GenSpec(model="sf", n=501, avg_degree=3.0, seed=2)):
        net = generate(spec)
        assert abs(2 * net.edge_count / net.n - spec.avg_degree) <= 2 / net.n


def _rejection_sample_loop(rng, target, stall_budget, draw):
    """The per-draw loop the batched sampler replaced, kept as reference."""
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    since_accept = 0
    batch = max(1024, 2 * target)
    while len(edges) < target:
        srcs, dsts = draw(batch)
        for u, v in zip(srcs.tolist(), dsts.tolist()):
            if u == v or (u, v) in seen:
                since_accept += 1
                if since_accept > stall_budget:
                    raise GenerationError(
                        f"no new edge after {since_accept} attempts "
                        f"({len(edges)}/{target} drawn)")
                continue
            seen.add((u, v))
            edges.append((u, v))
            since_accept = 0
            if len(edges) == target:
                break
    return edges


MAX_DRAWS = 1000  # batches per sampling; the cases below take at most 176


def _sampled(sampler, first, n, target, budget, draws, *decode):
    rng = np.random.default_rng(7)
    calls = 0

    def draw(size):  # a sampler that forgets its stall count fails, not hangs
        nonlocal calls
        calls += 1
        assert calls <= MAX_DRAWS, f"{MAX_DRAWS} batches drawn: no end"
        return draws(rng, size)

    try:
        return sampler(first, target, budget, draw, *decode)
    except GenerationError as exc:
        return str(exc)


@pytest.mark.parametrize("n, target, budget, model", [
    (5, 20, 10_000, "uniform"),     # every possible edge: many repeats
    (40, 700, 5_000, "uniform"),
    (300, 900, 10_000, "skewed"),   # hubs draw the same pairs often
    (300, 900, 10_000, "decoded"),  # the same, looked up as it is read
    (40, 1000, 10_000, "decoded"),  # prefixes fall short: rest read too
    (3, 5, 50, "uniform"),          # only 6 edges exist; 5 found
    (2, 3, 50, "uniform"),          # only 2 edges exist: stalls
    (2, 3, 2_000, "uniform"),       # stalls after batches of rejections
    (4, 0, 10, "uniform"),
    (30, 300, 10_000, "uniform"),   # done a third into a batch of repeats
    (50, 400, 10_000, "hub"),       # one pair is half of every batch
])
def test_batched_sampler_matches_the_per_draw_loop(n, target, budget, model):
    weights = np.arange(1, n + 1, dtype=float) ** -2.0
    weights /= weights.sum()
    lookup = _weighted_draw(weights)

    def draws(rng, size):
        if model == "skewed":
            return (rng.choice(n, size=size, p=weights),
                    rng.choice(n, size=size, p=weights))
        if model == "decoded":
            return lookup(rng.random(size)), lookup(rng.random(size))
        srcs, dsts = rng.integers(0, n, size), rng.integers(0, n, size)
        if model == "hub":
            hub = rng.random(size) < 0.5
            srcs[hub], dsts[hub] = 1, 2
        return srcs, dsts

    reference = _sampled(_rejection_sample_loop, None, n, target, budget,
                         draws)
    if model == "decoded":  # uniforms drawn, looked up only where read
        batched = _sampled(_rejection_sample, n, n, target, budget,
                           lambda rng, size: (rng.random(size),
                                              rng.random(size)),
                           lambda u, v: (lookup(u), lookup(v)))
    else:
        batched = _sampled(_rejection_sample, n, n, target, budget, draws)
    if isinstance(reference, str):
        assert batched == reference
        assert reference.startswith(f"no new edge after {budget + 1}")
    else:
        assert batched.tolist() == [list(e) for e in reference]


def test_sampler_reads_only_the_prefix_a_sparse_batch_needs(monkeypatch):
    """ER N=10^4, k=10 is done within its first batch's prefix: only that
    many of the 10^5 draws are decoded and keyed."""
    spec = GenSpec(model="er", n=10_000, avg_degree=10, seed=3)
    target = spec.edge_target
    keyed, decoded = [], []

    def counting(keys, bits):
        keyed.append(keys.size)
        return _first_occurrences(keys, bits)

    def identity(srcs, dsts):
        decoded.append(srcs.size)
        return srcs, dsts

    monkeypatch.setattr(generators, "_first_occurrences", counting)
    rng = np.random.default_rng(spec.seed)
    got = _rejection_sample(
        spec.n, target, 10 ** 9,
        lambda size: (rng.integers(0, spec.n, size),
                      rng.integers(0, spec.n, size)), identity)
    assert len(keyed) == 1 and keyed == decoded
    assert target < keyed[0] < 1.02 * target  # of a batch of 2 * target
    np.testing.assert_array_equal(got, edges(spec))


@st.composite
def _keys(draw):
    bits = draw(st.sampled_from([0, 1, 5, 40, 58, 63]))
    pool = draw(st.lists(st.integers(0, (1 << bits) - 1), min_size=1,
                         max_size=6))
    picks = draw(st.lists(st.sampled_from(pool) | st.integers(
        0, (1 << bits) - 1), max_size=120))
    return np.array(picks, dtype=np.int64), bits


@settings(max_examples=400, deadline=None)
@given(_keys())
def test_first_occurrences_match_unique(case):
    keys, bits = case
    want = np.zeros(keys.size, dtype=bool)
    want[np.unique(keys, return_index=True)[1]] = True
    np.testing.assert_array_equal(_first_occurrences(keys, bits), want)


@pytest.mark.parametrize("bits, size, packed", [
    (40, 1 << 20, True), (45, 1 << 20, False), (63, 3, False), (0, 7, True)])
def test_first_occurrences_take_both_widths(bits, size, packed, monkeypatch):
    """Keys and positions that fit one word are sorted packed; wider ones
    are argsorted."""
    keys = np.random.default_rng(1).integers(0, 1 << bits, size) >> 1
    keys[size // 2:] = keys[:size - size // 2]  # every key twice
    want = np.zeros(size, dtype=bool)
    want[np.unique(keys, return_index=True)[1]] = True
    argsorts = []
    monkeypatch.setattr(np, "argsort", lambda a: argsorts.append(a.size)
                        or a.argsort())
    np.testing.assert_array_equal(_first_occurrences(keys, bits), want)
    assert argsorts == ([] if packed else [size])


@pytest.mark.parametrize("n", [1, 2, 7, 300, 2000])
@pytest.mark.parametrize("gamma", [2.05, 3.0, 7.0])
def test_weighted_draw_equals_generator_choice(n, gamma):
    p = _static_weights(n, gamma)
    lookup = _weighted_draw(p)
    for seed in range(4):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for size in (1, 1024, 5000):
            got = lookup(ours.random(size))
            want = theirs.choice(n, size=size, p=p)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        assert ours.random() == theirs.random()  # same stream consumed


@pytest.mark.parametrize("p", [
    np.full(7, 1 / 7),
    np.array([0.5, 0.0, 0.25, 0.0, 0.125, 0.125]),  # empty steps
    _static_weights(300, 3.0),
])
def test_weighted_draw_on_the_cdf_steps(p):
    cdf = p.cumsum()
    cdf /= cdf[-1]
    # uniforms on and just below every step, where ``<`` and ``<=`` differ
    u = np.concatenate((cdf[:-1], np.nextafter(cdf[:-1], 0),
                        [0.0, np.nextafter(1.0, 0)]))
    np.testing.assert_array_equal(_weighted_draw(p)(u),
                                  cdf.searchsorted(u, side="right"))
