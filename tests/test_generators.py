import numpy as np
import pytest

from netcontrol import GenSpec, GenerationError, generate
from netcontrol.generators import (_rejection_sample, _static_weights,
                                   _weighted_draw)
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


def _sampled(sampler, first, n, target, budget, draws):
    rng = np.random.default_rng(7)
    try:
        return sampler(first, target, budget, lambda size: draws(rng, size))
    except GenerationError as exc:
        return str(exc)


@pytest.mark.parametrize("n, target, budget, model", [
    (5, 20, 10_000, "uniform"),     # every possible edge: many repeats
    (40, 700, 5_000, "uniform"),
    (300, 900, 10_000, "skewed"),   # hubs draw the same pairs often
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

    def draws(rng, size):
        if model == "skewed":
            return (rng.choice(n, size=size, p=weights),
                    rng.choice(n, size=size, p=weights))
        srcs, dsts = rng.integers(0, n, size), rng.integers(0, n, size)
        if model == "hub":
            hub = rng.random(size) < 0.5
            srcs[hub], dsts[hub] = 1, 2
        return srcs, dsts

    reference = _sampled(_rejection_sample_loop, None, n, target, budget,
                         draws)
    batched = _sampled(_rejection_sample, n, n, target, budget, draws)
    if isinstance(reference, str):
        assert batched == reference
        assert reference.startswith(f"no new edge after {budget + 1}")
    else:
        assert batched.tolist() == [list(e) for e in reference]


@pytest.mark.parametrize("n", [1, 2, 7, 300, 2000])
@pytest.mark.parametrize("gamma", [2.05, 3.0, 7.0])
def test_weighted_draw_equals_generator_choice(n, gamma):
    p = _static_weights(n, gamma)
    draw = _weighted_draw(p)
    for seed in range(4):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for size in (1, 1024, 5000):
            got = draw(ours, size)
            want = theirs.choice(n, size=size, p=p)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        assert ours.random() == theirs.random()  # same stream consumed


class _FixedUniforms:
    """Stands in for a Generator whose uniforms are given."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        assert size == self.u.size
        return self.u


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
    np.testing.assert_array_equal(_weighted_draw(p)(_FixedUniforms(u), u.size),
                                  cdf.searchsorted(u, side="right"))
