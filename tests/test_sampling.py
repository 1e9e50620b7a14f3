import numpy as np
import pytest

from qicd import (
    HyperuniformParams,
    Partition,
    PlantedSpec,
    QicdConfig,
    build_graph,
    generate_planted,
    hu_noise,
    hyperuniform_adjust,
    make_rng,
    propose_partition,
    run_qicd,
    sample_haar_weights,
    sample_pt_weights,
)

from conftest import make_random_graph
import random


class _UnitUniform:
    """Stub generator whose uniform draws are all 0, so 1 - u == 1."""

    def random(self, n):
        return np.zeros(n)


def test_pt_inverse_transform_endpoint():
    assert sample_pt_weights(1, _UnitUniform()).tolist() == [0.0]


def test_pt_rejects_empty():
    with pytest.raises(ValueError):
        sample_pt_weights(0, make_rng(1))


def test_pt_moments_at_scale():
    w = sample_pt_weights(10**6, make_rng(42))
    mean = float(w.mean())
    var = float(w.var(ddof=1))
    assert 0.99 <= mean <= 1.01
    assert 0.97 <= var <= 1.03


def test_pt_ks_against_unit_exponential():
    n = 10**5
    w = np.sort(sample_pt_weights(n, make_rng(7)))
    cdf = 1.0 - np.exp(-w)
    grid = np.arange(1, n + 1) / n
    d = max(float(np.max(grid - cdf)), float(np.max(cdf - (grid - 1.0 / n))))
    assert d < 0.006


def test_haar_single_node():
    assert sample_haar_weights(1, make_rng(3)).tolist() == [1.0]


def test_haar_sums_to_one():
    for n in (2, 10, 1000, 10**4):
        assert abs(float(sample_haar_weights(n, make_rng(n)).sum()) - 1.0) <= 1e-12


def test_haar_marginal_means():
    rng = make_rng(11)
    draws = np.stack([sample_haar_weights(4, rng) for _ in range(10**4)])
    means = draws.mean(axis=0)
    assert np.all(means > 0.24) and np.all(means < 0.26)


def test_sampling_determinism():
    a = sample_pt_weights(100, make_rng(5))
    b = sample_pt_weights(100, make_rng(5))
    assert np.array_equal(a, b)


def _path_graph(n):
    return build_graph(n, [(i, i + 1, 1.0) for i in range(n - 1)])


def test_propose_path_example():
    g = _path_graph(5)
    p = propose_partition(g, np.array([5.0, 0.1, 0.2, 4.0, 0.3]), 2)
    # seeds 0 and 3; node 1 is adjacent to seed 0, nodes 2 and 4 to seed 3
    assert p.labels[0] == p.labels[1]
    assert p.labels[2] == p.labels[3] == p.labels[4]
    assert p.community_count == 2


def test_propose_all_seeds_gives_singletons():
    g = _path_graph(5)
    p = propose_partition(g, sample_pt_weights(5, make_rng(2)), 5)
    assert p.community_count == 5


def test_propose_unreachable_nodes_become_singletons():
    g = build_graph(5, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)])
    p = propose_partition(g, np.array([9.0, 1.0, 1.0, 0.1, 0.2]), 1)
    assert p.labels[0] == p.labels[1] == p.labels[2]
    assert p.sizes.count(1) == 2
    assert p.labels[3] != p.labels[4]


def test_propose_ties_break_to_lower_node_id():
    g = _path_graph(4)
    p = propose_partition(g, np.ones(4), 2)
    # equal weights: seeds are nodes 0 and 1; node 2 joins 1, node 3 joins 1
    assert p.labels[0] != p.labels[1]
    assert p.labels[2] == p.labels[1]
    assert p.labels[3] == p.labels[1]


def test_propose_equidistant_tie_prefers_heavier_seed():
    # star-of-paths: node 2 is adjacent to both seeds 0 and 4
    g = build_graph(5, [(0, 2, 1.0), (4, 2, 1.0), (0, 1, 1.0), (4, 3, 1.0)])
    p = propose_partition(g, np.array([2.0, 0.1, 0.0, 0.1, 9.0]), 2)
    assert p.labels[2] == p.labels[4]  # heavier seed wins the simultaneous arrival


def test_propose_validation():
    g = _path_graph(3)
    with pytest.raises(ValueError, match="seed_count"):
        propose_partition(g, np.ones(3), 0)
    with pytest.raises(ValueError, match="seed_count"):
        propose_partition(g, np.ones(3), 4)
    for bad in (np.ones(2), np.ones(4), np.ones((3, 1)), np.array([])):
        with pytest.raises(ValueError, match=r"weights must have shape \(3,\)"):
            propose_partition(g, bad, 1)
    for bad in ([1.0, -0.5, 1.0], [1.0, float("nan"), 1.0], [1.0, float("inf"), 1.0]):
        with pytest.raises(ValueError, match="weights must be finite and non-negative"):
            propose_partition(g, np.array(bad), 1)


def test_propose_community_bound():
    rnd = random.Random(6)
    for _ in range(30):
        g = make_random_graph(rnd, n_max=12)
        n = g.node_count
        k = rnd.randint(1, n)
        p = propose_partition(g, sample_pt_weights(n, make_rng(rnd.randrange(2**32))), k)
        unreachable = sum(1 for c in range(p.community_count) if p.sizes[c] == 1)
        assert p.community_count <= k + unreachable
        assert sorted(set(p.labels)) == list(range(p.community_count))


def test_hyperuniform_params_validation():
    with pytest.raises(ValueError):
        HyperuniformParams(skew_factor=1.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="skew_factor must be finite"):
            HyperuniformParams(skew_factor=bad)
    with pytest.raises(ValueError):
        HyperuniformParams(reassign_fraction=1.5)
    HyperuniformParams(reassign_fraction=0.0)  # degenerate no-op is allowed


def _cycle_graph(n):
    return build_graph(n, [(i, (i + 1) % n, 1.0) for i in range(n)])


def test_hyperuniform_adjust_example():
    g = _cycle_graph(10)
    p = Partition(g, [0] * 9 + [1])
    out = hyperuniform_adjust(g, p, HyperuniformParams(1.5, 0.2), make_rng(3))
    assert sorted(out.sizes) == [3, 7]


def test_hyperuniform_adjust_noop_cases():
    g = _cycle_graph(10)
    balanced = Partition(g, [i % 2 for i in range(10)])
    out = hyperuniform_adjust(g, balanced, HyperuniformParams(1.5, 0.2), make_rng(1))
    assert out.labels == balanced.labels
    single = Partition(g, [0] * 10)
    out = hyperuniform_adjust(g, single, HyperuniformParams(1.5, 0.2), make_rng(1))
    assert out.labels == single.labels


def test_hyperuniform_adjust_properties():
    rnd = random.Random(19)
    for _ in range(40):
        g = make_random_graph(rnd, n_max=16)
        n = g.node_count
        c = rnd.randint(2, max(2, n // 2))
        labels = [rnd.randrange(c) for _ in range(n)]
        p = Partition(g, labels)
        params = HyperuniformParams(rnd.uniform(1.1, 2.5), rnd.uniform(0.05, 1.0))
        out = hyperuniform_adjust(g, p, params, make_rng(rnd.randrange(2**32)))
        threshold = params.skew_factor * n / p.community_count
        assert out.community_count <= p.community_count  # no new ids
        assert all(size >= 1 for size in out.sizes)
        for comm in range(p.community_count):
            if p.sizes[comm] > threshold:
                moved_away = sum(
                    1 for u in range(n) if p.labels[u] == comm and out.labels[u] != p.labels[u]
                )
                assert moved_away >= 1


def test_hu_noise_moves_exact_count():
    g = _cycle_graph(10)
    p = Partition(g, [0] * 5 + [1] * 5)
    out = hu_noise(g, p, HyperuniformParams(2.0, 0.3), make_rng(5))
    moved = sum(1 for a, b in zip(p.labels, out.labels) if a != b)
    assert moved == 3


def test_hu_noise_zero_fraction_is_noop():
    g = _cycle_graph(10)
    p = Partition(g, [0] * 5 + [1] * 5)
    out = hu_noise(g, p, HyperuniformParams(2.0, 0.0), make_rng(5))
    assert out.labels == p.labels


def test_hu_noise_keeps_partition_valid():
    rnd = random.Random(29)
    for _ in range(40):
        g = make_random_graph(rnd, n_max=14)
        n = g.node_count
        c = rnd.randint(2, max(2, n - 1))
        p = Partition(g, [rnd.randrange(c) for _ in range(n)])
        out = hu_noise(g, p, HyperuniformParams(2.0, rnd.uniform(0.05, 1.0)), make_rng(rnd.randrange(2**32)))
        assert len(out.labels) == n
        assert all(size >= 1 for size in out.sizes)
        assert out.community_count <= p.community_count


def test_pt_and_haar_give_the_same_proposal_from_one_stream():
    # propose_partition reads only the stable ranking of the weights, and a
    # haar draw is the pt draw from the same stream divided by its positive
    # sum, which keeps that ranking: the two kinds are one method.
    rnd = random.Random(8)
    for _ in range(50):
        g = make_random_graph(rnd, n_max=40)
        seed, k = rnd.randrange(2**32), rnd.randint(1, g.node_count)
        pt_rng, haar_rng = make_rng(seed), make_rng(seed)
        pt = propose_partition(g, sample_pt_weights(g.node_count, pt_rng), k)
        haar = propose_partition(g, sample_haar_weights(g.node_count, haar_rng), k)
        assert pt.labels == haar.labels
        assert pt_rng.random() == haar_rng.random()  # so later draws agree too
    g, _truth = generate_planted(PlantedSpec(120, 4, 0.3, 0.08, seed=5))
    runs = [
        run_qicd(g, QicdConfig(kind=name, iterations=4, refine_before_accept=True, seed=3))
        for name in ("pt", "haar", "pt-hu", "haar-hu")
    ]
    for pt, haar in ((0, 1), (2, 3)):
        assert runs[pt].q_star == runs[haar].q_star
        assert runs[pt].best_partition.labels == runs[haar].best_partition.labels
        assert [r.q_quant for r in runs[pt].trace] == [r.q_quant for r in runs[haar].trace]
