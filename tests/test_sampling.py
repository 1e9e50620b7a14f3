import math
import random
from collections import Counter

import numpy as np
import pytest

from qicd import (
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
from qicd.sampling import REASSIGN_FRACTION, SKEW_FACTOR

from conftest import edge_columns, make_random_graph


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
    return build_graph(n, *edge_columns([(i, i + 1, 1.0) for i in range(n - 1)]))


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
    g = build_graph(5, *edge_columns([(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)]))
    p = propose_partition(g, np.array([9.0, 1.0, 1.0, 0.1, 0.2]), 1)
    assert p.labels[0] == p.labels[1] == p.labels[2]
    assert list(Counter(p.labels).values()).count(1) == 2
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
    g = build_graph(5, *edge_columns([(0, 2, 1.0), (4, 2, 1.0), (0, 1, 1.0), (4, 3, 1.0)]))
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
        unreachable = sum(1 for size in Counter(p.labels).values() if size == 1)
        assert p.community_count <= k + unreachable
        assert sorted(set(p.labels)) == list(range(p.community_count))


def _cycle_graph(n):
    return build_graph(n, *edge_columns([(i, (i + 1) % n, 1.0) for i in range(n)]))


def test_hyperuniform_adjust_example():
    # n / C = 10 / 3, so community 0, of 8, is oversized, and it loses
    # ceil(0.1 * 8) = 1 node to one of the others.
    g = _cycle_graph(10)
    p = Partition(g, [0] * 8 + [1, 2])
    out = hyperuniform_adjust(g, p, make_rng(3))
    assert Counter(out.labels)[0] == 7
    assert sorted(Counter(out.labels).values()) == [1, 2, 7]


def test_hyperuniform_adjust_noop_cases():
    g = _cycle_graph(10)
    balanced = Partition(g, [i % 2 for i in range(10)])
    out = hyperuniform_adjust(g, balanced, make_rng(1))
    assert out.labels == balanced.labels
    # 9 of 10 in two communities is not above SKEW_FACTOR * n / C = 10.
    skewed = Partition(g, [0] * 9 + [1])
    assert hyperuniform_adjust(g, skewed, make_rng(1)).labels == skewed.labels
    single = Partition(g, [0] * 10)
    out = hyperuniform_adjust(g, single, make_rng(1))
    assert out.labels == single.labels


def test_hyperuniform_adjust_properties():
    # Every oversized community loses ceil(REASSIGN_FRACTION * size) of its
    # members, at most all but one, and no other community loses any.
    rnd = random.Random(19)
    oversized = 0
    for _ in range(60):
        g = make_random_graph(rnd, n_max=16)
        n = g.node_count
        c = rnd.randint(2, max(2, n // 2))
        heavy = rnd.uniform(0.0, 0.8)
        p = Partition(g, [0 if rnd.random() < heavy else rnd.randrange(c) for _ in range(n)])
        out = hyperuniform_adjust(g, p, make_rng(rnd.randrange(2**32)))
        threshold = SKEW_FACTOR * n / p.community_count
        assert out.community_count <= p.community_count  # no new ids
        assert set(out.labels) == set(range(out.community_count))
        sizes = Counter(p.labels)
        for comm in range(p.community_count):
            moved_away = sum(1 for u in range(n) if p.labels[u] == comm and out.labels[u] != comm)
            if sizes[comm] > threshold:
                oversized += 1
                assert moved_away == min(math.ceil(REASSIGN_FRACTION * sizes[comm]), sizes[comm] - 1) >= 1
            else:
                assert moved_away == 0
    assert oversized >= 10


def test_hu_noise_moves_exact_count():
    # ceil(0.1 * 25) = 3 nodes move, spread 1 and 2 by largest remainder.
    g = _cycle_graph(25)
    p = Partition(g, [0] * 12 + [1] * 13)
    out = hu_noise(g, p, make_rng(5))
    moved = sum(1 for a, b in zip(p.labels, out.labels) if a != b)
    assert moved == 3
    assert Counter(out.labels) == {0: 13, 1: 12}


def test_hu_noise_keeps_partition_valid():
    # Each picked node moves to another community, so exactly
    # ceil(REASSIGN_FRACTION * n) nodes move, unless the communities hold
    # fewer than that beyond one member each.
    rnd = random.Random(29)
    for _ in range(40):
        g = make_random_graph(rnd, n_max=14)
        n = g.node_count
        c = rnd.randint(2, max(2, n - 1))
        p = Partition(g, [rnd.randrange(c) for _ in range(n)])
        out = hu_noise(g, p, make_rng(rnd.randrange(2**32)))
        assert len(out.labels) == n
        assert set(out.labels) == set(range(out.community_count))
        assert out.community_count <= p.community_count
        moved = sum(1 for a, b in zip(p.labels, out.labels) if a != b)
        if p.community_count > 1:
            assert moved == min(math.ceil(REASSIGN_FRACTION * n), n - p.community_count)
        else:
            assert moved == 0


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
