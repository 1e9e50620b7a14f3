import math
import random
from collections import Counter

import numpy as np
import pytest

from qicd import (
    Partition,
    PlantedSpec,
    QicdConfig,
    aggregate,
    build_graph,
    community_members,
    generate_planted,
    hu_noise,
    hyperuniform_adjust,
    leiden,
    leiden_refine,
    louvain,
    make_rng,
    modularity,
    run_qicd,
    singleton_partition,
)
from qicd.detect import move_nodes, seeded_pass

from conftest import (
    TWO_TRIANGLES_EDGES,
    check_move_pass,
    collapse,
    edge_columns,
    make_random_graph,
    modularity_double_sum,
    traced_bytes,
)


def _random_partition(rnd, n, c_max=4):
    return [rnd.randrange(min(c_max, n)) for _ in range(n)]


def _counted_sums(graph, labels):
    """Each community's total member strength and internal edge weight,
    counted node by node and edge by edge, for dense labels on a graph
    without self weights."""
    members = [[u for u, label in enumerate(labels) if label == c] for c in range(max(labels) + 1)]
    strength = [math.fsum(graph.strengths[u] for u in nodes) for nodes in members]
    indptr, indices, weights = graph.indptr.tolist(), graph.indices.tolist(), graph.weights.tolist()
    internal = [
        math.fsum(
            weights[k]
            for u in nodes
            for k in range(indptr[u], indptr[u + 1])
            if u < indices[k] and labels[indices[k]] == c
        )
        for c, nodes in enumerate(members)
    ]
    return strength, internal


def test_labels_are_compacted():
    g = build_graph(3, *edge_columns([(0, 1, 1.0), (1, 2, 1.0)]))
    p = Partition(g, [5, 9, 5])
    assert p.labels == [0, 1, 0]
    assert p.community_count == 2
    assert Counter(p.labels) == {0: 2, 1: 1}


def test_label_validation():
    g = build_graph(2, *edge_columns([(0, 1, 1.0)]))
    with pytest.raises(ValueError):
        Partition(g, [0])
    with pytest.raises(ValueError):
        Partition(g, [0, -1])
    assert Partition(build_graph(0, *edge_columns([])), []).community_count == 0


@pytest.mark.parametrize("labels", [[0.5, 1.7, 0.2], [0.0, 1.0, 0.0], ["1", "0", "1"], [True, False, True]])
def test_non_integer_labels_are_rejected(labels):
    g = build_graph(3, *edge_columns([(0, 1, 1.0), (1, 2, 1.0)]))
    with pytest.raises(ValueError, match="labels must be integers"):
        Partition(g, labels)


def test_aggregate_fields_consistent_on_randoms():
    rnd = random.Random(11)
    for _ in range(50):
        g = make_random_graph(rnd, n_max=10)
        p = Partition(g, _random_partition(rnd, g.node_count))
        m = g.total_weight
        agg = aggregate(g, p)
        internal = agg.self_weights.tolist()
        assert sum(internal) <= m + 1e-9
        assert abs(sum(agg.strengths) - 2.0 * m) <= 1e-9 * max(1.0, 2.0 * m)
        # recount node by node and edge by edge and compare
        strength, counted = _counted_sums(g, p.labels)
        assert agg.strengths.tolist() == pytest.approx(strength, rel=1e-12, abs=1e-9)
        assert internal == pytest.approx(counted, rel=1e-12, abs=1e-9)


def test_modularity_identities(two_triangles):
    assert abs(modularity(two_triangles, Partition(two_triangles, [0] * 6))) <= 1e-12
    assert modularity(two_triangles, Partition(two_triangles, [0, 0, 0, 1, 1, 1])) == 0.5
    single = build_graph(2, *edge_columns([(0, 1, 1.0)]))
    assert modularity(single, singleton_partition(single)) == -0.5


def test_modularity_reads_the_graph_it_is_given():
    # Q of a partition is that of its labels on the graph passed in, never
    # on the graph the Partition was built over.
    def check(g1, g2, labels):
        assert modularity(g2, Partition(g1, labels)) == modularity(g2, Partition(g2, labels))

    path = build_graph(4, *edge_columns([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]))
    other_path = build_graph(4, *edge_columns([(0, 2, 1.0), (2, 1, 1.0), (1, 3, 1.0)]))
    assert modularity(other_path, Partition(path, [0, 0, 1, 1])) == -0.5
    check(path, other_path, [0, 0, 1, 1])
    rnd = random.Random(5)
    for _ in range(30):
        n, k = rnd.randint(3, 9), rnd.randint(2, 3)
        g1, g2 = (_random_graph(rnd, n) for _ in range(2))
        labels = _random_partition(rnd, n)
        if g2.total_weight > 0:
            check(g1, g2, labels)
        # collapsed graphs, which carry self weights, against each other and
        # against a plain graph of the same size
        groups = [u % k for u in range(n)]
        rnd.shuffle(groups)
        c1, c2, plain = collapse(g1, groups)[0], collapse(g2, groups)[0], _random_graph(rnd, k)
        top = _random_partition(rnd, k)
        for a, b in ((c1, c2), (c2, c1), (c1, plain), (plain, c1)):
            if b.total_weight > 0:
                check(a, b, top)


def _random_graph(rnd, n):
    """A weighted graph on exactly n nodes, each pair an edge with probability 1/2."""
    triples = [(i, j, rnd.uniform(0.1, 3.0)) for i in range(n) for j in range(i + 1, n) if rnd.random() < 0.5]
    return build_graph(n, *edge_columns(triples))


def test_move_nodes_reads_the_graph_it_is_given():
    # Nodes move by the community strengths of the graph they move on, never
    # by those of the graph the Partition was built over.
    rnd = random.Random(9)
    for _ in range(40):
        n = rnd.randint(3, 8)
        g1, g2 = (_random_graph(rnd, n) for _ in range(2))
        if g2.total_weight == 0:
            continue
        labels = _random_partition(rnd, n)
        for refine in (True, False):
            own, foreign = (seeded_pass(g2, Partition(g, labels), make_rng(2), refine) for g in (g2, g1))
            assert foreign.labels == own.labels
        own, foreign = (move_nodes(g2, Partition(g, labels), make_rng(2)) for g in (g2, g1))
        assert foreign.labels == own.labels


def test_modularity_edgeless_errors():
    g = build_graph(3, *edge_columns([]))
    with pytest.raises(ValueError, match="no edges"):
        modularity(g, Partition(g, [0, 0, 0]))


def test_modularity_matches_double_sum():
    rnd = random.Random(3)
    for _ in range(60):
        g = make_random_graph(rnd, n_max=8)
        if g.total_weight == 0:
            continue
        labels = _random_partition(rnd, g.node_count)
        p = Partition(g, labels)
        assert abs(modularity(g, p) - modularity_double_sum(g, labels)) < 1e-12


def test_relabeling_invariance():
    rnd = random.Random(9)
    for _ in range(30):
        g = make_random_graph(rnd)
        if g.total_weight == 0:
            continue
        labels = _random_partition(rnd, g.node_count)
        perm = list(range(max(labels) + 1))
        rnd.shuffle(perm)
        q1 = modularity(g, Partition(g, labels))
        q2 = modularity(g, Partition(g, [perm[c] for c in labels]))
        assert abs(q1 - q2) < 1e-12


def test_weight_scaling_invariance():
    rnd = random.Random(21)
    for _ in range(20):
        g = make_random_graph(rnd)
        if g.total_weight == 0:
            continue
        lam = rnd.uniform(0.01, 50.0)
        us, vs, ws = g.edge_arrays()
        scaled = build_graph(g.node_count, us, vs, ws * lam)
        labels = _random_partition(rnd, g.node_count)
        q1 = modularity(g, Partition(g, labels))
        q2 = modularity(scaled, Partition(scaled, labels))
        assert abs(q1 - q2) <= 1e-9


def test_q_range():
    rnd = random.Random(2)
    for _ in range(40):
        g = make_random_graph(rnd)
        if g.total_weight == 0:
            continue
        q = modularity(g, Partition(g, _random_partition(rnd, g.node_count)))
        assert -1.0 <= q <= 1.0


# The gains and community-strength updates of a move live in
# detect._move_pass, the one move kernel; check_move_pass holds it to the
# double sum and to a math.fsum over each community's members.


def test_delta_q_noop_is_exactly_zero(two_triangles):
    gain, p = check_move_pass(two_triangles, [0, 0, 0, 1, 1, 1], seed=0)
    assert gain == 0.0
    assert p.labels == [0, 0, 0, 1, 1, 1]


def test_delta_q_split_triangle(two_triangles):
    # one triangle split as {0} + {1, 2}; only node 0 may move, and rejoins
    gain, p = check_move_pass(two_triangles, [0, 1, 1, 2, 2, 2], seed=0, active=[True] + [False] * 5)
    assert p.labels == [0, 0, 0, 1, 1, 1]
    assert gain > 0


def test_delta_q_matches_full_recompute_randomly():
    rnd = random.Random(17)
    checked = 0
    while checked < 200:
        g = make_random_graph(rnd, n_max=8)
        if g.total_weight == 0:
            continue
        checked += 1
        graph, node_of = g, None
        if checked % 2:  # a collapsed graph, which carries self weights
            graph, node_of = collapse(g, _random_partition(rnd, g.node_count, c_max=6))
        n = graph.node_count
        check_move_pass(graph, _random_partition(rnd, n), rnd.randrange(2**32), [rnd.random() < 0.7 for _ in range(n)],
                        original=g, node_of=node_of)


def test_move_nodes_returns_no_empty_community(two_triangles):
    # node 5 alone in community 2 joins 3 and 4, which empties community 2
    p = move_nodes(two_triangles, Partition(two_triangles, [0, 0, 0, 1, 1, 2]), make_rng(0))
    assert p.community_count == 2
    assert Counter(p.labels) == {0: 3, 1: 3}
    assert p.labels == [0, 0, 0, 1, 1, 1]
    assert modularity(two_triangles, p) == 0.5


def test_aggregate_singletons_is_isomorphic():
    rnd = random.Random(31)
    g = make_random_graph(rnd, n_max=8)
    agg = aggregate(g, singleton_partition(g))
    assert agg.node_count == g.node_count
    for name in ("indptr", "indices", "weights"):
        assert np.array_equal(getattr(agg, name), getattr(g, name))
    assert agg.self_weights.tolist() == [0.0] * g.node_count
    assert agg.strengths.tolist() == g.strengths.tolist()
    assert agg.total_weight == g.total_weight


def test_aggregate_two_triangles_with_bridge():
    edges = TWO_TRIANGLES_EDGES + [(2, 3, 1.0)]
    g = build_graph(6, *edge_columns(edges))
    p = Partition(g, [0, 0, 0, 1, 1, 1])
    agg = aggregate(g, p)
    assert agg.node_count == 2
    assert [a.tolist() for a in agg.edge_arrays()] == [[0], [1], [1.0]]
    assert agg.self_weights.tolist() == [3.0, 3.0]
    assert agg.strengths.tolist() == [7.0, 7.0]
    assert agg.total_weight == 7.0


def test_aggregate_preserves_modularity():
    rnd = random.Random(41)
    for _ in range(60):
        g = make_random_graph(rnd, n_max=9)
        if g.total_weight == 0:
            continue
        labels = _random_partition(rnd, g.node_count)
        p = Partition(g, labels)
        agg = aggregate(g, p)
        top = singleton_partition(agg)
        assert abs(modularity(agg, top) - modularity(g, p)) < 1e-12
        # a second-level grouping must also match the expanded grouping
        group = [c % 2 for c in range(agg.node_count)]
        top2 = Partition(agg, group)
        expanded = [group[p.labels[u]] for u in range(g.node_count)]
        assert abs(modularity(agg, top2) - modularity(g, Partition(g, expanded))) < 1e-12
        # so must a grouping on the aggregate of an aggregate
        agg2 = aggregate(agg, top2)
        outer = [rnd.randrange(agg2.node_count) for _ in range(agg2.node_count)]
        top3 = Partition(agg2, outer)
        expanded = [outer[top2.labels[p.labels[u]]] for u in range(g.node_count)]
        assert abs(modularity(agg2, top3) - modularity(g, Partition(g, expanded))) < 1e-12


def test_aggregate_memory_per_edge():
    """Traced allocation per edge of aggregate on a 78k-edge planted graph,
    under 500 random labels, which put nearly every edge across
    communities, and under the labels of move_nodes. Keying and summing
    the cross edges apart from build_graph, with every edge array still
    held, costs about 146 and 56 B/edge."""
    graph = generate_planted(PlantedSpec(2000, 10, 0.3, 0.01, seed=1))[0]
    m = graph.edge_count
    scattered = Partition(graph, np.random.default_rng(0).integers(0, 500, graph.node_count).tolist())
    moved = move_nodes(graph, singleton_partition(graph), make_rng(0))
    assert traced_bytes(aggregate, graph, scattered) / m < 110
    assert traced_bytes(aggregate, graph, moved) / m < 50


def test_partition_memory_per_edge():
    """A Partition is computed from its labels alone, so building one on the
    78k-edge planted graph allocates next to nothing per edge. Summing the
    internal weights of 500 random communities there costs about 32 B/edge."""
    graph = generate_planted(PlantedSpec(2000, 10, 0.3, 0.01, seed=1))[0]
    labels = np.random.default_rng(0).integers(0, 500, graph.node_count).tolist()
    assert traced_bytes(Partition, graph, labels) / graph.edge_count < 5


def test_community_members(two_triangles):
    p = Partition(two_triangles, [1, 0, 1, 0, 0, 1])
    assert community_members(p) == [[1, 3, 4], [0, 2, 5]]


def _state(p):
    return (p.labels[:], p.community_count)


def _assert_compact_value(graph, out):
    """out has dense labels and no empty community, and the community
    strengths and internal weights that aggregate carries match those
    counted and summed here, node by node and edge by edge."""
    count = out.community_count
    assert set(out.labels) == set(range(count))
    strength, internal = _counted_sums(graph, out.labels)
    collapsed = aggregate(graph, out)
    assert collapsed.strengths.tolist() == pytest.approx(strength, rel=1e-12, abs=1e-9)
    assert collapsed.self_weights.tolist() == pytest.approx(internal, rel=1e-12, abs=1e-9)


def test_partitions_are_values():
    # Only detect.move_nodes changes a Partition, on its own copy: no public
    # route alters its input or returns a partition with an empty community.
    rnd = random.Random(31)
    checked = 0
    while checked < 30:
        g = make_random_graph(rnd, n_max=14)
        if g.total_weight == 0:
            continue
        checked += 1
        p = Partition(g, _random_partition(rnd, g.node_count))
        before = _state(p)
        rng = make_rng(rnd.randrange(2**32))
        outputs = [
            move_nodes(g, p, rng),
            leiden_refine(g, p),
            seeded_pass(g, p, rng, refine=True),
            seeded_pass(g, p, rng, refine=False),
            hyperuniform_adjust(g, p, rng),
            hu_noise(g, p, rng),
        ]
        assert _state(p) == before
        outputs += [leiden(g, 3), louvain(g, 3)]
        for kind in ("haar-hu", "hu"):
            cfg = QicdConfig(kind=kind, iterations=3, refine_before_accept=True, seed=checked)
            outputs.append(run_qicd(g, cfg).best_partition)
        for out in outputs:
            _assert_compact_value(g, out)
