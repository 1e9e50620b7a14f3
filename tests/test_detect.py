import gc
import json
import math
import os
import random
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from qicd import (
    Partition,
    PlantedSpec,
    QicdConfig,
    aggregate,
    build_graph,
    generate_planted,
    leiden,
    leiden_refine,
    louvain,
    make_rng,
    modularity,
    ring_of_cliques,
    run_qicd,
    singleton_partition,
)
import qicd.detect
from qicd.detect import _flat, _move_pass, move_nodes, seeded_pass

from conftest import (
    communities_connected,
    edge_columns,
    iter_set_partitions,
    make_random_graph,
    member_strengths,
    modularity_double_sum,
    reference_move_pass,
)


def one_pass(graph, partition, rng):
    """One greedy move pass over every node, from partition's labels."""
    labels = list(partition.labels)
    _move_pass(_flat(graph), labels, member_strengths(graph, partition), rng, [True] * graph.node_count)
    return Partition(graph, labels)


def test_two_triangles_is_enumerated_optimum(two_triangles):
    # exhaustive check over all Bell(6) = 203 partitions that 0.5 is the max
    best = max(
        modularity_double_sum(two_triangles, labels) for labels in iter_set_partitions(6)
    )
    assert abs(best - 0.5) < 1e-12
    for detector in (louvain, leiden):
        p = detector(two_triangles, 7)
        assert modularity(two_triangles, p) == 0.5
        assert p.community_count == 2
        assert p.labels[0] == p.labels[1] == p.labels[2]
        assert p.labels[3] == p.labels[4] == p.labels[5]


def test_ring_of_cliques_recovered():
    g = ring_of_cliques(10, 5)
    expected = 10.0 / 11.0 - 0.1
    for detector in (louvain, leiden):
        p = detector(g, 3)
        assert p.community_count == 10
        assert abs(modularity(g, p) - expected) < 1e-9
    pl = louvain(g, 3)
    pd = leiden(g, 3)
    assert pl.labels == pd.labels


def check_labels_under_scaling(equal: bool):
    # Q is scale-free and scaling by 2**k is exact, so every decision, and
    # so every label, must be that of k = 0.
    rnd = random.Random(40)
    n = 40
    edges = [(u, v, rnd.uniform(0.1, 3.0)) for u in range(n) for v in range(u + 1, n) if rnd.random() < 0.2]
    if equal:
        edges = [(u, v, 1.0) for u, v, _w in edges]
    weights = [w for *_, w in edges]
    # At both ends of the range of k every weight stays a normal float and 2m stays finite.
    assert math.ldexp(min(weights), -1000) >= sys.float_info.min
    assert math.ldexp(2.0 * math.fsum(weights), 1000) < sys.float_info.max
    polished = QicdConfig(kind="haar-hu", iterations=3, refine_before_accept=True, seed=5)

    def labels(k):
        g = build_graph(n, *edge_columns([(u, v, math.ldexp(w, k)) for u, v, w in edges]))
        return [leiden(g, 5).labels, louvain(g, 5).labels, run_qicd(g, polished).best_partition.labels]

    expected = labels(0)
    for k in range(-1000, 1001, 25):
        assert labels(k) == expected, k


def test_labels_do_not_change_when_every_weight_is_scaled_by_a_power_of_two():
    check_labels_under_scaling(equal=False)


def test_labels_do_not_change_when_every_equal_weight_is_scaled_by_a_power_of_two():
    # Level 0's move loop reads one float, which move_nodes scales outside 2**±500.
    check_labels_under_scaling(equal=True)


def test_edgeless_graph_rejected():
    g = build_graph(4, *edge_columns([]))
    for detector in (louvain, leiden):
        with pytest.raises(ValueError, match="no edges"):
            detector(g, 1)


def test_local_move_fixed_point(two_triangles):
    p = Partition(two_triangles, [0, 0, 0, 1, 1, 1])
    out = one_pass(two_triangles, p, make_rng(11))
    assert out.labels == p.labels
    assert modularity(two_triangles, out) == modularity(two_triangles, p)


def test_local_move_repairs_misassigned_node(two_triangles):
    p = Partition(two_triangles, [0, 0, 0, 0, 1, 1])  # node 3 in the wrong triangle
    out = one_pass(two_triangles, p, make_rng(4))
    assert modularity(two_triangles, out) == 0.5
    assert out.labels[3] == out.labels[4] == out.labels[5]


def test_local_move_never_decreases_q():
    rnd = random.Random(23)
    checked = 0
    while checked < 100:
        g = make_random_graph(rnd, n_max=32)
        if g.total_weight == 0:
            continue
        labels = [rnd.randrange(4) for _ in range(g.node_count)]
        p = Partition(g, labels)
        out = one_pass(g, p, make_rng(rnd.randrange(2**32)))
        assert modularity(g, out) >= modularity(g, p) - 1e-12
        checked += 1


def test_local_move_is_a_single_pass(two_triangles):
    # At a fixed point one pass visits every flagged node once, clears its
    # flag, and moves nothing, so no node is flagged again.
    labels = [0, 0, 0, 1, 1, 1]
    active = [True] * 6
    assert _move_pass(_flat(two_triangles), labels, [6.0, 6.0], make_rng(0), active) == 0.0
    assert active == [False] * 6
    assert labels == [0, 0, 0, 1, 1, 1]


def _reference_pass(flat, labels, comm_strength, rng, active):
    """reference_move_pass at resolution 1, with _move_pass's signature."""
    return reference_move_pass(flat, labels, comm_strength, rng, 1.0, active)


def _pass_outcome(kernel, flat, labels, comm_strength, active, seed):
    """labels, community strengths, active flags and gain after one pass of
    kernel on copies of its inputs, with every float as its hex string and
    every flag as a bool, so equal means bit-identical. active may be a
    list of bools or a bytearray, as move_nodes passes."""
    labels, comm_strength, active = list(labels), list(comm_strength), type(active)(active)
    gain = kernel(flat, labels, comm_strength, make_rng(seed), active)
    return labels, [x.hex() for x in comm_strength], [bool(x) for x in active], gain.hex()


def _one_weight_per_entry(flat):
    indptr, indices, weights, strengths, m = flat
    if isinstance(weights, float):
        weights = [weights] * len(indices)
    return indptr, indices, weights, strengths, m


def _random_graph(rnd, weight=None):
    """A random graph on 2 to 40 nodes with at least two edges, whose edges
    all weigh `weight`, or distinct weights from [0.1, 3) when it is None."""
    while True:
        n = rnd.randint(2, 40)
        p = rnd.uniform(0.05, 0.6)
        edges = [(u, v, weight or rnd.uniform(0.1, 3.0)) for u in range(n) for v in range(u + 1, n) if rnd.random() < p]
        if len(edges) > 1:
            return build_graph(n, *edge_columns(edges))


@pytest.mark.parametrize("kind", ["1.0", "0.1", "2.5", "distinct", "collapsed", "zeros"])
def test_move_pass_matches_the_reference_loop(kind):
    # The equal-weight tally adds the same float in the same order as the
    # reference's per-entry list; "zeros" lists communities twice in touched.
    rnd = random.Random(f"tally-{kind}")
    for _ in range(60):
        graph = _random_graph(rnd, None if kind in ("distinct", "collapsed", "zeros") else float(kind))
        n = graph.node_count
        if kind == "collapsed":
            graph = aggregate(graph, Partition(graph, [rnd.randrange(rnd.randint(1, n)) for _ in range(n)]))
        flat = _flat(graph)
        if kind != "collapsed":
            assert isinstance(flat[2], float) == (kind != "distinct" and kind != "zeros")
        if kind == "zeros":
            flat = (flat[0], flat[1], [0.0 if rnd.random() < 0.3 else w for w in flat[2]], *flat[3:])
        start = Partition(graph, [rnd.randrange(rnd.randint(1, graph.node_count)) for _ in range(graph.node_count)])
        args = (start.labels, member_strengths(graph, start), [rnd.random() < 0.7 for _ in range(graph.node_count)],
                rnd.randrange(2**32))
        expected = _pass_outcome(_reference_pass, _one_weight_per_entry(flat), *args)
        assert _pass_outcome(_move_pass, flat, *args) == expected
        # move_nodes passes its flags as a bytearray.
        labels, strengths, flags, seed = args
        for kernel, kernel_flat in ((_move_pass, flat), (_reference_pass, _one_weight_per_entry(flat))):
            assert _pass_outcome(kernel, kernel_flat, labels, strengths, bytearray(flags), seed) == expected


@pytest.mark.parametrize("weight", [1.0, 3e-200, 2.5e200, None])
def test_move_nodes_matches_the_reference_loop(monkeypatch, weight):
    # A pass divides by m * m, so equal weights of 3e-200 or 2.5e200 only
    # run scaled: move_nodes scales a float weights with one ldexp and a
    # list value by value. The reference runs on the list form throughout.
    rnd = random.Random(f"scaled-{weight}")
    for _ in range(20):
        graph = _random_graph(rnd, weight)
        assert isinstance(_flat(graph)[2], float) == (weight is not None)
        start = Partition(graph, [rnd.randrange(rnd.randint(1, graph.node_count)) for _ in range(graph.node_count)])
        seed = rnd.randrange(2**32)
        with monkeypatch.context() as patched:
            patched.setattr(qicd.detect, "_flat", lambda g: _one_weight_per_entry(_flat(g)))
            patched.setattr(qicd.detect, "_move_pass", _reference_pass)
            expected = move_nodes(graph, start, make_rng(seed)).labels
        assert move_nodes(graph, start, make_rng(seed)).labels == expected


def test_move_nodes_stops_at_the_first_sweep_below_min_gain(monkeypatch):
    # Two bridged triangles, then 0 -(7e-6)- 6 -(1e-6)- 7 with {6, 7} one
    # community. Seed 4 visits 7 before 6, so the first sweep moves only 6
    # to the first triangle and gains ~2.9e-7, between MIN_GAIN and ten
    # times it; the second moves 7 after it and gains ~7.1e-8, below
    # MIN_GAIN, which ends the level there with 7 moved.
    edges = [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (3, 5, 1.0), (4, 5, 1.0),
             (0, 6, 7e-6), (6, 7, 1e-6)]
    graph = build_graph(8, *edge_columns(edges))
    gains = []

    def recorded(*args):
        gains.append(_move_pass(*args))
        return gains[-1]

    monkeypatch.setattr(qicd.detect, "_move_pass", recorded)
    out = move_nodes(graph, Partition(graph, [0, 0, 0, 1, 1, 1, 2, 2]), make_rng(4))
    assert len(gains) == 2
    assert qicd.detect.MIN_GAIN <= gains[0] < 10 * qicd.detect.MIN_GAIN
    assert 0.0 < gains[1] < qicd.detect.MIN_GAIN
    assert out.labels == [0, 0, 0, 1, 1, 1, 0, 0]


def test_a_zero_weight_lists_a_community_twice_and_its_second_read_loses():
    # Node 0 alone in community 0; nodes 1 and 2 in community 1, reached by
    # weights 0.0 and 2.0; node 3 in community 2, reached by 1.0. Community
    # 1 enters touched twice: the first read scores its full 2.0 and wins
    # (gain 2/5 - 0.06 * 2), the second reads the 0.0 the first left.
    indptr = [0, 3, 4, 5, 7, 8]
    indices = [1, 2, 3, 0, 0, 0, 4, 3]
    weights = [0.0, 2.0, 1.0, 0.0, 2.0, 1.0, 2.0, 2.0]
    strengths = [3.0, 0.0, 2.0, 3.0, 2.0]
    flat = (indptr, indices, weights, strengths, 5.0)
    args = ([0, 1, 1, 2, 2], [3.0, 2.0, 5.0], [True, False, False, False, False], 0)
    outcome = _pass_outcome(_move_pass, flat, *args)
    assert outcome == _pass_outcome(_reference_pass, flat, *args)
    labels, comm_strength, _active, gain = outcome
    assert labels == [1, 1, 1, 2, 2]
    assert comm_strength == [x.hex() for x in (0.0, 5.0, 5.0)]
    assert float.fromhex(gain) == pytest.approx(0.28, abs=1e-15)


def test_refine_noop_when_connected(two_triangles):
    p = Partition(two_triangles, [0, 0, 0, 1, 1, 1])
    out = leiden_refine(two_triangles, p)
    assert out is p
    assert out.labels == p.labels


def test_refine_splits_disconnected_community(two_triangles):
    p = Partition(two_triangles, [0] * 6)  # one community, two disjoint triangles
    out = leiden_refine(two_triangles, p)
    assert out.community_count == 2
    assert communities_connected(two_triangles, out.labels)


def test_refine_property_random_partitions():
    rnd = random.Random(77)
    for _ in range(60):
        g = make_random_graph(rnd, n_max=12)
        labels = [rnd.randrange(3) for _ in range(g.node_count)]
        out = leiden_refine(g, Partition(g, labels))
        assert communities_connected(g, out.labels)
        if g.total_weight > 0:
            assert modularity(g, out) >= modularity(g, Partition(g, labels)) - 1e-12


def test_leiden_connectivity_guarantee():
    rnd = random.Random(5)
    checked = 0
    while checked < 40:
        g = make_random_graph(rnd, n_max=24)
        if g.total_weight == 0:
            continue
        p = leiden(g, rnd.randrange(2**32))
        assert communities_connected(g, p.labels)
        checked += 1


def test_determinism():
    rnd = random.Random(15)
    g = make_random_graph(rnd, n_max=30)
    assert louvain(g, 99).labels == louvain(g, 99).labels
    assert leiden(g, 99).labels == leiden(g, 99).labels


def test_q_never_below_singletons():
    rnd = random.Random(8)
    for _ in range(20):
        g = make_random_graph(rnd, n_max=16)
        if g.total_weight == 0:
            continue
        q0 = modularity(g, singleton_partition(g))
        for detector in (louvain, leiden):
            assert modularity(g, detector(g, 1)) >= q0 - 1e-12


def test_equal_gain_tie_goes_to_lowest_community_id():
    # Node 0 links the symmetric pairs {1, 3} and {2, 4}, so joining either
    # gains the same. Node 1 comes first in node 0's CSR row but carries the
    # higher community id 2; node 0 must still join community 1.
    g = build_graph(5, *edge_columns([(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 4, 1.0)]))
    p = Partition(g, [0, 2, 1, 2, 1])
    for seed in range(8):
        out = one_pass(g, p, make_rng(seed))
        assert out.labels[0] == out.labels[2] != out.labels[1]


def test_seeded_pass_improves_initial(two_triangles):
    init = Partition(two_triangles, [0, 1, 0, 1, 0, 1])
    out = seeded_pass(two_triangles, init, make_rng(6), refine=True)
    assert modularity(two_triangles, out) == 0.5


def test_local_move_rng_argument(two_triangles):
    p = Partition(two_triangles, [0, 0, 1, 1, 2, 2])
    a = one_pass(two_triangles, p, make_rng(5))
    b = one_pass(two_triangles, p, make_rng(5))
    assert a.labels == b.labels


# The move loop's view of a graph: built once per graph, never shared,
# never changed, and gone with its graph.


def _planted_200():
    """The 200-node planted graph of the output-identity tests."""
    return generate_planted(PlantedSpec(200, 5, 0.2, 0.03, seed=11))[0]


def test_one_run_qicd_builds_the_level_0_view_once(monkeypatch):
    graph = _planted_200()
    builds, reads = [], []
    view, flat = qicd.detect._view, qicd.detect._flat

    def counted_view(g):
        builds.append(g is graph)
        return view(g)

    def counted_flat(g):
        reads.append(g is graph)
        return flat(g)

    monkeypatch.setattr(qicd.detect, "_view", counted_view)
    monkeypatch.setattr(qicd.detect, "_flat", counted_flat)
    run_qicd(graph, QicdConfig(kind="haar", iterations=4, stall_limit=4, refine_before_accept=True, seed=2))
    assert sum(reads) > 10
    assert sum(builds) == 1
    assert len(builds) > 1  # each aggregated level builds its own


def test_a_view_goes_with_its_graph():
    graph = _planted_200()
    leiden(graph, 1)
    nodes = weakref.ref(qicd.detect._VIEWS[graph][0])
    key = weakref.ref(graph)
    del graph
    gc.collect()
    assert key() is None
    assert nodes() is None


def test_graphs_of_one_size_never_share_a_view():
    # No other test makes a 57-node graph, so a lookup by node count could
    # only serve the first graph's view to the second.
    first, second = (generate_planted(PlantedSpec(57, 3, 0.5, 0.03, seed=seed))[0] for seed in (1, 2))
    move_nodes(first, singleton_partition(first), make_rng(3))
    got = move_nodes(second, singleton_partition(second), make_rng(3)).labels
    script = (
        "import json\n"
        "from qicd import PlantedSpec, generate_planted, make_rng, singleton_partition\n"
        "from qicd.detect import move_nodes\n"
        "g = generate_planted(PlantedSpec(57, 3, 0.5, 0.03, seed=2))[0]\n"
        "print(json.dumps(move_nodes(g, singleton_partition(g), make_rng(3)).labels))\n"
    )
    package_root = str(Path(qicd.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    fresh = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert fresh.returncode == 0, fresh.stderr
    assert got == json.loads(fresh.stdout)


def _snapshot(view):
    nodes, flat = view
    return [nodes.tolist(), *(x if isinstance(x, float) else list(x) for x in flat)]


@pytest.mark.parametrize("weighted", [False, True], ids=["equal", "distinct"])
def test_a_leiden_run_leaves_the_view_as_built(weighted):
    graph = _planted_200()
    if weighted:
        us, vs, _ws = graph.edge_arrays()
        graph = build_graph(graph.node_count, us, vs, np.random.default_rng(1).uniform(0.1, 3.0, len(us)))
    view = qicd.detect._cached(graph)
    assert isinstance(view[1][2], list) == weighted
    before = _snapshot(view)
    leiden(graph, 4)
    assert qicd.detect._cached(graph) is view
    assert _snapshot(view) == before
