"""Checks of qicd against routes that share no code with it.

networkx graphs are built from the same (u, v, w) triples that are passed
to build_graph, never from a qicd Graph, so a fault in graph construction
cannot hide in both sides. hypothesis draws the graphs, partitions,
groupings and active masks of the property checks.
"""

import itertools
import math
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qicd import (
    DetectorConfig,
    EdgeListError,
    Partition,
    aggregate,
    build_graph,
    degree_preserving_rewire,
    dump_edge_list,
    leiden,
    load_edge_list,
    modularity,
)
from qicd.detect import seeded_pass

from conftest import check_move_pass, collapse, communities_connected, reference_edge_list

PROPERTY = settings(max_examples=150, deadline=None, database=None)


@st.composite
def edge_lists(draw, min_edges=0, weights=st.floats(0.01, 100.0), min_nodes=2):
    """(n, triples) with distinct pairs in random orientation and order."""
    n = draw(st.integers(min_nodes, 10))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=min_edges, max_size=len(pairs), unique=True))
    triples = []
    for u, v in chosen:
        if draw(st.booleans()):
            u, v = v, u
        triples.append((u, v, draw(weights)))
    return n, triples


@st.composite
def labelled_graphs(draw):
    """(n, triples, labels) with at least one edge."""
    n, triples = draw(edge_lists(min_edges=1))
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return n, triples, labels


def nx_graph(n, triples):
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_weighted_edges_from(triples)
    return g


def communities(labels):
    groups = {}
    for node, c in enumerate(labels):
        groups.setdefault(c, set()).add(node)
    return list(groups.values())


@pytest.mark.parametrize("resolution", [1.0, 0.7])
@PROPERTY
@given(case=labelled_graphs())
def test_modularity_matches_networkx(case, resolution):
    n, triples, labels = case
    g = build_graph(n, triples)
    expected = nx.community.modularity(nx_graph(n, triples), communities(labels), weight="weight", resolution=resolution)
    assert modularity(g, Partition(g, labels), resolution) == pytest.approx(expected, abs=1e-12)


def _planted_triples(rnd, n=300, k=6, p_in=0.1, p_out=0.01):
    triples = []
    for u, v in itertools.combinations(range(n), 2):
        if rnd.random() < (p_in if u % k == v % k else p_out):
            triples.append((u, v, rnd.uniform(0.5, 2.0)))
    return triples


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_leiden_communities_are_connected_in_networkx(seed):
    triples = _planted_triples(random.Random(seed))
    g = build_graph(300, triples)
    reference = nx_graph(300, triples)
    part = leiden(g, DetectorConfig(seed=seed))
    assert part.community_count > 1
    for members in communities(part.labels):
        assert nx.is_connected(reference.subgraph(members))


# A K6 on 0-5; node 6 tied to each of them with weight 3 and to the
# triangles 7-8-9 and 10-11-12 by one edge each. From {0..5}, {6..12} the
# local moves pull node 6 into the K6 and leave the two triangles as one
# community with no edge between them.
SPLIT_TRIPLES = (
    [(u, v, 1.0) for u, v in itertools.combinations(range(6), 2)]
    + [(6, u, 3.0) for u in range(6)]
    + [(6, 7, 1.0), (6, 10, 1.0)]
    + [(u, v, 1.0) for t in (7, 10) for u, v in itertools.combinations(range(t, t + 3), 2)]
)


def test_leiden_split_reconnects_what_the_local_moves_leave_apart():
    g = build_graph(13, SPLIT_TRIPLES)
    reference = nx_graph(13, SPLIT_TRIPLES)
    initial = [0] * 6 + [1] * 7
    for seed in range(50):
        cfg = DetectorConfig(seed=seed)
        split = seeded_pass(g, Partition(g, initial), cfg, refine=True).labels
        assert communities_connected(g, split)
        assert all(nx.is_connected(reference.subgraph(members)) for members in communities(split))
        unsplit = seeded_pass(g, Partition(g, initial), cfg, refine=False).labels
        assert not communities_connected(g, unsplit)
        assert not all(nx.is_connected(reference.subgraph(members)) for members in communities(unsplit))


def csr_triples(graph):
    """(u, v, w) with u < v, read straight from the CSR arrays."""
    indptr, indices, weights = graph.indptr.tolist(), graph.indices.tolist(), graph.weights.tolist()
    return [
        (u, indices[k], weights[k])
        for u in range(graph.node_count)
        for k in range(indptr[u], indptr[u + 1])
        if u < indices[k]
    ]


@PROPERTY
@given(case=edge_lists(min_edges=2, min_nodes=4), seed=st.integers(0, 2**32), swap_factor=st.floats(0.1, 20.0))
def test_rewire_keeps_each_degree_and_weight_in_networkx(case, seed, swap_factor):
    n, triples = case
    g = build_graph(n, triples)
    null = degree_preserving_rewire(g, swap_factor, seed=seed)
    rewired = csr_triples(null)
    before, after = nx_graph(n, triples), nx_graph(n, rewired)
    assert after.number_of_edges() == len(rewired) == len(triples)  # no duplicate pairs
    assert nx.number_of_selfloops(after) == 0
    assert dict(after.degree()) == dict(before.degree())
    assert sorted(w for _u, _v, w in rewired) == sorted(w for _u, _v, w in triples)
    again = degree_preserving_rewire(g, swap_factor, seed=seed)
    for name in ("indptr", "indices", "weights"):
        assert np.array_equal(getattr(again, name), getattr(null, name)), name


@pytest.mark.parametrize("seed", [1, 2])
def test_rewire_moves_nearly_every_edge(seed):
    triples = _planted_triples(random.Random(seed))
    null = degree_preserving_rewire(build_graph(300, triples), 10.0, seed=seed)
    before = {frozenset((u, v)) for u, v, _w in triples}
    rewired = csr_triples(null)
    moved = sum(frozenset((u, v)) not in before for u, v, _w in rewired)
    assert moved >= 0.9 * len(rewired)


@PROPERTY
@given(case=edge_lists(weights=st.floats(1e-300, 1e300)))
def test_dump_load_round_trip_is_exact(case):
    n, triples = case
    g = build_graph(n, triples)
    back = load_edge_list(dump_edge_list(g))
    for name in ("indptr", "indices", "weights"):
        assert np.array_equal(getattr(back, name), getattr(g, name)), name
    assert back.strengths == g.strengths
    assert back.total_weight == g.total_weight


@st.composite
def repeated_edge_lists(draw, weights):
    """(n, triples) with pairs drawn with repeats, each repeat in a random
    orientation, in random order."""
    n = draw(st.integers(2, 10))
    pairs = draw(st.lists(st.sampled_from(list(itertools.combinations(range(n), 2))), max_size=60))
    triples = [(v, u) if draw(st.booleans()) else (u, v) for u, v in pairs]
    triples = [(u, v, draw(weights)) for u, v in draw(st.permutations(triples))]
    return n, triples


def reference_csr(n, triples):
    """build_graph(n, triples, merge_duplicates=True), one edge at a time:
    the CSR arrays (as lists), strengths and total weight."""
    merged: dict[tuple[int, int], float] = {}
    for u, v, w in triples:
        pair = (min(u, v), max(u, v))
        merged[pair] = merged[pair] + w if pair in merged else w
    rows: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for (u, v), w in merged.items():
        rows[u].append((v, w))
        rows[v].append((u, w))
    indptr, indices, weights = [0], [], []
    for row in rows:
        row.sort()
        indices += [v for v, _w in row]
        weights += [w for _v, w in row]
        indptr.append(len(indices))
    strengths = tuple(math.fsum(w for _v, w in row) for row in rows)
    return indptr, indices, weights, strengths, math.fsum(merged.values())


# Integer weights up to 2**50 put the total on either side of 2**52, where
# build_graph's strengths change route.
BUILD_WEIGHTS = {
    "fractional": st.floats(0.01, 100.0),
    "small-integer": st.integers(1, 3).map(float),
    "large-integer": st.integers(2**48, 2**50).map(float),
}


@pytest.mark.parametrize("merge", [False, True])
@pytest.mark.parametrize("weights", list(BUILD_WEIGHTS))
@PROPERTY
@given(data=st.data())
def test_build_graph_matches_an_edge_by_edge_adjacency(data, weights, merge):
    strategy = repeated_edge_lists if merge else edge_lists
    n, triples = data.draw(strategy(weights=BUILD_WEIGHTS[weights]))
    g = build_graph(n, triples, merge_duplicates=merge)
    indptr, indices, csr_weights, strengths, total_weight = reference_csr(n, triples)
    assert (g.indptr.tolist(), g.indices.tolist(), g.weights.tolist()) == (indptr, indices, csr_weights)
    assert g.strengths == strengths
    assert g.total_weight == total_weight


def reference_aggregate(graph, labels):
    """aggregate(graph, Partition(graph, labels)), one edge at a time: the
    collapsed CSR arrays (as lists), strengths, total and self weights.
    Each cross edge (lab[u], lab[v], w) is merged in edge_arrays order."""
    rank = {c: i for i, c in enumerate(sorted(set(labels)))}
    lab = [rank[c] for c in labels]
    internal = [0.0] * len(rank)
    cross = []
    us, vs, ws = graph.edge_arrays()
    for u, v, w in zip(us.tolist(), vs.tolist(), ws.tolist()):
        if lab[u] == lab[v]:
            internal[lab[u]] += w
        else:
            cross.append((lab[u], lab[v], w))
    if graph.self_weights is not None:
        own = [0.0] * len(rank)
        for u, w in enumerate(graph.self_weights):
            own[lab[u]] += w
        internal = [a + b for a, b in zip(internal, own)]
    indptr, indices, weights, strengths, total_weight = reference_csr(len(rank), cross)
    strengths = tuple(s + 2.0 * w for s, w in zip(strengths, internal))
    return indptr, indices, weights, strengths, total_weight + math.fsum(internal), tuple(internal)


@PROPERTY
@given(case=labelled_graphs(), data=st.data())
def test_aggregate_matches_an_edge_by_edge_merge(case, data):
    """One level and the aggregate of an aggregate, on fractional weights,
    whose sums change bits with the order of the additions."""
    n, triples, labels = case
    graph = build_graph(n, triples)
    for _level in range(2):
        collapsed = aggregate(graph, Partition(graph, labels))
        indptr, indices, weights, strengths, total_weight, self_weights = reference_aggregate(graph, labels)
        assert (collapsed.indptr.tolist(), collapsed.indices.tolist(), collapsed.weights.tolist()) == (
            indptr, indices, weights)
        assert collapsed.strengths == strengths
        assert collapsed.total_weight == total_weight
        assert collapsed.self_weights == self_weights
        graph = collapsed
        labels = data.draw(st.lists(st.integers(0, graph.node_count - 1), min_size=graph.node_count,
                                    max_size=graph.node_count))


# Malformed lines, each a different fault of the parser or of the graph.
BAD_LINES = [" # not column 1", "0 1 2 3", "7", "x 1", "0 -1", "0 1 abc", "0 1 nan", "0 1 -2", "3 3", "0 99", "0 1 0x10"]


@st.composite
def edge_list_texts(draw):
    """(text, relabel): edge-list text with comments, blank lines, mixed
    separators and line ends, optional weights and header, and at most one
    malformed line."""
    relabel = draw(st.booleans())
    ids = st.sampled_from(["a", "b", "c", "d", "é", "ß", "0", "10"]) if relabel else st.integers(0, 29).map(str)
    sep = st.sampled_from([" ", "\t", "  ", " \t", "\v", "\f"])
    pad = st.sampled_from(["", " ", "\t"])
    weight = st.one_of(st.just(""), st.floats(0.01, 100.0).map(repr), st.sampled_from(["2", "1e-3", "+1.5", "1_0.5"]))
    edge = st.builds(lambda p, u, s1, v, s2, w, q: p + u + s1 + v + (s2 + w if w else "") + q,
                     pad, ids, sep, ids, sep, weight, pad)
    other = st.sampled_from(["", " ", "\t", "# a comment", "#", "#nodes"])
    header = st.integers(28, 32).map(lambda k: f"# nodes: {k}")
    lines = draw(st.lists(st.one_of(edge, edge, edge, other, header), max_size=12))
    if draw(st.integers(0, 2)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(BAD_LINES)))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text, relabel


@PROPERTY
@given(case=edge_list_texts())
def test_load_edge_list_matches_a_line_by_line_parser(case):
    text, relabel = case
    try:
        expected = reference_edge_list(text, relabel)
    except ValueError as exc:
        with pytest.raises(EdgeListError) as got:
            load_edge_list(text, relabel=relabel)
        assert str(got.value).split(":")[0] == str(exc).split(":")[0]
        return
    loaded = load_edge_list(text, relabel=relabel)
    g, labels = loaded if relabel else (loaded, [])
    indptr, indices, weights, strengths, total_weight, ref_labels = expected
    assert (g.indptr.tolist(), g.indices.tolist(), g.weights.tolist()) == (indptr, indices, weights)
    assert g.strengths == strengths
    assert g.total_weight == total_weight
    assert labels == ref_labels


@st.composite
def move_cases(draw, collapsed):
    """check_move_pass arguments: a graph, or the graph collapsed by a
    drawn grouping (self weights included), with labels, an active mask,
    a seed and a resolution for one pass over it."""
    n, triples, labels = draw(labelled_graphs())
    original = build_graph(n, triples)
    graph, node_of = original, None
    if collapsed:
        graph, node_of = collapse(original, labels)
        labels = draw(st.lists(st.integers(0, n - 1), min_size=graph.node_count, max_size=graph.node_count))
    active = draw(st.lists(st.booleans(), min_size=graph.node_count, max_size=graph.node_count))
    return dict(graph=graph, labels=labels, active=active, original=original, node_of=node_of,
                seed=draw(st.integers(0, 2**32 - 1)), resolution=draw(st.sampled_from([1.0, 0.7])))


# Both properties check the pass's gain and its community strengths: the
# first on collapsed graphs, whose self weights count in every strength,
# the second on plain graphs.
@PROPERTY
@given(case=move_cases(collapsed=True))
def test_community_strengths_after_moves_match_a_fresh_partition(case):
    check_move_pass(**case)


@PROPERTY
@given(case=move_cases(collapsed=False))
def test_move_pass_gain_equals_the_change_in_q(case):
    check_move_pass(**case)
