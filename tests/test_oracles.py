"""Checks of qicd against routes that share no code with it.

networkx graphs are built from the same (u, v, w) triples whose columns
are passed to build_graph, never from a qicd Graph, so a fault in graph construction
cannot hide in both sides. hypothesis draws the graphs, partitions,
groupings and active masks of the property checks.
"""

import itertools
import math
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qicd import (
    EdgeListError,
    Partition,
    aggregate,
    build_graph,
    degree_preserving_rewire,
    dump_edge_list,
    leiden,
    load_edge_list,
    make_rng,
    modularity,
)
from qicd.detect import seeded_pass

from conftest import check_move_pass, collapse, communities_connected, edge_columns, reference_edge_list

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


@PROPERTY
@given(case=labelled_graphs())
def test_modularity_matches_networkx(case):
    n, triples, labels = case
    g = build_graph(n, *edge_columns(triples))
    expected = nx.community.modularity(nx_graph(n, triples), communities(labels), weight="weight")
    assert modularity(g, Partition(g, labels)) == pytest.approx(expected, abs=1e-12)


def _planted_triples(rnd, n=300, k=6, p_in=0.1, p_out=0.01):
    triples = []
    for u, v in itertools.combinations(range(n), 2):
        if rnd.random() < (p_in if u % k == v % k else p_out):
            triples.append((u, v, rnd.uniform(0.5, 2.0)))
    return triples


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_leiden_communities_are_connected_in_networkx(seed):
    triples = _planted_triples(random.Random(seed))
    g = build_graph(300, *edge_columns(triples))
    reference = nx_graph(300, triples)
    part = leiden(g, seed)
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
    g = build_graph(13, *edge_columns(SPLIT_TRIPLES))
    reference = nx_graph(13, SPLIT_TRIPLES)
    initial = [0] * 6 + [1] * 7
    for seed in range(50):
        split = seeded_pass(g, Partition(g, initial), make_rng(seed), refine=True).labels
        assert communities_connected(g, split)
        assert all(nx.is_connected(reference.subgraph(members)) for members in communities(split))
        unsplit = seeded_pass(g, Partition(g, initial), make_rng(seed), refine=False).labels
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
@given(case=edge_lists(min_edges=2, min_nodes=4), seed=st.integers(0, 2**32))
def test_rewire_keeps_each_degree_and_weight_in_networkx(case, seed):
    n, triples = case
    g = build_graph(n, *edge_columns(triples))
    null = degree_preserving_rewire(g, seed=seed)
    rewired = csr_triples(null)
    before, after = nx_graph(n, triples), nx_graph(n, rewired)
    assert after.number_of_edges() == len(rewired) == len(triples)  # no duplicate pairs
    assert nx.number_of_selfloops(after) == 0
    assert dict(after.degree()) == dict(before.degree())
    assert sorted(w for _u, _v, w in rewired) == sorted(w for _u, _v, w in triples)
    again = degree_preserving_rewire(g, seed=seed)
    for name in ("indptr", "indices", "weights"):
        assert np.array_equal(getattr(again, name), getattr(null, name)), name


@pytest.mark.parametrize("seed", [1, 2])
def test_rewire_moves_nearly_every_edge(seed):
    triples = _planted_triples(random.Random(seed))
    null = degree_preserving_rewire(build_graph(300, *edge_columns(triples)), seed=seed)
    before = {frozenset((u, v)) for u, v, _w in triples}
    rewired = csr_triples(null)
    moved = sum(frozenset((u, v)) not in before for u, v, _w in rewired)
    assert moved >= 0.9 * len(rewired)


@PROPERTY
@given(case=edge_lists(weights=st.floats(1e-300, 1e300)))
def test_dump_load_round_trip_is_exact(case):
    n, triples = case
    g = build_graph(n, *edge_columns(triples))
    back = load_edge_list(dump_edge_list(g))
    for name in ("indptr", "indices", "weights"):
        assert np.array_equal(getattr(back, name), getattr(g, name)), name
    assert back.strengths.tolist() == g.strengths.tolist()
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
    """build_graph(n, *edge_columns(triples), merge_duplicates=True), one
    edge at a time: the CSR arrays (as lists), strengths and total weight."""
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
    strengths = [math.fsum(w for _v, w in row) for row in rows]
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
    g = build_graph(n, *edge_columns(triples), merge_duplicates=merge)
    indptr, indices, csr_weights, strengths, total_weight = reference_csr(n, triples)
    assert (g.indptr.tolist(), g.indices.tolist(), g.weights.tolist()) == (indptr, indices, csr_weights)
    assert g.strengths.tolist() == strengths
    assert g.total_weight == total_weight


@pytest.mark.parametrize("merge", [False, True])
@pytest.mark.parametrize("weights", ["unit", *BUILD_WEIGHTS])
@PROPERTY
@given(data=st.data())
def test_build_graph_rebuilds_a_graph_from_its_edge_arrays(data, weights, merge):
    """build_graph(n, *g.edge_arrays()) is g, bit for bit, whether g was
    built from distinct pairs or by merging repeated ones."""
    strategy = repeated_edge_lists if merge else edge_lists
    n, triples = data.draw(strategy(weights=st.just(1.0) if weights == "unit" else BUILD_WEIGHTS[weights]))
    g = build_graph(n, *edge_columns(triples), merge_duplicates=merge)
    again = build_graph(n, *g.edge_arrays())
    for name in ("indptr", "indices", "weights", "strengths"):
        a, b = getattr(again, name), getattr(g, name)
        assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), name
    assert again.total_weight.hex() == g.total_weight.hex()


def reference_aggregate(graph, labels):
    """aggregate(graph, Partition(graph, labels)), one edge at a time: the
    collapsed CSR arrays (as lists), strengths and total weight. Each cross
    edge (lab[u], lab[v], w) is merged in edge_arrays order; each member's
    strength is added to its community's in node order, and the total is
    the graph's own."""
    rank = {c: i for i, c in enumerate(sorted(set(labels)))}
    lab = [rank[c] for c in labels]
    us, vs, ws = graph.edge_arrays()
    cross = [(lab[u], lab[v], w) for u, v, w in zip(us.tolist(), vs.tolist(), ws.tolist()) if lab[u] != lab[v]]
    indptr, indices, weights = reference_csr(len(rank), cross)[:3]
    strengths = [0.0] * len(rank)
    for u, s in enumerate(graph.strengths.tolist()):
        strengths[lab[u]] += s
    return indptr, indices, weights, strengths, graph.total_weight


@PROPERTY
@given(case=labelled_graphs(), data=st.data())
def test_aggregate_matches_an_edge_by_edge_merge(case, data):
    """One level and the aggregate of an aggregate, on fractional weights,
    whose sums change bits with the order of the additions."""
    n, triples, labels = case
    graph = build_graph(n, *edge_columns(triples))
    for _level in range(2):
        collapsed = aggregate(graph, Partition(graph, labels))
        indptr, indices, weights, strengths, total_weight = reference_aggregate(graph, labels)
        assert (collapsed.indptr.tolist(), collapsed.indices.tolist(), collapsed.weights.tolist()) == (
            indptr, indices, weights)
        assert collapsed.strengths.tolist() == strengths
        assert collapsed.total_weight == total_weight
        graph = collapsed
        labels = data.draw(st.lists(st.integers(0, graph.node_count - 1), min_size=graph.node_count,
                                    max_size=graph.node_count))


# Fields and lines of the README's grammar. Each text draws from the plain
# ones and a few odd ones: ids past int64, tokens that int() or float()
# rejects, non-UTF-8 bytes, a NUL, weights that are not finite and positive
# or that sum past the float range, and malformed lines. Fields come in
# three widths: up to 18 bytes, 19 to 64 (20-digit ids among them) and over
# 64, where the parser's cast gives way to int() and float() one token at
# a time. Under relabel every id is a label.
IDS = [b"%d" % i for i in range(20)]
ODD_IDS = [b"+3", b"1_0", b"30", b"-1", b"x", b"1e3", b"\xc3\xa9", b"\xff", b"1\0", b"99999999999999999999",
           b"-99999999999999999999", b"9223372036854775807", b"1" * 19 + b"x", b"0" * 68 + b"12", b"a" * 70]
WEIGHTS = [b"", b"1", b"2.5", b"0.5", b"+1.5", b"1_0.5", b"1e-3", b"1." + b"0" * 68]
ODD_WEIGHTS = [b"1e308", b"5e307", b"nan", b"inf", b"-1", b"0", b"x", b"2\0", b"x" * 70]
LINES = [b"", b" ", b"\t", b"# c", b"#", b"#nodes:20 ", b"# nodes: 3 x", b"# nodes: 25"]
ODD_LINES = [b"# nodes: 0", b"# nodes: 5", b"# nodes: 99999999999999999999", b" # not column 1", b"7", b"0 1 2 3"]


@st.composite
def edge_list_texts(draw):
    """Edge-list bytes: edge lines of drawn fields, separators and padding,
    between other lines, with all three line ends."""

    def mixed(plain, odd):
        return st.sampled_from(plain + draw(st.lists(st.sampled_from(odd), max_size=3)))

    ids, weight = mixed(IDS, ODD_IDS), mixed(WEIGHTS, ODD_WEIGHTS)
    sep = st.sampled_from([b" ", b"\t", b"  ", b" \t", b"\v", b"\f"])
    pad = st.sampled_from([b"", b" ", b"\t"])
    edge = st.builds(lambda p, u, s1, v, s2, w, q: p + u + s1 + v + (s2 + w if w else b"") + q,
                     pad, ids, sep, ids, sep, weight, pad)
    lines = draw(st.lists(st.one_of(edge, edge, mixed(LINES, ODD_LINES)), max_size=12))
    ends = draw(st.lists(st.sampled_from([b"\n", b"\r\n", b"\r"]), min_size=len(lines), max_size=len(lines)))
    text = b"".join(line + end for line, end in zip(lines, ends))
    return text.rstrip(b"\r\n") if draw(st.booleans()) else text


@PROPERTY
@example(text=b"# nodes: 5\n12 x\n")
@example(text=b"# nodes: 1\n12 1\0\n")
@given(text=edge_list_texts())
def test_load_edge_list_matches_a_line_by_line_parser(text):
    """With relabel and merge_duplicates each on and off, the loader gives
    the reference's graph and labels, or its error message."""
    for relabel, merge_duplicates in itertools.product((False, True), repeat=2):
        try:
            expected = reference_edge_list(text, relabel, merge_duplicates)
        except EdgeListError as exc:
            expected = str(exc)
        try:
            loaded = load_edge_list(text, relabel=relabel, merge_duplicates=merge_duplicates)
        except EdgeListError as exc:
            got = str(exc)
        else:
            g, labels = loaded if relabel else (loaded, [])
            got = (g.indptr.tolist(), g.indices.tolist(), g.weights.tolist(), g.strengths.tolist(), g.total_weight, labels)
        assert got == expected, (relabel, merge_duplicates)


@st.composite
def move_cases(draw, collapsed):
    """check_move_pass arguments: a graph, or the graph collapsed by a
    drawn grouping (inside weights in its strengths), with labels, an active mask
    and a seed for one pass over it."""
    n, triples, labels = draw(labelled_graphs())
    original = build_graph(n, *edge_columns(triples))
    graph, node_of = original, None
    if collapsed:
        graph, node_of = collapse(original, labels)
        labels = draw(st.lists(st.integers(0, n - 1), min_size=graph.node_count, max_size=graph.node_count))
    active = draw(st.lists(st.booleans(), min_size=graph.node_count, max_size=graph.node_count))
    return dict(graph=graph, labels=labels, active=active, original=original, node_of=node_of,
                seed=draw(st.integers(0, 2**32 - 1)))


# Both properties check the pass's gain and its community strengths: the
# first on collapsed graphs, whose strengths count their inside weights,
# the second on plain graphs.
@PROPERTY
@given(case=move_cases(collapsed=True))
def test_community_strengths_after_moves_match_a_fresh_partition(case):
    check_move_pass(**case)


@PROPERTY
@given(case=move_cases(collapsed=False))
def test_move_pass_gain_equals_the_change_in_q(case):
    check_move_pass(**case)
