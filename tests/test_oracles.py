"""Checks of qicd against routes that share no code with it.

networkx graphs are built from the same (u, v, w) triples that are passed
to build_graph, never from a qicd Graph, so a fault in graph construction
cannot hide in both sides. hypothesis draws the graphs, partitions and
move sequences of the property checks.
"""

import itertools
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qicd import (
    NEW_COMMUNITY,
    DetectorConfig,
    Partition,
    build_graph,
    delta_q_move,
    dump_edge_list,
    leiden,
    load_edge_list,
    modularity,
)

PROPERTY = settings(max_examples=150, deadline=None, database=None)


@st.composite
def edge_lists(draw, min_edges=0, weights=st.floats(0.01, 100.0)):
    """(n, triples) with distinct pairs in random orientation and order."""
    n = draw(st.integers(2, 10))
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


@PROPERTY
@given(case=labelled_graphs(), data=st.data())
def test_aggregates_after_moves_match_a_fresh_partition(case, data):
    n, triples, labels = case
    g = build_graph(n, triples)
    part = Partition(g, labels)
    for _ in range(data.draw(st.integers(1, 20))):
        node = data.draw(st.integers(0, n - 1))
        part.apply_move(g, node, data.draw(st.sampled_from([NEW_COMMUNITY, *range(part.community_count)])))
    part.compact()
    fresh = Partition(g, part.labels)
    assert part.labels == fresh.labels
    assert part.community_count == fresh.community_count
    assert part.sizes == fresh.sizes
    assert part.internal_weight == pytest.approx(fresh.internal_weight, rel=1e-12, abs=1e-9)
    assert part.community_strength == pytest.approx(fresh.community_strength, rel=1e-12, abs=1e-9)


@PROPERTY
@given(case=labelled_graphs(), data=st.data())
def test_delta_q_move_equals_the_change_in_q(case, data):
    n, triples, labels = case
    g = build_graph(n, triples)
    part = Partition(g, labels)
    node = data.draw(st.integers(0, n - 1))
    target = data.draw(st.sampled_from([NEW_COMMUNITY, *range(part.community_count)]))
    moved = part.copy()
    moved.apply_move(g, node, target)
    moved.compact()
    assert delta_q_move(g, part, node, target) == pytest.approx(modularity(g, moved) - modularity(g, part), abs=1e-12)
