"""Shared fixtures and independent test oracles.

The oracles here (double-sum modularity, set-partition enumeration, BFS
connectivity, a line-by-line edge-list parser) deliberately avoid the package's own aggregate-based
implementations so the two routes check each other. check_move_pass holds
the move kernel to them.
"""

from __future__ import annotations

import math
import random
import re
import tracemalloc
from collections import deque

import pytest

from qicd import Graph, Partition, aggregate, build_graph, calibrate_planted, generate_planted, make_rng
from qicd.detect import _flat, _move_pass


def make_random_graph(rnd: random.Random, n_max: int = 8, weighted: bool = True) -> Graph:
    n = rnd.randint(2, n_max)
    p = rnd.uniform(0.2, 0.9)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rnd.random() < p:
                w = rnd.uniform(0.1, 3.0) if weighted else 1.0
                edges.append((i, j, w))
    return build_graph(n, edges)


def traced_bytes(fn, *args) -> int:
    """Peak traced allocation of fn(*args), in bytes."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def modularity_double_sum(graph: Graph, labels, resolution: float = 1.0) -> float:
    """Direct double-sum evaluation over all node pairs (including i == j)."""
    n = graph.node_count
    m = graph.total_weight
    weight = [[0.0] * n for _ in range(n)]
    us, vs, ws = graph.edge_arrays()
    for u, v, w in zip(us.tolist(), vs.tolist(), ws.tolist()):
        weight[u][v] = w
        weight[v][u] = w
    s = graph.strengths
    two_m = 2.0 * m
    total = 0.0
    for i in range(n):
        for j in range(n):
            if labels[i] == labels[j]:
                total += weight[i][j] - resolution * s[i] * s[j] / two_m
    return total / two_m


def collapse(graph: Graph, groups):
    """The graph collapsed by aggregate over the grouping `groups`, which
    carries self weights, and the collapsed node of each original node."""
    grouping = Partition(graph, groups)
    return aggregate(graph, grouping), grouping.labels


def check_move_pass(graph: Graph, labels, seed: int, resolution: float = 1.0, active=None,
                    original: Graph | None = None, node_of=None):
    """Run one detect._move_pass on the lists of a fresh Partition over
    `labels` and check it by independent routes; returns its gain and the
    fresh Partition over the labels it ends with.

    `graph` may be `original` collapsed by `collapse`, with node_of[u] the
    collapsed node of original node u. The gain must equal the double-sum
    change in Q of the labels expanded onto `original`, within 1e-12, and
    the community strengths that the pass updates move by move must equal
    a fresh Partition's for every community that keeps a member.
    """
    original = original or graph
    node_of = node_of or range(graph.node_count)
    active = [True] * graph.node_count if active is None else list(active)
    start = Partition(graph, labels)
    moved = list(start.labels)
    comm_strength = list(start.community_strength)
    gain = _move_pass(_flat(graph), moved, comm_strength, make_rng(seed), resolution, active)
    before = [start.labels[c] for c in node_of]
    after = [moved[c] for c in node_of]
    expected = modularity_double_sum(original, after, resolution) - modularity_double_sum(original, before, resolution)
    assert abs(gain - expected) < 1e-12, (gain, expected)
    fresh = Partition(graph, moved)
    kept = [comm_strength[c] for c in sorted(set(moved))]
    assert kept == pytest.approx(fresh.community_strength, rel=1e-12, abs=1e-9)
    return gain, fresh


def iter_set_partitions(n: int):
    """All set partitions of range(n) as restricted-growth label lists."""
    if n == 0:
        yield []
        return
    a = [0] * n
    while True:
        yield list(a)
        j = n - 1
        while j > 0 and a[j] > max(a[:j]):
            j -= 1
        if j == 0:
            return
        a[j] += 1
        for k in range(j + 1, n):
            a[k] = 0


def communities_connected(graph: Graph, labels) -> bool:
    """Independent BFS check that every community induces a connected subgraph."""
    groups: dict[int, list[int]] = {}
    for node, c in enumerate(labels):
        groups.setdefault(c, []).append(node)
    for nodes in groups.values():
        members = set(nodes)
        seen = {nodes[0]}
        queue = deque([nodes[0]])
        while queue:
            u = queue.popleft()
            for v in graph.indices[graph.indptr[u] : graph.indptr[u + 1]].tolist():
                if v in members and v not in seen:
                    seen.add(v)
                    queue.append(v)
        if len(seen) != len(members):
            return False
    return True


def reference_edge_list(text: str, relabel: bool = False):
    """The README's edge-list grammar, read one line at a time: the CSR
    arrays (as lists), strengths, total weight and labels of the graph, or
    a ValueError whose message starts with the line of the first fault."""
    labels: dict[str, int] = {}
    header = None
    edges = []  # (line, u, v, w)
    for lineno, line in enumerate(re.split(r"\r\n|\r|\n", text), start=1):
        if line.startswith("#"):
            found = re.fullmatch(rb"#\s*nodes:\s*(\d+)\s*", line.encode())
            header = int(found[1]) if found else header
            continue
        fields = [f for f in re.split("[ \t\v\f]", line) if f]
        if not fields:
            continue
        try:
            if len(fields) not in (2, 3):
                raise ValueError("field count")
            if relabel:
                u, v = (labels.setdefault(f, len(labels)) for f in fields[:2])
            else:
                u, v = (int(f.encode()) for f in fields[:2])
                if min(u, v) < 0:
                    raise ValueError("negative id")
            w = float(fields[2].encode()) if len(fields) == 3 else 1.0
        except ValueError:
            raise ValueError(f"line {lineno}: parse") from None
        edges.append((lineno, u, v, w))
    if relabel:
        n = len(labels)
    else:
        n = header if header is not None else max((max(u, v) for _l, u, v, _w in edges), default=-1) + 1
    adjacency: list[dict[int, float]] = [{} for _ in range(n)]
    for lineno, u, v, w in edges:
        if not (0 <= u < n and 0 <= v < n) or u == v or v in adjacency[u] or not (math.isfinite(w) and w > 0):
            raise ValueError(f"line {lineno}: edge")
        adjacency[u][v] = adjacency[v][u] = w
    indptr, indices, weights = [0], [], []
    for nbrs in adjacency:
        indices.extend(sorted(nbrs))
        weights.extend(nbrs[v] for v in sorted(nbrs))
        indptr.append(len(indices))
    strengths = tuple(math.fsum(nbrs.values()) for nbrs in adjacency)
    return indptr, indices, weights, strengths, math.fsum(w for *_, w in edges), list(labels)


TRIANGLE_EDGES = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]
TWO_TRIANGLES_EDGES = TRIANGLE_EDGES + [(3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0)]


@pytest.fixture(scope="session")
def two_triangles() -> Graph:
    return build_graph(6, TWO_TRIANGLES_EDGES)


# Weak planted benchmark used by the uplift and significance checks: a
# 2000-node graph calibrated so plain Leiden lands near Q = 0.13 while the
# planted structure is still recoverable. Session-scoped because the
# calibration runs a bisection of Leiden evaluations.
UPLIFT_CALIBRATION = dict(n=2000, k=20, target_q=0.13, tolerance=0.005, avg_degree=60.0, seed=1234)


@pytest.fixture(scope="session")
def weak_planted_graph():
    spec, achieved = calibrate_planted(
        UPLIFT_CALIBRATION["n"],
        UPLIFT_CALIBRATION["k"],
        UPLIFT_CALIBRATION["target_q"],
        UPLIFT_CALIBRATION["tolerance"],
        avg_degree=UPLIFT_CALIBRATION["avg_degree"],
        seed=UPLIFT_CALIBRATION["seed"],
    )
    graph, truth = generate_planted(spec)
    return graph, truth, achieved


@pytest.fixture(scope="session")
def strong_planted_graph():
    spec, achieved = calibrate_planted(400, 8, 0.65, 0.02, avg_degree=20.0, seed=99)
    graph, _truth = generate_planted(spec)
    return graph, achieved
