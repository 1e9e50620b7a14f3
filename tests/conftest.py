"""Shared fixtures and independent test oracles.

The oracles here (double-sum modularity, set-partition enumeration, BFS
connectivity, a line-by-line edge-list parser) deliberately avoid the package's own aggregate-based
implementations so the two routes check each other. check_move_pass holds
the move kernel to them, and reference_move_pass keeps the kernel's earlier
loop, which it must match bit for bit.
"""

from __future__ import annotations

import itertools
import math
import random
import re
import tracemalloc
from collections import deque

import numpy as np
import pytest

from qicd import EdgeListError, Graph, Partition, aggregate, build_graph, calibrate_planted, generate_planted, make_rng
from qicd.detect import _flat, _move_pass


def edge_columns(triples):
    """The (us, vs, ws) columns that build_graph takes, of (u, v, w) triples."""
    us, vs, ws = zip(*triples) if triples else ((), (), ())
    return np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64), np.array(ws, dtype=np.float64)


def make_random_graph(rnd: random.Random, n_max: int = 8, weighted: bool = True) -> Graph:
    n = rnd.randint(2, n_max)
    p = rnd.uniform(0.2, 0.9)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rnd.random() < p:
                w = rnd.uniform(0.1, 3.0) if weighted else 1.0
                edges.append((i, j, w))
    return build_graph(n, *edge_columns(edges))


def traced_bytes(fn, *args) -> int:
    """Peak traced allocation of fn(*args), in bytes."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def modularity_double_sum(graph: Graph, labels) -> float:
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
                total += weight[i][j] - s[i] * s[j] / two_m
    return total / two_m


def collapse(graph: Graph, groups):
    """The graph collapsed by aggregate over the grouping `groups`, whose
    strengths count each group's inside weight twice, and the collapsed
    node of each original node."""
    grouping = Partition(graph, groups)
    return aggregate(graph, grouping), grouping.labels


def member_strengths(graph: Graph, partition: Partition) -> list[float]:
    """Each community's total member strength, a math.fsum over its members."""
    members: list[list[float]] = [[] for _ in range(partition.community_count)]
    for c, s in zip(partition.labels, graph.strengths.tolist()):
        members[c].append(s)
    return [math.fsum(strengths) for strengths in members]


def check_move_pass(graph: Graph, labels, seed: int, active=None, original: Graph | None = None, node_of=None):
    """Run one detect._move_pass from a fresh Partition over `labels`, with
    member_strengths as its community strengths, and check it by independent
    routes; returns its gain and the fresh Partition over the labels it ends
    with. The pass runs twice, with active as a list of bools and as a
    bytearray, and must end the same.

    `graph` may be `original` collapsed by `collapse`, with node_of[u] the
    collapsed node of original node u. The gain must equal the double-sum
    change in Q of the labels expanded onto `original`, within 1e-12, and
    the community strengths that the pass updates move by move must equal
    member_strengths of the labels it ends with, for every community that
    keeps a member.
    """
    original = original or graph
    node_of = node_of or range(graph.node_count)
    active = [True] * graph.node_count if active is None else list(active)
    start = Partition(graph, labels)
    moved = list(start.labels)
    comm_strength = member_strengths(graph, start)
    flags, moved_too, strengths_too = bytearray(active), list(moved), list(comm_strength)
    gain = _move_pass(_flat(graph), moved, comm_strength, make_rng(seed), active)
    # The same pass with the bytearray of flags that move_nodes passes.
    assert _move_pass(_flat(graph), moved_too, strengths_too, make_rng(seed), flags).hex() == gain.hex()
    assert (moved_too, strengths_too, list(flags)) == (moved, comm_strength, active)
    before = [start.labels[c] for c in node_of]
    after = [moved[c] for c in node_of]
    expected = modularity_double_sum(original, after) - modularity_double_sum(original, before)
    assert abs(gain - expected) < 1e-12, (gain, expected)
    fresh = Partition(graph, moved)
    kept = [comm_strength[c] for c in sorted(set(moved))]
    assert kept == pytest.approx(member_strengths(graph, fresh), rel=1e-12, abs=1e-9)
    return gain, fresh


def reference_move_pass(flat, labels, comm_strength, rng, resolution, active) -> float:
    """detect._move_pass as it was before its equal-weight tally: the same
    pass, reading one weight per CSR entry from a list and resetting the
    tally in a loop of its own. Its resolution is 1.0 in every comparison,
    the kernel's Newman-Girvan objective."""
    indptr, indices, weights, strengths, m = flat
    inv_m = 1.0 / m
    coef = resolution / (2.0 * m * m)
    weight_to = [0.0] * len(comm_strength)
    touched: list[int] = []
    gain = 0.0
    for u in rng.permutation(len(labels)).tolist():
        if not active[u]:
            continue
        active[u] = False
        lo = indptr[u]
        hi = indptr[u + 1]
        if lo == hi:
            continue
        nbrs = indices[lo:hi]
        a = labels[u]
        for v, w in zip(nbrs, weights[lo:hi]):
            c = labels[v]
            if weight_to[c] == 0.0:
                touched.append(c)
            weight_to[c] += w
        w_old = weight_to[a]
        s = strengths[u]
        base = comm_strength[a] - s
        k = coef * s
        best = a
        best_gain = 0.0
        for c in touched:
            if c == a:
                continue
            d = (weight_to[c] - w_old) * inv_m - k * (comm_strength[c] - base)
            if d > best_gain or (d == best_gain and d > 0.0 and c < best):
                best_gain = d
                best = c
        if best != a:
            comm_strength[a] = base
            comm_strength[best] += s
            labels[u] = best
            gain += best_gain
            for v in nbrs:
                if labels[v] != best:
                    active[v] = True
        for c in touched:
            weight_to[c] = 0.0
        touched.clear()
    return gain


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


def _parsed(kind, token: bytes):
    """kind(token), or None where kind rejects it."""
    try:
        return kind(token)
    except ValueError:
        return None


def reference_edge_list(text: bytes, relabel: bool = False, merge_duplicates: bool = False):
    """The README's edge-list grammar, read one line at a time with
    bytes.splitlines, split, int and float: the CSR arrays (as lists),
    strengths, total weight and labels of the graph, or the EdgeListError
    that load_edge_list raises. Its faults come in this order: bytes that
    are not UTF-8; then line by line a NUL byte, a field count other than 2
    or 3, an id that int() rejects, a negative id and a weight that float()
    rejects; then a node count too large; then edge by edge an endpoint out
    of range, a self-loop, a weight not finite and positive, and a
    duplicate; last, weights whose sum, or twice it, leaves the float range."""
    try:
        (text + b"\n").decode("utf-8")
    except UnicodeDecodeError as exc:
        before = text[: exc.start]
        line = before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n") + 1
        raise EdgeListError(f"line {line}: {exc}") from None
    header = header_line = None
    edges = []  # (line, u, v, w), with u and v as ints or, under relabel, as label bytes
    for k, line in enumerate(text.splitlines(), start=1):
        if line.startswith(b"#"):
            found = re.fullmatch(rb"#\s*nodes:\s*(\d+)\s*", line)
            header, header_line = (int(found[1]), k) if found else (header, header_line)
            continue
        fields = line.split()
        if not fields:
            continue
        ids = fields[:2] if relabel else [_parsed(int, field) for field in fields[:2]]
        w = _parsed(float, fields[2]) if len(fields) == 3 else 1.0
        fault = (
            "NUL byte in" if b"\0" in line
            else "expected 'u v' or 'u v w', got" if len(fields) not in (2, 3)
            else "node ids must be integers:" if None in ids
            else "node ids must be non-negative:" if not relabel and min(ids) < 0
            else "bad weight:" if w is None
            else None
        )
        if fault:
            raise EdgeListError(f"line {k}: {fault} {line.decode()!r}")
        edges.append((k, *ids, w))
    labels: dict[bytes, int] = {}
    if relabel:
        edges = [(k, labels.setdefault(u, len(labels)), labels.setdefault(v, len(labels)), w) for k, u, v, w in edges]
        n = len(labels)
    elif header is not None:
        n = header
    else:
        # The count is the largest id plus one; the first line holding that id is named.
        top = max(((max(u, v), -i, k) for i, (k, u, v, _w) in enumerate(edges)), default=(-1, 0, None))
        n, header_line = top[0] + 1, top[2]
    if n > math.isqrt(2**63 - 1):
        raise EdgeListError(f"line {header_line}: node count {n} is too large")
    pairs: dict[tuple[int, int], float] = {}
    for k, u, v, w in edges:
        if not (u < n and v < n):
            raise EdgeListError(f"line {k}: endpoint out of range for n={n}: ({u}, {v})")
        if u == v:
            raise EdgeListError(f"line {k}: self-loop at node {u}")
        if not (math.isfinite(w) and w > 0):
            raise EdgeListError(f"line {k}: weight must be finite and positive, got {w}")
        pair = (min(u, v), max(u, v))
        if pair in pairs and not merge_duplicates:
            raise EdgeListError(f"line {k}: duplicate edge {pair[0]}-{pair[1]}")
        pairs[pair] = pairs.get(pair, 0.0) + w
    try:
        total = math.fsum(pairs.values())
    except OverflowError:
        total = math.inf
    if not math.isfinite(2.0 * total):
        running = 0.0
        for k, _u, _v, w in edges:
            running += w
            if math.isinf(running * (1.0 if math.isinf(total) else 2.0)):
                break
        raise EdgeListError(f"line {k}: the edge weights sum past the float range")
    adjacency: list[dict[int, float]] = [{} for _ in range(n)]
    for (u, v), w in pairs.items():
        adjacency[u][v] = adjacency[v][u] = w
    rows = [sorted(nbrs.items()) for nbrs in adjacency]
    indptr = [0, *itertools.accumulate(len(row) for row in rows)]
    indices, weights = [v for row in rows for v, _w in row], [w for row in rows for _v, w in row]
    strengths = [math.fsum(nbrs.values()) for nbrs in adjacency]
    return indptr, indices, weights, strengths, total, [label.decode() for label in labels]


TRIANGLE_EDGES = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]
TWO_TRIANGLES_EDGES = TRIANGLE_EDGES + [(3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0)]


@pytest.fixture(scope="session")
def two_triangles() -> Graph:
    return build_graph(6, *edge_columns(TWO_TRIANGLES_EDGES))


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
