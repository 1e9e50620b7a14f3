"""Partitions of a graph's nodes and the modularity machinery over them.

A Partition stores one community label per node plus per-community
aggregates (internal edge weight and total member strength) so that
modularity is O(C) and single-node move gains are O(deg).

aggregate collapses each community into one node. The collapsed graph
carries each community's internal weight as that node's self weight,
which counts in its strengths and total weight, so modularity of a
partition on the collapsed graph equals modularity of the expanded
partition on the original graph.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np

from .graph import Graph, build_graph

# Sentinel target for delta_q_move/apply_move: detach the node into a brand
# new singleton community.
NEW_COMMUNITY = -1


def _neighbours(graph: Graph, node: int):
    """(neighbour, weight) pairs of one node, in CSR order."""
    lo, hi = graph.indptr[node], graph.indptr[node + 1]
    return zip(graph.indices[lo:hi].tolist(), graph.weights[lo:hi].tolist())


class Partition:
    """Community labels over a fixed graph, with consistent aggregates."""

    __slots__ = ("labels", "community_count", "internal_weight", "community_strength", "sizes")

    def __init__(self, graph: Graph, labels: Sequence[int]):
        n = graph.node_count
        if len(labels) != n:
            raise ValueError(f"labels cover {len(labels)} nodes, graph has {n}")

        # Compact arbitrary non-negative labels to dense 0..C-1, preserving
        # the relative order of label values.
        raw = np.asarray(labels, dtype=np.int64)
        if raw.ndim != 1:
            raise ValueError("labels must be a flat sequence of ints")
        if n and raw.min() < 0:
            raise ValueError("community labels must be non-negative")
        _uniq, dense = np.unique(raw, return_inverse=True)
        c_count = len(_uniq)
        self.labels = dense.tolist()
        self.community_count = c_count

        us, vs, ws = graph.edge_arrays()
        lab_u = dense[us]
        same = lab_u == dense[vs]
        internal = np.bincount(lab_u[same], weights=ws[same], minlength=c_count)
        if graph.self_weights is not None:
            internal = internal + np.bincount(
                dense, weights=np.asarray(graph.self_weights), minlength=c_count
            )
        strength = np.bincount(
            dense, weights=np.asarray(graph.strengths, dtype=np.float64), minlength=c_count
        )
        self.internal_weight = internal.tolist()
        self.community_strength = strength.tolist()
        self.sizes = np.bincount(dense, minlength=c_count).tolist()

    def copy(self) -> "Partition":
        out = object.__new__(Partition)
        out.labels = list(self.labels)
        out.community_count = self.community_count
        out.internal_weight = list(self.internal_weight)
        out.community_strength = list(self.community_strength)
        out.sizes = list(self.sizes)
        return out

    def apply_move(self, graph: Graph, node: int, target: int) -> int:
        """Relabel one node, updating aggregates in O(deg(node)).

        target may be NEW_COMMUNITY to detach the node into a fresh
        singleton. May leave an empty community behind; call compact()
        once a batch of moves is done. Returns the concrete target id.
        """
        a = self.labels[node]
        if target == NEW_COMMUNITY:
            target = self.community_count
            self.community_count += 1
            self.internal_weight.append(0.0)
            self.community_strength.append(0.0)
            self.sizes.append(0)
        elif not (0 <= target < self.community_count):
            raise ValueError(f"invalid target community {target}")
        if target == a:
            return a
        w_old = 0.0
        w_new = 0.0
        lab = self.labels
        for v, w in _neighbours(graph, node):
            c = lab[v]
            if c == a:
                w_old += w
            elif c == target:
                w_new += w
        own = graph.self_weights[node] if graph.self_weights is not None else 0.0
        s = graph.strengths[node]
        self.internal_weight[a] -= w_old + own
        self.internal_weight[target] += w_new + own
        self.community_strength[a] -= s
        self.community_strength[target] += s
        self.sizes[a] -= 1
        self.sizes[target] += 1
        lab[node] = target
        return target

    def compact(self) -> "Partition":
        """Drop empty communities and renumber densely (stable order)."""
        if all(size > 0 for size in self.sizes):
            return self
        remap: dict[int, int] = {}
        for c, size in enumerate(self.sizes):
            if size > 0:
                remap[c] = len(remap)
        self.labels = [remap[c] for c in self.labels]
        keep = sorted(remap)
        self.internal_weight = [self.internal_weight[c] for c in keep]
        self.community_strength = [self.community_strength[c] for c in keep]
        self.sizes = [self.sizes[c] for c in keep]
        self.community_count = len(keep)
        return self


def singleton_partition(graph: Graph) -> Partition:
    return Partition(graph, list(range(graph.node_count)))


def community_members(partition: Partition) -> list[list[int]]:
    """Member node ids per community, each list in ascending order."""
    out: list[list[int]] = [[] for _ in range(partition.community_count)]
    for node, c in enumerate(partition.labels):
        out[c].append(node)
    return out


def modularity(graph: Graph, partition: Partition, resolution: float = 1.0) -> float:
    """Modularity Q of the partition, in [-1, 1].

    Q = sum_c [ e_c / m - resolution * (S_c / 2m)^2 ] with e_c the internal
    weight, S_c the total member strength, and m the graph's total weight.
    resolution=1 is the classic definition.
    """
    if len(partition.labels) != graph.node_count:
        raise ValueError("partition does not cover this graph")
    m = graph.total_weight
    if m <= 0.0:
        raise ValueError("modularity undefined: graph has no edges")
    two_m = 2.0 * m
    q = 0.0
    for c in range(partition.community_count):
        if partition.sizes[c] == 0:
            continue
        frac = partition.community_strength[c] / two_m
        q += partition.internal_weight[c] / m - resolution * frac * frac
    return q


def delta_q_move(
    graph: Graph,
    partition: Partition,
    node: int,
    target: int,
    resolution: float = 1.0,
) -> float:
    """Modularity change from relabeling one node, without recomputing Q.

    target is an existing community id or NEW_COMMUNITY. Equals
    modularity(after) - modularity(before) up to rounding; moving a node to
    its current community is exactly 0.
    """
    if not (0 <= node < graph.node_count):
        raise ValueError(f"node {node} out of range")
    a = partition.labels[node]
    new_singleton = target == NEW_COMMUNITY
    if not new_singleton and not (0 <= target < partition.community_count):
        raise ValueError(f"invalid target community {target}")
    if not new_singleton and target == a:
        return 0.0
    w_old = 0.0
    w_new = 0.0
    lab = partition.labels
    for v, w in _neighbours(graph, node):
        c = lab[v]
        if c == a:
            w_old += w
        elif not new_singleton and c == target:
            w_new += w
    m = graph.total_weight
    if m <= 0.0:
        raise ValueError("modularity undefined: graph has no edges")
    s = graph.strengths[node]
    strength_old_excl = partition.community_strength[a] - s
    strength_new = 0.0 if new_singleton else partition.community_strength[target]
    return (w_new - w_old) / m - resolution * s * (strength_new - strength_old_excl) / (
        2.0 * m * m
    )


def aggregate(graph: Graph, partition: Partition) -> Graph:
    """Collapse each community into a single node.

    The community graph holds the summed cross-community weights as edges
    and each community's internal weight as its node's self weight.
    """
    if any(size == 0 for size in partition.sizes):
        raise ValueError("aggregate requires a compact partition")
    c_count = partition.community_count
    us, vs, ws = graph.edge_arrays()
    lab = np.asarray(partition.labels, dtype=np.int64)
    cu = lab[us]
    cv = lab[vs]
    cross = cu != cv
    lo = np.minimum(cu[cross], cv[cross])
    hi = np.maximum(cu[cross], cv[cross])
    keys, inverse = np.unique(lo * c_count + hi, return_inverse=True)
    sums = np.bincount(inverse, weights=ws[cross])
    collapsed = build_graph(c_count, np.column_stack((keys // c_count, keys % c_count, sums)))
    internal = partition.internal_weight
    return dataclasses.replace(
        collapsed,
        strengths=tuple(s + 2.0 * w for s, w in zip(collapsed.strengths, internal)),
        total_weight=collapsed.total_weight + math.fsum(internal),
        self_weights=tuple(internal),
    )


def partition_to_csv(partition: Partition) -> str:
    lines = ["node_id,community_id"]
    lines.extend(f"{node},{c}" for node, c in enumerate(partition.labels))
    return "\n".join(lines) + "\n"
