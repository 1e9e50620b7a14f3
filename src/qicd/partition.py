"""Partitions of a graph's nodes and the modularity machinery over them.

A Partition is computed once from a graph and one community label per
node: dense labels and per-community aggregates (internal edge weight,
total member strength, size), so that modularity is O(C). It is a value
with no empty community that nothing changes after it is built.
detect.move_nodes moves nodes on lists of labels and community strengths,
all that its kernel detect._move_pass reads, and builds a new Partition.

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
        frac = partition.community_strength[c] / two_m
        q += partition.internal_weight[c] / m - resolution * frac * frac
    return q


def aggregate(graph: Graph, partition: Partition) -> Graph:
    """Collapse each community into a single node.

    The community graph holds the summed cross-community weights as edges
    and each community's internal weight as its node's self weight.
    """
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
