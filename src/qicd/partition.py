"""Partitions of a graph's nodes and the modularity machinery over them.

A Partition is computed once, in O(n), from a graph and one community
label per node: dense labels and each community's total member strength.
It is a value with no empty community that nothing changes after it is
built. detect.move_nodes moves nodes on lists of labels and community
strengths, all that its kernel detect._move_pass reads, and builds a new
Partition.

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
    """Dense community labels over a graph and each community's strength."""

    __slots__ = ("labels", "community_count", "community_strength")

    def __init__(self, graph: Graph, labels: Sequence[int]):
        n = graph.node_count
        if len(labels) != n:
            raise ValueError(f"labels cover {len(labels)} nodes, graph has {n}")

        # Compact arbitrary non-negative integer labels to dense 0..C-1,
        # keeping the relative order of label values.
        raw = np.asarray(labels)
        if raw.ndim != 1:
            raise ValueError("labels must be a flat sequence of ints")
        if n and raw.dtype.kind not in "iu":
            raise ValueError(f"community labels must be integers, got {raw.dtype} values")
        if n and raw.min() < 0:
            raise ValueError("community labels must be non-negative")
        _uniq, dense = np.unique(raw, return_inverse=True)
        self.labels = dense.tolist()
        self.community_count = len(_uniq)
        self.community_strength = np.bincount(dense, weights=graph.strengths, minlength=len(_uniq)).tolist()


def _internal_sums(graph: Graph, labels: np.ndarray, c_count: int) -> np.ndarray:
    """Each community's internal weight: its edges' weights in edge_arrays
    order, plus its members' self weights on a collapsed graph."""
    us, vs, ws = graph.edge_arrays()
    lab_u = labels[us]
    same = lab_u == labels[vs]
    del us, vs
    internal = np.bincount(lab_u[same], weights=ws[same], minlength=c_count)
    if graph.self_weights is not None:
        internal = internal + np.bincount(labels, weights=np.asarray(graph.self_weights), minlength=c_count)
    return internal


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
    weight, S_c the total member strength, and m the total weight, all
    three of this graph. resolution=1 is the classic definition.
    """
    if len(partition.labels) != graph.node_count:
        raise ValueError("partition does not cover this graph")
    m = graph.total_weight
    if m <= 0.0:
        raise ValueError("modularity undefined: graph has no edges")
    labels = np.asarray(partition.labels, dtype=np.int64)
    c_count = partition.community_count
    internal = _internal_sums(graph, labels, c_count).tolist()
    strength = np.bincount(labels, weights=graph.strengths, minlength=c_count).tolist()
    two_m = 2.0 * m
    q = 0.0
    for e, s in zip(internal, strength):
        frac = s / two_m
        q += e / m - resolution * frac * frac
    return q


def aggregate(graph: Graph, partition: Partition) -> Graph:
    """Collapse each community into a single node.

    The cross-community edges go to build_graph with merge_duplicates,
    which sums them into one edge per pair of communities in edge_arrays
    order; each community's internal weight becomes its node's self weight.
    """
    lab = np.asarray(partition.labels, dtype=np.int64)
    internal = _internal_sums(graph, lab, partition.community_count).tolist()
    us, vs, ws = graph.edge_arrays()
    cu, cv = lab[us], lab[vs]
    del us, vs
    cross = cu != cv
    edges = np.column_stack((cu[cross], cv[cross], ws[cross]))
    del cu, cv, ws, cross
    collapsed = build_graph(partition.community_count, edges, merge_duplicates=True)
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
