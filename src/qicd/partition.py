"""Partitions of a graph's nodes and the modularity machinery over them.

A Partition is computed once, in O(n), from one community label per node
of a graph: it holds the dense labels and their count, and reads nothing
of the graph but its node count. It is a value with no empty community
that nothing changes after it is built. Every sum over a community is
taken from the graph it is wanted on: detect.move_nodes sums community
strengths from the graph it moves nodes on, and modularity and aggregate
sum strengths and internal weights from the graph they are given.

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

from .graph import Graph, build_graph, text_rows


class Partition:
    """Dense community labels over a graph's nodes."""

    __slots__ = ("labels", "community_count")

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


def _internal_sums(graph: Graph, labels: np.ndarray, c_count: int, cu: np.ndarray, cv: np.ndarray,
                   ws: np.ndarray) -> np.ndarray:
    """Each community's internal weight: the weights of the edges whose
    ends' communities cu and cv agree, in edge_arrays order, plus its
    members' self weights on a collapsed graph."""
    same = cu == cv
    internal = np.bincount(cu[same], weights=ws[same], minlength=c_count)
    if graph.self_weights is not None:
        internal = internal + np.bincount(labels, weights=graph.self_weights, minlength=c_count)
    return internal


def _community_edges(graph: Graph, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The communities of each edge's two ends, and its weight, in
    edge_arrays order."""
    us, vs, ws = graph.edge_arrays()
    cu = labels[us]
    del us
    return cu, labels[vs], ws


def singleton_partition(graph: Graph) -> Partition:
    return Partition(graph, list(range(graph.node_count)))


def community_members(partition: Partition) -> list[list[int]]:
    """Member node ids per community, each list in ascending order."""
    out: list[list[int]] = [[] for _ in range(partition.community_count)]
    for node, c in enumerate(partition.labels):
        out[c].append(node)
    return out


def modularity(graph: Graph, partition: Partition) -> float:
    """Newman-Girvan modularity Q of the partition, in [-1/2, 1] (Brandes et
    al. 2008).

    Q = sum_c [ e_c / m - (S_c / 2m)^2 ] with e_c the internal weight, S_c
    the total member strength, and m the total weight, all three of this
    graph.
    """
    if len(partition.labels) != graph.node_count:
        raise ValueError("partition does not cover this graph")
    m = graph.total_weight
    if m <= 0.0:
        raise ValueError("modularity undefined: graph has no edges")
    labels = np.asarray(partition.labels, dtype=np.int64)
    c_count = partition.community_count
    internal = _internal_sums(graph, labels, c_count, *_community_edges(graph, labels)).tolist()
    strength = np.bincount(labels, weights=graph.strengths, minlength=c_count).tolist()
    two_m = 2.0 * m
    q = 0.0
    for e, s in zip(internal, strength):
        frac = s / two_m
        q += e / m - frac * frac
    return q


def aggregate(graph: Graph, partition: Partition) -> Graph:
    """Collapse each community into a single node.

    The cross-community edges go to build_graph with merge_duplicates,
    which sums them into one edge per pair of communities in edge_arrays
    order; each community's internal weight becomes its node's self weight.
    """
    lab = np.asarray(partition.labels, dtype=np.int64)
    cu, cv, ws = _community_edges(graph, lab)
    internal = _internal_sums(graph, lab, partition.community_count, cu, cv, ws)
    cross = cu != cv
    cu, cv, ws = cu[cross], cv[cross], ws[cross]  # frees the full-length columns
    del cross
    collapsed = build_graph(partition.community_count, cu, cv, ws, merge_duplicates=True)
    return dataclasses.replace(
        collapsed,
        strengths=collapsed.strengths + 2.0 * internal,
        total_weight=collapsed.total_weight + math.fsum(internal),
        self_weights=internal,
    )


def labels_to_csv(labels: Sequence[int]) -> str:
    """A "node_id,community_id" CSV of one non-negative integer label per node."""
    ids, lab = np.arange(len(labels)), np.asarray(labels, dtype=np.int64)
    rows = 1 << 14
    blocks = ((ids[a : a + rows], lab[a : a + rows]) for a in range(0, len(lab), rows))
    return text_rows("node_id,community_id\n", blocks, ",")
