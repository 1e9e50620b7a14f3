"""Structured random perturbations for partition proposals.

Three ingredients: heavy-tailed per-node weights (unit-mean exponentials),
their normalized variant (weights summing to 1, a flat Dirichlet draw), and
a size-flattening adjustment that relocates nodes out of oversized
communities. Weight vectors seed a proposal partition grown by multi-source
BFS from the highest-weighted nodes.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .graph import Graph
from .partition import Partition, community_members


# The size-flattening rule is part of the method, not a setting: a community
# is oversized when its size exceeds SKEW_FACTOR * (n / C), and each
# perturbation relocates REASSIGN_FRACTION of the nodes it draws from.
SKEW_FACTOR = 2.0
REASSIGN_FRACTION = 0.1


def sample_pt_weights(n: int, rng: np.random.Generator) -> np.ndarray:
    """n independent unit-mean exponential weights via inverse transform.

    w = -ln(U) with U uniform on (0, 1], so a draw of U = 1 maps to exactly
    0 and the sample is reproducible from the uniform stream alone.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    u = 1.0 - rng.random(n)
    return -np.log(u)


def sample_haar_weights(n: int, rng: np.random.Generator) -> np.ndarray:
    """Exponential weights rescaled to sum 1 (flat Dirichlet on the simplex)."""
    while True:
        w = sample_pt_weights(n, rng)
        total = float(w.sum())
        if total > 0.0:
            return w / total
        # An all-zero draw has probability zero; redraw if it ever happens.


def propose_partition(graph: Graph, weights: np.ndarray, seed_count: int) -> Partition:
    """Grow a proposal partition from the highest-weighted nodes.

    The seed_count nodes with the largest weights (ties to the lower node
    id) become community seeds; the rest join the seed that reaches them
    first by breadth-first search over the graph's edges. Simultaneous
    arrivals go to the seed with the larger weight, then the lower seed id.
    Nodes unreachable from every seed become singletons. Deterministic given
    the weights, one finite non-negative value per node.
    """
    n = graph.node_count
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"weights must have shape ({n},), got {w.shape}")
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise ValueError("weights must be finite and non-negative")
    if not 1 <= seed_count <= n:
        raise ValueError(f"seed_count must be in [1, {n}], got {seed_count}")

    # Stable argsort on -w puts equal weights in ascending node-id order.
    order = np.argsort(-w, kind="stable")
    seeds = order[:seed_count].astype(np.int64)
    labels = np.full(n, -1, dtype=np.int64)
    labels[seeds] = np.arange(seed_count, dtype=np.int64)

    # Community index already encodes (larger weight, then lower id), so the
    # arrival tie rule is "smallest claiming community wins". Layer-by-layer
    # expansion; same-layer ties resolve with a running minimum per node.
    indptr, flat_nbrs = graph.indptr, graph.indices
    claim = np.empty(n, dtype=np.int64)
    frontier = np.sort(seeds)
    while frontier.size:
        counts = indptr[frontier + 1] - indptr[frontier]
        total = int(counts.sum())
        if total == 0:
            break
        starts = np.repeat(indptr[frontier], counts)
        offsets = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        targets = flat_nbrs[starts + offsets]
        sources = np.repeat(labels[frontier], counts)
        fresh = labels[targets] == -1
        targets = targets[fresh]
        sources = sources[fresh]
        if targets.size == 0:
            break
        claim.fill(n + 1)
        np.minimum.at(claim, targets, sources)
        frontier = np.unique(targets)
        labels[frontier] = claim[frontier]

    unreachable = np.flatnonzero(labels == -1)
    labels[unreachable] = seed_count + np.arange(unreachable.size, dtype=np.int64)
    return Partition(graph, labels.tolist())


def hyperuniform_adjust(graph: Graph, partition: Partition, rng: np.random.Generator) -> Partition:
    """Shrink oversized communities by relocating a fraction of their nodes.

    Communities whose input size s exceeds SKEW_FACTOR * n / C lose
    ceil(REASSIGN_FRACTION * s) members, each reassigned to a uniformly
    random community that was not oversized, so every oversized community
    ends strictly smaller. None empties: C <= n, so an oversized community
    has s > SKEW_FACTOR * n / C >= 2, hence s >= 3, and for s >= 3
    ceil(REASSIGN_FRACTION * s) <= s - 1. With a single community the
    partition is returned unchanged.
    """
    c_count = partition.community_count
    if c_count <= 1:
        return partition
    members = community_members(partition)
    sizes = [len(nodes) for nodes in members]
    threshold = SKEW_FACTOR * graph.node_count / c_count
    if max(sizes) <= threshold:
        return partition
    receivers = [c for c in range(c_count) if sizes[c] <= threshold]
    batch = [math.ceil(REASSIGN_FRACTION * s) if s > threshold else 0 for s in sizes]
    labels = _relocate(partition, members, batch, lambda _c: receivers[int(rng.integers(len(receivers)))], rng)
    return Partition(graph, labels)


def hu_noise(graph: Graph, partition: Partition, rng: np.random.Generator) -> Partition:
    """Noise-only perturbation: relabel ceil(REASSIGN_FRACTION * n) nodes
    across communities.

    The relocation budget is spread proportionally over communities (largest
    remainder, one batch per community, never draining a community) and each
    picked node moves to a uniformly random other community. No weights are
    sampled; community ids are preserved.
    """
    c_count = partition.community_count
    if c_count <= 1:
        return partition
    n = graph.node_count
    members = community_members(partition)
    sizes = [len(nodes) for nodes in members]
    caps = [s - 1 for s in sizes]
    total = min(math.ceil(REASSIGN_FRACTION * n), sum(caps))
    if total <= 0:
        return partition

    quotas = [total * s / n for s in sizes]
    batch = [min(int(math.floor(q)), cap) for q, cap in zip(quotas, caps)]
    shortfall = total - sum(batch)
    by_remainder = sorted(range(c_count), key=lambda c: (-(quotas[c] - math.floor(quotas[c])), c))
    # total <= sum(caps), so the shortfall never exceeds the room left below
    # the caps and every round places at least one node.
    while shortfall > 0:
        for c in by_remainder:
            if shortfall == 0:
                break
            if batch[c] < caps[c]:
                batch[c] += 1
                shortfall -= 1

    def other(c: int) -> int:
        target = int(rng.integers(c_count - 1))
        return target + (target >= c)

    return Partition(graph, _relocate(partition, members, batch, other, rng))


def _relocate(partition: Partition, members: list[list[int]], batch: list[int],
              target: Callable[[int], int], rng: np.random.Generator) -> list[int]:
    """partition's labels after batch[c] members of each community c, drawn
    without replacement and visited in node order, each move to target(c)."""
    labels = list(partition.labels)
    for c, nodes in enumerate(members):
        if batch[c] > 0:
            picked = rng.choice(len(nodes), size=batch[c], replace=False)
            for i in sorted(int(x) for x in picked):
                labels[nodes[i]] = target(c)
    return labels
