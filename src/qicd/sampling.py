"""Structured random perturbations for partition proposals.

Three ingredients: heavy-tailed per-node weights (unit-mean exponentials),
their normalized variant (weights summing to 1, a flat Dirichlet draw), and
a size-flattening adjustment that relocates nodes out of oversized
communities. Weight vectors seed a proposal partition grown by multi-source
BFS from the highest-weighted nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .partition import Partition, community_members


@dataclass(frozen=True)
class HyperuniformParams:
    """Knobs for the size-flattening step.

    A community is oversized when its size exceeds skew_factor * (n / C).
    reassign_fraction of an oversized community's members are relocated.
    fraction 0 is allowed and makes the perturbation a no-op.
    """

    skew_factor: float = 2.0
    reassign_fraction: float = 0.1

    def __post_init__(self):
        if not (math.isfinite(self.skew_factor) and self.skew_factor > 1.0):
            raise ValueError("skew_factor must be finite and > 1")
        if not 0.0 <= self.reassign_fraction <= 1.0:
            raise ValueError("reassign_fraction must be in [0, 1]")


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


def hyperuniform_adjust(
    graph: Graph,
    partition: Partition,
    params: HyperuniformParams,
    rng: np.random.Generator,
) -> Partition:
    """Shrink oversized communities by relocating a fraction of their nodes.

    Communities whose input size exceeds skew_factor * n / C lose
    ceil(reassign_fraction * size) members (capped at size - 1 so nothing
    empties), each reassigned to a uniformly random community that was not
    oversized; the cap plus non-oversized targets guarantee every oversized
    community ends strictly smaller. With a single community the partition
    is returned unchanged.
    """
    c_count = partition.community_count
    if c_count <= 1:
        return partition
    n = graph.node_count
    threshold = params.skew_factor * n / c_count
    sizes = partition.sizes
    oversized = [c for c in range(c_count) if sizes[c] > threshold]
    if not oversized:
        return partition
    receivers = [c for c in range(c_count) if sizes[c] <= threshold]

    members = community_members(partition)
    labels = list(partition.labels)
    for c in oversized:
        move_n = min(math.ceil(params.reassign_fraction * sizes[c]), sizes[c] - 1)
        if move_n <= 0:
            continue
        nodes = members[c]
        picked = rng.choice(len(nodes), size=move_n, replace=False)
        for i in sorted(int(x) for x in picked):
            labels[nodes[i]] = receivers[int(rng.integers(len(receivers)))]
    return Partition(graph, labels)


def hu_noise(
    graph: Graph,
    partition: Partition,
    params: HyperuniformParams,
    rng: np.random.Generator,
) -> Partition:
    """Noise-only perturbation: relabel ceil(f * n) nodes across communities.

    The relocation budget is spread proportionally over communities (largest
    remainder, one batch per community, never draining a community) and each
    picked node moves to a uniformly random other community. No weights are
    sampled; community ids are preserved.
    """
    c_count = partition.community_count
    if c_count <= 1:
        return partition
    n = graph.node_count
    total = math.ceil(params.reassign_fraction * n)
    if total <= 0:
        return partition
    sizes = partition.sizes
    caps = [s - 1 for s in sizes]
    total = min(total, sum(caps))
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

    members = community_members(partition)
    labels = list(partition.labels)
    for c in range(c_count):
        if batch[c] <= 0:
            continue
        nodes = members[c]
        picked = rng.choice(len(nodes), size=batch[c], replace=False)
        for i in sorted(int(x) for x in picked):
            target = int(rng.integers(c_count - 1))
            if target >= c:
                target += 1
            labels[nodes[i]] = target
    return Partition(graph, labels)
