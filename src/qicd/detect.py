"""Louvain and Leiden modularity optimizers.

Both run the multilevel scheme of Blondel et al. (2008): greedy moves
until a sweep gains less than MIN_GAIN, then collapse communities and
repeat until aggregation stops merging. `leiden` is Louvain plus a
connected-component split: at each level, and once more on the final
partition, every community that induces a disconnected subgraph is split
into its components, so the returned communities are always connected.
It is not the randomized refinement phase of Traag, Waltman & van Eck (2019).
"""

from __future__ import annotations

import math
import weakref
from array import array

import numpy as np

from .graph import _CHUNK, Graph
from .partition import Partition, aggregate, singleton_partition
from .rng import make_rng


# The stop rule is part of the algorithm, not a setting: at most MAX_LEVELS
# levels of at most MAX_SWEEPS sweeps, a level ending at a sweep below MIN_GAIN.
MAX_LEVELS = 20
MAX_SWEEPS = 100
MIN_GAIN = 1e-7


# One view per live graph, built on first use, so every move_nodes and
# leiden_refine call on a graph reads the same lists. A Graph hashes by
# identity, and a view holds nothing of its graph, so it goes with it.
_VIEWS: weakref.WeakKeyDictionary[Graph, tuple] = weakref.WeakKeyDictionary()


def _view(graph: Graph) -> tuple:
    """(nodes, flat): the graph's node ids as one Python int each, in an
    object array, and what the move loop reads of the graph.

    flat is (indptr, indices, weights, strengths, m). indptr and strengths
    are array('q') and array('d') columns; indices is a list of the node
    objects, filled _CHUNK entries at a time, which the interpreted loops
    index much faster than a numpy array. weights is one float when every
    weight is equal (level 0 of every unweighted graph), and one float per
    CSR entry otherwise; m is the total weight."""
    nodes = np.arange(graph.node_count).astype(object)
    indices = [0] * len(graph.indices)
    for a in range(0, len(indices), _CHUNK):
        indices[a : a + _CHUNK] = nodes[graph.indices[a : a + _CHUNK]].tolist()
    w = graph.weights
    weights = float(w[0]) if len(w) and w.min() == w.max() else w.tolist()
    strengths = array("d", graph.strengths.tobytes())
    return nodes, (array("q", graph.indptr.tobytes()), indices, weights, strengths, graph.total_weight)


def _cached(graph: Graph) -> tuple:
    """graph's _view, built on its first use. Nothing changes a view."""
    view = _VIEWS.get(graph)
    if view is None:
        view = _VIEWS[graph] = _view(graph)
    return view


def _flat(graph: Graph) -> tuple:
    """The flat half of graph's cached view."""
    return _cached(graph)[1]


def _move_pass(
    flat: tuple,
    labels: list[int],
    comm_strength: list[float],
    rng: np.random.Generator,
    active: bytearray,
) -> float:
    """One greedy pass over nodes in random order, in place.

    Each node moves to the neighboring community with the largest strictly
    positive modularity gain; exact ties go to the lowest community id, so
    a seeded run is reproducible. Only nodes flagged in `active` are
    visited, and each visit clears the node's flag; every move re-flags the
    mover's neighbors outside its destination, so later passes skip settled
    regions. flat is the graph as _flat returns it; labels holds each
    node's community and comm_strength each community's total strength,
    the only state a gain reads, and a move updates both. Returns the
    summed gain of applied moves.
    """
    indptr, indices, weights, strengths, m = flat
    inv_m = 1.0 / m
    coef = 1.0 / (2.0 * m * m)
    equal = isinstance(weights, float)

    # Flat per-community accumulator with a touched list; a zero entry
    # means "not seen yet". A weight that scaling underflowed to 0.0 can
    # list a community twice: its second read sees the 0.0 that the first
    # left, and the gain never rises as the tally falls, so it never wins.
    weight_to = [0.0] * len(comm_strength)
    touched: list[int] = []
    append = touched.append

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
        if equal:
            for v in nbrs:
                c = labels[v]
                x = weight_to[c]
                if x == 0.0:
                    append(c)
                weight_to[c] = x + weights
        else:
            for v, w in zip(nbrs, weights[lo:hi]):
                c = labels[v]
                x = weight_to[c]
                if x == 0.0:
                    append(c)
                weight_to[c] = x + w
        w_old = weight_to[a]
        s = strengths[u]
        base = comm_strength[a] - s
        k = coef * s
        best = a
        best_gain = 0.0
        for c in touched:
            x = weight_to[c]
            weight_to[c] = 0.0
            if c == a:
                continue
            d = (x - w_old) * inv_m - k * (comm_strength[c] - base)
            if d > best_gain or (d == best_gain and d > 0.0 and c < best):
                best_gain = d
                best = c
        if best != a:
            comm_strength[a] = base
            comm_strength[best] += s
            labels[u] = best
            gain += best_gain
            # Neighbors already in the destination only gained incentive to
            # stay; everyone else may now prefer a different move.
            for v in nbrs:
                if labels[v] != best:
                    active[v] = True
        touched.clear()
    return gain


def move_nodes(graph: Graph, partition: Partition, rng: np.random.Generator) -> Partition:
    """Greedy move passes from partition's labels until a sweep gains less
    than MIN_GAIN, or for MAX_SWEEPS passes; returns the Partition of the
    labels they end with.

    The only code that moves nodes, and the only reader of community
    strengths, which it sums from this graph's strengths. When the total
    weight m is outside 2^±500, near where m * m leaves the float range,
    the passes read weights and strengths scaled by an exact power of two,
    so no gain and no move changes.
    """
    # Labels are the graph's own node objects, so a neighbour's id and its
    # community are the same few ints.
    labels = _cached(graph)[0][partition.labels].tolist()
    comm_strength = np.bincount(partition.labels, weights=graph.strengths, minlength=partition.community_count).tolist()
    indptr, indices, weights, strengths, m = _flat(graph)
    e = math.frexp(m)[1]
    if abs(e) > 500:
        # One ldexp per value: for subnormal weights 2^-e itself overflows.
        if isinstance(weights, float):
            weights = math.ldexp(weights, -e)
        else:
            weights = [math.ldexp(x, -e) for x in weights]
        strengths, comm_strength = ([math.ldexp(x, -e) for x in xs] for xs in (strengths, comm_strength))
        m = math.ldexp(m, -e)
    flat = (indptr, indices, weights, strengths, m)
    active = bytearray(b"\x01") * len(labels)
    for _ in range(MAX_SWEEPS):
        if _move_pass(flat, labels, comm_strength, rng, active) < MIN_GAIN:
            break
    return Partition(graph, labels)


def leiden_refine(graph: Graph, partition: Partition) -> Partition:
    """Split every community that induces a disconnected subgraph.

    Splitting into connected components never decreases Q. A community's
    first component keeps its id; the others take ids from community_count
    on, ordered by community and then by lowest node. When every community
    is connected, partition itself is returned.
    """
    indptr, indices = _flat(graph)[:2]
    old = partition.labels
    seen = [False] * len(old)
    kept = [False] * partition.community_count
    split: list[tuple[int, list[int]]] = []  # (community, component) past each first one
    for start, c in enumerate(old):
        if seen[start]:
            continue
        seen[start] = True
        component = [start]
        for u in component:  # breadth first: the list grows as it is read
            for v in indices[indptr[u] : indptr[u + 1]]:
                if not seen[v] and old[v] == c:
                    seen[v] = True
                    component.append(v)
        if kept[c]:
            split.append((c, component))
        kept[c] = True
    if not split:
        return partition
    labels = list(old)
    split.sort(key=lambda item: item[0])  # stable: lowest node first within a community
    for label, (_c, component) in enumerate(split, partition.community_count):
        for u in component:
            labels[u] = label
    return Partition(graph, labels)


def _multilevel(graph: Graph, rng: np.random.Generator, refine: bool, initial: Partition | None = None) -> Partition:
    if graph.total_weight <= 0.0:
        raise ValueError("modularity undefined: graph has no edges")
    level_graph = graph
    level_labels: list[list[int]] = []
    part = initial
    for _level in range(MAX_LEVELS):
        if part is None:
            part = singleton_partition(level_graph)
        part = move_nodes(level_graph, part, rng)
        if refine:
            refined = leiden_refine(level_graph, part)
            if refined is not part:
                part = move_nodes(level_graph, refined, rng)
        level_labels.append(part.labels)
        if part.community_count == level_graph.node_count:
            break
        level_graph = aggregate(level_graph, part)
        part = None

    labels = level_labels[0]
    for mapping in level_labels[1:]:
        labels = [mapping[c] for c in labels]
    result = Partition(graph, labels)
    if refine:
        # Guarantee connectivity on the original graph, not just per level.
        result = leiden_refine(graph, result)
    return result


def louvain(graph: Graph, seed: int) -> Partition:
    """Greedy multilevel modularity optimization; seed sets the node-visit
    order."""
    return _multilevel(graph, make_rng(seed), refine=False)


def leiden(graph: Graph, seed: int) -> Partition:
    """Louvain plus a connected-component split at each level and at the
    end; returned communities are connected. seed sets the node-visit
    order."""
    return _multilevel(graph, make_rng(seed), refine=True)


def seeded_pass(graph: Graph, initial: Partition, rng: np.random.Generator, refine: bool) -> Partition:
    """Full multilevel pass started from an existing partition, visiting
    nodes in the order rng draws.

    Used to polish an externally generated candidate: local moves reshape it
    at node level, then aggregation continues from whatever scale survives.
    """
    return _multilevel(graph, rng, refine, initial=initial)
