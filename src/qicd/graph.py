"""Immutable weighted undirected graphs and edge-list I/O.

Nodes are dense integer ids ``0..n-1``. A graph is stored once, in
compressed sparse row (CSR) form, with each undirected edge in the
neighbour runs of both endpoints. Self-loops and duplicate edges are
rejected at construction. Edge weights are double precision and strictly
positive.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import IO, Callable, Iterable, Iterator

import numpy as np


class EdgeListError(ValueError):
    """Malformed edge input: bad endpoint, weight, duplicate, or parse failure."""


class NodeCountError(EdgeListError):
    """A node count too large to allocate."""


@dataclass(frozen=True, eq=False)
class Graph:
    """Weighted undirected graph in CSR form.

    The neighbours of u are indices[indptr[u]:indptr[u + 1]], sorted by id,
    and weights holds their edge weights at the same positions; the three
    arrays are read-only. strengths[u] is the math.fsum of u's edge weights
    (the degree when all weights are 1); total_weight is the math.fsum of
    the weights of the distinct edges.

    self_weights is None except on a graph that partition.aggregate
    collapsed: there self_weights[u] is the internal weight of the
    community that node u stands for, and like a self-loop it counts twice
    in strengths[u] and once in total_weight.
    """

    node_count: int
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    strengths: tuple[float, ...]
    total_weight: float
    self_weights: tuple[float, ...] | None = None

    @property
    def edge_count(self) -> int:
        return len(self.indices) // 2

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(u, v, w) arrays holding each edge once with u < v, ordered by (u, v)."""
        us = np.repeat(np.arange(self.node_count, dtype=np.int64), np.diff(self.indptr))
        upper = self.indices > us
        return us[upper], self.indices[upper], self.weights[upper]


def _edge_index(idx: int) -> str:
    return f"edge {idx}"


def _first_malformed(edges) -> int:
    """Index of the first edge that is not a triple of numbers."""
    for idx, edge in enumerate(edges):
        try:
            u, v, w = edge
            float(u), float(v), float(w)
        except (TypeError, ValueError, OverflowError):
            return idx
    return 0


def build_graph(
    n: int,
    edges: Iterable[tuple[int, int, float]],
    *,
    merge_duplicates: bool = False,
    where: Callable[[int], str] = _edge_index,
) -> Graph:
    """Build a Graph from (u, v, weight) triples over nodes 0..n-1.

    edges may also be an (m, 3) array. Isolated nodes are permitted.
    Duplicate undirected pairs are rejected unless merge_duplicates is set,
    in which case their weights are summed in input order. Errors name the
    first offending edge in input order as where(index), by default its
    index.
    """
    if n < 0:
        raise EdgeListError(f"node count must be non-negative, got {n}")
    try:
        # First, so that a hostile node count fails before any edge work.
        indptr = np.zeros(n + 1, dtype=np.int64)
    except (ValueError, OverflowError, MemoryError):
        raise NodeCountError(f"node count {n} is too large") from None
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    try:
        cols = np.array(edges, dtype=np.float64).reshape(len(edges), 3)
    except (TypeError, ValueError, OverflowError):
        raise EdgeListError(f"{where(_first_malformed(edges))}: expected a (u, v, weight) triple") from None

    # Endpoints are truncated towards zero, as int() does.
    ends = np.trunc(cols[:, :2])
    weights = cols[:, 2]
    outside = ~((ends >= 0) & (ends < n)).all(axis=1)
    loop = ends[:, 0] == ends[:, 1]
    bad_weight = ~(np.isfinite(weights) & (weights > 0.0))
    faults = np.flatnonzero(outside | loop | bad_weight)
    valid = int(faults[0]) if faults.size else len(weights)

    # Every edge before the first fault is well formed; a duplicate among
    # them comes first in input order.
    ends = ends[:valid].astype(np.int64)
    lo = ends.min(axis=1)
    hi = ends.max(axis=1)
    order = np.lexsort((hi, lo))  # stable: a repeated pair keeps input order
    lo, hi, weights = lo[order], hi[order], weights[order]
    first = np.ones(valid, dtype=bool)
    first[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    if not merge_duplicates and not first.all():
        idx = int(order[~first].min())
        raise EdgeListError(f"{where(idx)}: duplicate edge {ends[idx].min()}-{ends[idx].max()}")
    if valid < len(cols):
        u, v = (int(x) for x in cols[valid, :2])
        if outside[valid]:
            raise EdgeListError(f"{where(valid)}: endpoint out of range for n={n}: ({u}, {v})")
        if loop[valid]:
            raise EdgeListError(f"{where(valid)}: self-loop at node {u}")
        raise EdgeListError(f"{where(valid)}: weight must be finite and positive, got {float(cols[valid, 2])}")

    starts = np.flatnonzero(first)
    pair_w = weights[starts]
    if len(starts) < valid:
        # A repeated pair's weights add up strictly left to right, in input
        # order; accumulate, unlike sum, does not regroup the additions.
        bounds = np.append(starts, valid)
        with np.errstate(over="ignore"):  # an infinite sum is reported below
            for g in np.flatnonzero(np.diff(bounds) > 1).tolist():
                pair_w[g] = np.add.accumulate(weights[bounds[g] : bounds[g + 1]])[-1]
    src = np.concatenate((lo[starts], hi[starts]))
    dst = np.concatenate((hi[starts], lo[starts]))
    order = np.lexsort((dst, src))
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    indices = dst[order]
    weights = np.concatenate((pair_w, pair_w))[order]
    for array in (indptr, indices, weights):
        array.flags.writeable = False
    flat = weights.tolist()
    bounds = indptr.tolist()
    try:
        strengths = tuple(math.fsum(flat[a:b]) for a, b in zip(bounds, bounds[1:]))
        total_weight = math.fsum(pair_w.tolist())
    except OverflowError:
        total_weight = math.inf
    if not math.isfinite(total_weight):
        # Every merged weight and node strength is part of the total, so the
        # running total in input order leaves the float range first.
        with np.errstate(over="ignore"):
            running = np.cumsum(cols[:, 2])
        idx = min(int(np.searchsorted(running, math.inf)), valid - 1)
        raise EdgeListError(f"{where(idx)}: the edge weights sum past the float range")
    return Graph(
        node_count=n,
        indptr=indptr,
        indices=indices,
        weights=weights,
        strengths=strengths,
        total_weight=total_weight,
    )


_HEADER_RE = re.compile(r"^#\s*nodes:\s*(\d+)\s*$")


def _iter_lines(source: str | IO[str] | Iterable[str]) -> Iterator[str]:
    if isinstance(source, str):
        yield from source.splitlines()
    else:
        for line in source:
            yield line.rstrip("\n")


def _file_lines(skipped: list[int]) -> Callable[[int], str]:
    """Names edge i by its 1-based file line, given the ascending numbers
    of the lines that hold no edge (blank lines and comments)."""

    def where(idx: int) -> str:
        line = idx + 1
        for s in skipped:
            line += s <= line
        return f"line {line}"

    return where


def load_edge_list(
    source: str | IO[str] | Iterable[str],
    *,
    merge_duplicates: bool = False,
    relabel: bool = False,
) -> Graph | tuple[Graph, list[str]]:
    """Parse edge-list text into a Graph.

    Lines are "u v" or "u v w" with whitespace-separated fields; missing
    weights default to 1.0. Lines starting with '#' are comments; a header
    comment "# nodes: N" fixes the node count, otherwise it is inferred as
    max id + 1. Carriage returns before the newline are tolerated.

    With relabel, node ids are arbitrary whitespace-free labels, mapped to
    dense ids in order of first appearance, and the result is
    (graph, labels) with labels[i] the label of node i, so results can be
    joined back to the input; the header is then ignored.
    """
    labels: dict[str, int] = {}
    edges: list[tuple[int, int, float]] = []
    skipped: list[int] = []
    header_n: int | None = None
    header_line = 0
    max_id = -1
    for lineno, raw in enumerate(_iter_lines(source), start=1):
        line = raw.rstrip("\r")
        if not line.strip() or line.startswith("#"):
            skipped.append(lineno)
            m = _HEADER_RE.match(line)
            if m:
                header_n = int(m.group(1))
                header_line = lineno
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise EdgeListError(f"line {lineno}: expected 'u v' or 'u v w', got {line!r}")
        if relabel:
            u = labels.setdefault(parts[0], len(labels))
            v = labels.setdefault(parts[1], len(labels))
        else:
            try:
                u = int(parts[0])
                v = int(parts[1])
            except ValueError:
                raise EdgeListError(f"line {lineno}: node ids must be integers: {line!r}") from None
            if u < 0 or v < 0:
                raise EdgeListError(f"line {lineno}: node ids must be non-negative: {line!r}")
        if len(parts) == 3:
            try:
                w = float(parts[2])
            except ValueError:
                raise EdgeListError(f"line {lineno}: bad weight: {line!r}") from None
        else:
            w = 1.0
        edges.append((u, v, w))
        max_id = max(max_id, u, v)
    if relabel:
        n = len(labels)
    else:
        n = header_n if header_n is not None else max_id + 1
    where = _file_lines(skipped)
    try:
        graph = build_graph(n, edges, merge_duplicates=merge_duplicates, where=where)
    except NodeCountError as exc:
        # The count comes from the header, or else from the largest node id.
        if header_n is not None:
            origin = f"line {header_line}"
        else:
            origin = where(next(i for i, (u, v, _) in enumerate(edges) if max(u, v) == max_id))
        raise NodeCountError(f"{origin}: {exc}") from None
    return (graph, list(labels)) if relabel else graph


def dump_edge_list(graph: Graph) -> str:
    """Serialize a Graph to edge-list text that reloads identically."""
    us, vs, ws = graph.edge_arrays()
    lines = [f"# nodes: {graph.node_count}"]
    lines.extend(f"{u} {v} {w!r}" for u, v, w in zip(us.tolist(), vs.tolist(), ws.tolist()))
    return "\n".join(lines) + "\n"
