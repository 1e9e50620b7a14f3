"""Immutable weighted undirected graphs and edge-list I/O.

Nodes are dense integer ids ``0..n-1``. Each undirected edge is stored in
both endpoint adjacency lists; self-loops and duplicate edges are rejected
at construction. Edge weights are double precision and strictly positive.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import IO, Callable, Iterable, Iterator

import numpy as np


class EdgeListError(ValueError):
    """Malformed edge input: bad endpoint, weight, duplicate, or parse failure."""


@dataclass(frozen=True)
class Graph:
    """Weighted undirected graph.

    adjacency[u] holds (neighbor, weight) pairs sorted by neighbor id.
    strengths[u] is the total weight incident to u (the degree when all
    weights are 1). total_weight is half the sum of all adjacency weights.
    """

    node_count: int
    adjacency: tuple[tuple[tuple[int, float], ...], ...]
    strengths: tuple[float, ...]
    total_weight: float

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(nbrs) for nbrs in self.adjacency)

    def iter_edges(self) -> Iterator[tuple[int, int, float]]:
        """Yield each undirected edge once as (u, v, w) with u < v."""
        for u, nbrs in enumerate(self.adjacency):
            for v, w in nbrs:
                if v > u:
                    yield u, v, w

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat (u, v, w) arrays of the edge list with u < v, cached."""
        cached = getattr(self, "_edge_arrays", None)
        if cached is None:
            us: list[int] = []
            vs: list[int] = []
            ws: list[float] = []
            for u, v, w in self.iter_edges():
                us.append(u)
                vs.append(v)
                ws.append(w)
            cached = (
                np.asarray(us, dtype=np.int64),
                np.asarray(vs, dtype=np.int64),
                np.asarray(ws, dtype=np.float64),
            )
            object.__setattr__(self, "_edge_arrays", cached)
        return cached

    def csr_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Compressed adjacency: (indptr, neighbor) flat arrays, cached."""
        cached = getattr(self, "_csr_arrays", None)
        if cached is None:
            indptr = np.zeros(self.node_count + 1, dtype=np.int64)
            for u, nbrs in enumerate(self.adjacency):
                indptr[u + 1] = indptr[u] + len(nbrs)
            flat = np.fromiter(
                (v for nbrs in self.adjacency for v, _w in nbrs),
                dtype=np.int64,
                count=int(indptr[-1]),
            )
            cached = (indptr, flat)
            object.__setattr__(self, "_csr_arrays", cached)
        return cached


def _edge_index(idx: int) -> str:
    return f"edge {idx}"


def build_graph(
    n: int,
    edges: Iterable[tuple[int, int, float]],
    *,
    merge_duplicates: bool = False,
    where: Callable[[int], str] = _edge_index,
) -> Graph:
    """Build a Graph from (u, v, weight) triples over nodes 0..n-1.

    Isolated nodes are permitted. Duplicate undirected pairs are rejected
    unless merge_duplicates is set, in which case their weights are summed.
    Errors name the offending edge as where(index), by default its index.
    """
    if n < 0:
        raise EdgeListError(f"node count must be non-negative, got {n}")
    pair_weight: dict[tuple[int, int], float] = {}
    for idx, edge in enumerate(edges):
        try:
            u, v, w = edge
        except (TypeError, ValueError):
            raise EdgeListError(f"{where(idx)}: expected a (u, v, weight) triple") from None
        u, v = int(u), int(v)
        if not (0 <= u < n) or not (0 <= v < n):
            raise EdgeListError(f"{where(idx)}: endpoint out of range for n={n}: ({u}, {v})")
        if u == v:
            raise EdgeListError(f"{where(idx)}: self-loop at node {u}")
        w = float(w)
        if not math.isfinite(w) or w <= 0.0:
            raise EdgeListError(f"{where(idx)}: weight must be finite and positive, got {w}")
        key = (u, v) if u < v else (v, u)
        if key in pair_weight:
            if not merge_duplicates:
                raise EdgeListError(f"{where(idx)}: duplicate edge {key[0]}-{key[1]}")
            pair_weight[key] += w
        else:
            pair_weight[key] = w

    adjacency: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    # Share one int object per node id and one float per distinct weight;
    # large graphs then keep the hot leaf objects compact in cache.
    id_pool = list(range(n))
    weight_pool: dict[float, float] = {}
    for (u, v), w in sorted(pair_weight.items()):
        w = weight_pool.setdefault(w, w)
        adjacency[u].append((id_pool[v], w))
        adjacency[v].append((id_pool[u], w))
    strengths = tuple(math.fsum(w for _, w in nbrs) for nbrs in adjacency)
    total = math.fsum(pair_weight.values())
    return Graph(
        node_count=n,
        adjacency=tuple(tuple(nbrs) for nbrs in adjacency),
        strengths=strengths,
        total_weight=total,
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
) -> Graph:
    """Parse edge-list text into a Graph.

    Lines are "u v" or "u v w" with whitespace-separated fields; missing
    weights default to 1.0. Lines starting with '#' are comments; a header
    comment "# nodes: N" fixes the node count, otherwise it is inferred as
    max id + 1. Carriage returns before the newline are tolerated.
    """
    edges: list[tuple[int, int, float]] = []
    skipped: list[int] = []
    header_n: int | None = None
    max_id = -1
    for lineno, raw in enumerate(_iter_lines(source), start=1):
        line = raw.rstrip("\r")
        if not line.strip() or line.startswith("#"):
            skipped.append(lineno)
            m = _HEADER_RE.match(line)
            if m:
                header_n = int(m.group(1))
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise EdgeListError(f"line {lineno}: expected 'u v' or 'u v w', got {line!r}")
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
    n = header_n if header_n is not None else max_id + 1
    return build_graph(n, edges, merge_duplicates=merge_duplicates, where=_file_lines(skipped))


def load_labeled_edge_list(
    source: str | IO[str] | Iterable[str],
    *,
    merge_duplicates: bool = False,
) -> tuple[Graph, list[str]]:
    """Parse an edge list whose node ids are arbitrary labels.

    Labels (any whitespace-free token) are mapped to dense ids in order of
    first appearance; the mapping is returned so results can be joined back
    to the original labels.
    """
    labels: dict[str, int] = {}
    edges: list[tuple[int, int, float]] = []
    skipped: list[int] = []
    for lineno, raw in enumerate(_iter_lines(source), start=1):
        line = raw.rstrip("\r")
        if not line.strip() or line.startswith("#"):
            skipped.append(lineno)
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise EdgeListError(f"line {lineno}: expected 'u v' or 'u v w', got {line!r}")
        if len(parts) == 3:
            try:
                w = float(parts[2])
            except ValueError:
                raise EdgeListError(f"line {lineno}: bad weight: {line!r}") from None
        else:
            w = 1.0
        ids = [labels.setdefault(tok, len(labels)) for tok in parts[:2]]
        edges.append((ids[0], ids[1], w))
    graph = build_graph(len(labels), edges, merge_duplicates=merge_duplicates, where=_file_lines(skipped))
    return graph, list(labels)


def dump_edge_list(graph: Graph) -> str:
    """Serialize a Graph to edge-list text that reloads identically."""
    lines = [f"# nodes: {graph.node_count}"]
    for u, v, w in graph.iter_edges():
        lines.append(f"{u} {v} {w!r}")
    return "\n".join(lines) + "\n"
