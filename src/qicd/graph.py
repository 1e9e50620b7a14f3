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
from itertools import islice
from typing import IO, Callable, Iterable, Iterator

import numpy as np


class EdgeListError(ValueError):
    """Malformed edge input: bad endpoint, weight, duplicate, or parse failure."""


class NodeCountError(EdgeListError):
    """A node count too large to allocate or to key a pair by."""


# The largest n whose pair keys lo * n + hi, up to n * n - 1, fit int64.
_MAX_NODES = math.isqrt(2**63 - 1)


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

    edges may also be an (m, 3) array. Isolated nodes are permitted, up to
    n = isqrt(2**63 - 1), so that a pair's sort key lo * n + hi fits int64.
    Duplicate undirected pairs are rejected unless merge_duplicates is set,
    in which case one bincount sums each pair's weights in input order.
    Errors name the first offending edge in input order as where(index), by
    default its index.

    Two stable single-key sorts order the edges: pairs by that key, so a
    repeated pair keeps input order, then the CSR entries by row alone.
    When every merged weight is an integer and their sum is below 2**52,
    strengths come from one cumulative sum, which is then exact and so
    equal to the math.fsum of each row; otherwise each row is fsum'd.
    """
    if n < 0:
        raise EdgeListError(f"node count must be non-negative, got {n}")
    if n > _MAX_NODES:
        raise NodeCountError(f"node count {n} is too large")
    try:
        # First, so that a hostile node count fails before any edge work.
        indptr = np.zeros(n + 1, dtype=np.int64)
    except MemoryError:
        raise NodeCountError(f"node count {n} is too large") from None
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    try:
        cols = np.asarray(edges, dtype=np.float64).reshape(len(edges), 3)
    except (TypeError, ValueError, OverflowError):
        raise EdgeListError(f"{where(_first_malformed(edges))}: expected a (u, v, weight) triple") from None
    del edges

    # Endpoints are truncated towards zero, as int() does.
    ends = np.trunc(cols[:, :2])
    outside = ~((ends >= 0) & (ends < n)).all(axis=1)
    loop = ends[:, 0] == ends[:, 1]
    faults = np.flatnonzero(outside | loop | ~(np.isfinite(cols[:, 2]) & (cols[:, 2] > 0.0)))
    valid = int(faults[0]) if faults.size else len(cols)
    del faults

    # Every edge before the first fault is well formed; a duplicate among
    # them comes first in input order.
    ends = ends[:valid].astype(np.int64)
    lo = ends.min(axis=1)
    hi = ends.max(axis=1)
    del ends
    key = lo * n + hi
    order = np.argsort(key, kind="stable")  # a repeated pair keeps input order
    key, weights = key[order], cols[order, 2]
    first = np.ones(valid, dtype=bool)
    first[1:] = key[1:] != key[:-1]
    del key
    if not merge_duplicates and not first.all():
        idx = int(order[~first].min())
        u, v = sorted(int(x) for x in cols[idx, :2])
        raise EdgeListError(f"{where(idx)}: duplicate edge {u}-{v}")
    if valid < len(cols):
        u, v = (int(x) for x in cols[valid, :2])
        if outside[valid]:
            raise EdgeListError(f"{where(valid)}: endpoint out of range for n={n}: ({u}, {v})")
        if loop[valid]:
            raise EdgeListError(f"{where(valid)}: self-loop at node {u}")
        raise EdgeListError(f"{where(valid)}: weight must be finite and positive, got {float(cols[valid, 2])}")
    del outside, loop

    starts = np.flatnonzero(first)
    # bincount adds a repeated pair's weights left to right, in input order
    # (an infinite sum is reported below); with no repeats it only costs memory.
    pair_w = np.bincount(np.cumsum(first) - 1, weights=weights) if len(starts) < valid else weights[starts]
    del first, weights
    # The pairs are in (lo, hi) order, so a stable sort by row alone puts
    # each row's lower neighbours, ascending, ahead of its higher ones.
    pairs = order[starts]
    del order, starts
    src = np.concatenate((hi[pairs], lo[pairs]))
    dst = np.concatenate((lo[pairs], hi[pairs]))
    del lo, hi, pairs
    order = np.argsort(src, kind="stable")
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    del src
    indices = dst[order]
    del dst
    weights = np.concatenate((pair_w, pair_w))[order]
    del order
    for array in (indptr, indices, weights):
        array.flags.writeable = False
    with np.errstate(over="ignore"):  # an infinite sum takes the fsum route
        total_weight = float(pair_w.sum())
    if total_weight < 2.0**52 and (pair_w == np.trunc(pair_w)).all():
        # Every running sum of the 2m weights is an integer below 2**53.
        running = np.zeros(len(weights) + 1)
        np.cumsum(weights, out=running[1:])
        strengths = tuple(np.diff(running[indptr]).tolist())
    else:
        try:
            runs = _floats(weights)
            strengths = tuple(math.fsum(islice(runs, d)) for d in np.diff(indptr).tolist())
            total_weight = math.fsum(_floats(pair_w))
        except OverflowError:
            total_weight = math.inf
    if not math.isfinite(2.0 * total_weight):
        # Every merged weight and node strength is part of the total, so the
        # running total in input order leaves the float range first; when
        # only twice the total (the strength sum) does, twice the running
        # total does first.
        with np.errstate(over="ignore"):
            running = np.cumsum(cols[:, 2]) * (1.0 if math.isinf(total_weight) else 2.0)
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


# Entries turned into Python objects at a time, where a whole array of them
# would cost far more memory than the array.
_CHUNK = 1 << 12


def _floats(values: np.ndarray) -> Iterator[float]:
    """The entries of a float array as Python floats, made a chunk at a time."""
    for a in range(0, len(values), _CHUNK):
        yield from values[a : a + _CHUNK].tolist()


# The one edge-list grammar. Lines end at \n, \r\n or a lone \r. Tokens are
# separated by the bytes marked here: space, tab, vertical tab, form feed
# and the line ends.
_SPACE = np.zeros(256, dtype=bool)
_SPACE[list(b" \t\v\f\r\n")] = True
_HEADER_RE = re.compile(rb"#\s*nodes:\s*(\d+)\s*")
# Tokens are cast through a fixed-width bytes array as wide as the longest
# of them, up to these widths; a wider token is converted on its own, so
# that one long token cannot widen the whole array. Every integer written
# in 18 characters fits in int64.
_INT_WIDTH = 18
_TOKEN_WIDTH = 64
# Blank space after the last line, so that every token's window fits.
_PAD = b" " * _TOKEN_WIDTH
_INT64_MAX = int(np.iinfo(np.int64).max)


def _fixed_width(buf: np.ndarray, bounds: np.ndarray, tokens: np.ndarray, width: int, fill: bytes):
    """The tokens numbered `tokens` as one bytes array, as wide as the
    longest of them up to `width`; bounds holds each token's start and stop
    in buf. Each wider token is left as `fill`; their indices are returned,
    with their starts and stops."""
    starts = bounds[tokens, 0]
    lengths = bounds[tokens, 1] - starts
    wide = np.flatnonzero(lengths > width)
    spans = bounds[tokens[wide]].tolist()
    lengths[wide] = 0
    size = max(int(lengths.max(initial=0)), 1)
    chars = np.lib.stride_tricks.sliding_window_view(buf, size)[starts]
    chars[np.arange(size) >= lengths[:, None]] = 0
    strings = chars.view(f"S{size}").ravel()
    strings[wide] = fill
    return strings, wide, spans


def _first_failure(strings: np.ndarray, dtype) -> int:
    """Index of the first string that does not cast to dtype; one does."""
    lo, hi = 0, len(strings)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            strings[lo:mid].astype(dtype)
        except ValueError:
            hi = mid
        else:
            lo = mid
    return lo


def _numbers(data: bytes, buf: np.ndarray, bounds: np.ndarray, tokens: np.ndarray, kind) -> tuple[np.ndarray, int]:
    """kind(token) of each token, kind being int or float, as numpy's bytes
    cast calls them, and the index of the first token that kind rejects
    (len(tokens) when none does); the values from there on are meaningless.
    Integers past the int64 range are clamped to it."""
    integer = kind is int
    dtype = np.int64 if integer else np.float64
    strings, wide, spans = _fixed_width(buf, bounds, tokens, _INT_WIDTH if integer else _TOKEN_WIDTH, b"0")
    try:
        values = strings.astype(dtype)
        bad = len(strings)
    except ValueError:
        bad = _first_failure(strings, dtype)
        values = np.zeros(len(strings), dtype)
        values[:bad] = strings[:bad].astype(dtype)
    del strings
    for i, (a, b) in zip(wide.tolist(), spans):
        if i >= bad:
            break
        try:
            value = kind(data[a:b])
        except ValueError:
            bad = i
            break
        values[i] = min(max(value, -_INT64_MAX), _INT64_MAX) if integer else value
    return values, bad


def _dense_ids(data: bytes, buf: np.ndarray, bounds: np.ndarray, tokens: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Each token's rank among the distinct tokens in order of first
    appearance, and the distinct tokens in that order."""
    strings, wide, spans = _fixed_width(buf, bounds, tokens, _TOKEN_WIDTH, b"")
    keys, first, codes = np.unique(strings, return_index=True, return_inverse=True)
    del strings
    keys = keys.tolist()
    firsts: list[int] = []
    if wide.size:
        # keys[0] is the empty fill, which is no token: it is ranked last
        # and dropped. Each wide token is looked up on its own.
        first[0] = len(codes)
        more: dict[bytes, int] = {}
        for i, (a, b) in zip(wide.tolist(), spans):
            token = data[a:b]
            if token not in more:
                more[token] = len(keys)
                keys.append(token)
                firsts.append(i)
            codes[i] = more[token]
        first = np.append(first, firsts)
    order = np.argsort(first)
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    labels = [keys[k].decode("utf-8") for k in order[: len(order) - (wide.size > 0)].tolist()]
    return rank[codes], labels


def _read(source: str | bytes | IO) -> bytes:
    """The source's bytes, ending in a line end and then _PAD."""
    text = source if isinstance(source, (str, bytes)) else source.read()
    # A lone surrogate passes, to fail the UTF-8 check with its line.
    data = text.encode("utf-8", "surrogatepass") if isinstance(text, str) else text
    del text
    if not data.endswith((b"\n", b"\r")):
        data += b"\n"
    return data + _PAD


def load_edge_list(
    source: str | bytes | IO,
    *,
    merge_duplicates: bool = False,
    relabel: bool = False,
) -> Graph | tuple[Graph, list[str]]:
    """Parse UTF-8 edge-list text into a Graph.

    source is a str, bytes, or a text or binary stream. Lines end at \\n,
    \\r\\n or a lone \\r, and are "u v" or "u v w", with fields separated by
    ASCII spaces, tabs, vertical tabs and form feeds; missing weights
    default to 1.0. Lines whose first character is '#' are comments; a
    header comment "# nodes: N" fixes the node count, otherwise it is
    inferred as max id + 1. Ids are what int() accepts of the field's bytes,
    and weights what float() accepts.

    With relabel, node ids are arbitrary labels, mapped to dense ids in
    order of first appearance, and the result is (graph, labels) with
    labels[i] the label of node i, so results can be joined back to the
    input; the header is then ignored.

    Every error names the 1-based line it is on.
    """
    data = _read(source)
    buf = np.frombuffer(data, dtype=np.uint8)
    is_end = buf == ord("\n")
    lone_cr = buf == ord("\r")
    lone_cr[:-1] &= ~is_end[1:]
    ends = np.flatnonzero(is_end | lone_cr)  # line k + 1 runs up to ends[k]
    del is_end, lone_cr
    if buf.max() >= 0x80:
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise EdgeListError(f"line {np.searchsorted(ends, exc.start) + 1}: {exc}") from None

    def text(k: int) -> str:
        return data[ends[k - 1] + 1 if k else 0 : ends[k]].decode("utf-8").rstrip("\r")

    comment = np.append(buf[0], buf[ends[:-1] + 1]) == ord("#")
    header_n: int | None = None
    header_line = 0
    for k in np.flatnonzero(comment).tolist():
        found = _HEADER_RE.fullmatch(text(k).encode())
        if found:
            header_n, header_line = int(found[1]), k + 1

    # Bytes turn from space to token at each token's start and back at its
    # stop: bounds[t] is (start, stop) of token t, and cum[k] counts the
    # tokens that start before ends[k]. Positions fit int32 below 2 GiB.
    bounds = np.flatnonzero(np.diff(_SPACE[buf], prepend=True))
    bounds = bounds.astype(np.int32 if len(data) < 2**31 else np.int64).reshape(-1, 2)
    cum = np.searchsorted(bounds[:, 0], ends)
    counts = np.diff(cum, prepend=0)
    counts[comment] = 0

    faults: list[tuple[int, int, str]] = []  # (line index, rank within a line, message)
    lines = np.flatnonzero(counts)
    fields = counts[lines]
    malformed = np.flatnonzero((fields < 2) | (fields > 3))
    if malformed.size:
        faults.append((int(lines[malformed[0]]), 0, "expected 'u v' or 'u v w', got {!r}"))
    nul = data.find(0)
    while nul >= 0:  # a bytes array cannot hold a token's trailing NUL
        k = int(np.searchsorted(ends, nul))
        if not comment[k]:
            faults.append((k, 0, "NUL byte in {!r}"))
            break
        nul = data.find(0, int(ends[k]))
    rows = lines[(fields == 2) | (fields == 3)]  # the line index of each edge
    first = cum[rows] - counts[rows]  # the number of its first token
    weighted = np.flatnonzero(counts[rows] == 3)
    del cum, counts, lines, fields, comment
    pair = np.repeat(first, 2)
    pair[1::2] += 1  # u and v of each edge, in file order
    weight_at = first[weighted] + 2
    del first

    if relabel:
        ids, labels = _dense_ids(data, buf, bounds, pair)
    else:
        ids, bad = _numbers(data, buf, bounds, pair, int)
        if bad < len(ids):
            faults.append((int(rows[bad // 2]), 1, "node ids must be integers: {!r}"))
        negative = np.flatnonzero(ids[:bad] < 0)
        if negative.size:
            faults.append((int(rows[negative[0] // 2]), 2, "node ids must be non-negative: {!r}"))
    weights, bad = _numbers(data, buf, bounds, weight_at, float)
    if bad < len(weights):
        faults.append((int(rows[weighted[bad]]), 3, "bad weight: {!r}"))
    if faults:
        k, _rank, message = min(faults)
        raise EdgeListError(f"line {k + 1}: {message.format(text(k))}")

    cols = np.empty((len(rows), 3))
    cols[:, 0] = ids[0::2]
    cols[:, 1] = ids[1::2]
    cols[:, 2] = 1.0
    cols[weighted, 2] = weights
    del weights, weighted, weight_at

    def where(idx: int) -> str:
        return f"line {rows[idx] + 1}"

    at = -1
    if relabel:
        n = len(labels)
    elif header_n is not None:
        n = header_n
    else:
        top = -1
        if len(ids):
            at = int(np.argmax(ids))
            top = int(ids[at])
            if top == _INT64_MAX:  # clamped: read those ids again, exactly
                for i in np.flatnonzero(ids == top).tolist():
                    a, b = bounds[pair[i]].tolist()
                    if int(data[a:b]) > top:
                        top, at = int(data[a:b]), i
        n = top + 1
    del ids, bounds, pair, buf, data, ends
    try:
        graph = build_graph(n, cols, merge_duplicates=merge_duplicates, where=where)
    except NodeCountError as exc:
        # The count comes from the header, or else from the largest node id.
        origin = f"line {header_line}" if header_n is not None else where(at // 2)
        raise NodeCountError(f"{origin}: {exc}") from None
    return (graph, labels) if relabel else graph


def dump_edge_list(graph: Graph) -> str:
    """Serialize a Graph to edge-list text that reloads identically."""
    us, vs, ws = graph.edge_arrays()
    parts = [f"# nodes: {graph.node_count}\n"]
    for a in range(0, len(us), _CHUNK):
        b = a + _CHUNK
        parts.append("".join(f"{u} {v} {w!r}\n" for u, v, w in zip(us[a:b].tolist(), vs[a:b].tolist(), ws[a:b].tolist())))
    return "".join(parts)
