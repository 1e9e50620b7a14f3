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
from collections import defaultdict
from dataclasses import dataclass
from itertools import islice
from typing import IO, Callable, Iterable, Iterator, Sequence

import numpy as np


class EdgeListError(ValueError):
    """Malformed edge input: bad endpoint, weight, duplicate, or parse failure."""


class NodeCountError(EdgeListError):
    """A node count too large to allocate or to key a pair by."""


# The largest n whose pair keys lo * n + hi, up to n * n - 1, fit int64.
_MAX_NODES = math.isqrt(2**63 - 1)


def _index_dtype(size: int) -> type:
    """int32 when size < 2**31, else int64: the dtype of positions in a
    text of size bytes, and of the CSR indices of a graph of size nodes."""
    return np.int32 if size < 2**31 else np.int64


@dataclass(frozen=True, eq=False)
class Graph:
    """Weighted undirected graph in CSR form.

    The neighbours of u are indices[indptr[u]:indptr[u + 1]], sorted by id,
    and weights holds their edge weights at the same positions. indptr is
    int64; indices is int32 when node_count < 2**31 and int64 above, the
    dtype _index_dtype(node_count) picks.
    strengths[u] is the math.fsum of u's edge weights (the degree when all
    weights are 1); total_weight is the math.fsum of the weights of the
    distinct edges. Every array a graph holds is made read-only when it is
    constructed, by build_graph or by dataclasses.replace.

    self_weights is None except on a graph that partition.aggregate
    collapsed: there self_weights[u] is the internal weight of the
    community that node u stands for, and like a self-loop it counts twice
    in strengths[u] and once in total_weight.
    """

    node_count: int
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    strengths: np.ndarray
    total_weight: float
    self_weights: np.ndarray | None = None

    def __post_init__(self):
        for array in (self.indptr, self.indices, self.weights, self.strengths, self.self_weights):
            if array is not None:
                array.flags.writeable = False

    @property
    def edge_count(self) -> int:
        return len(self.indices) // 2

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(us, vs, ws): int64 endpoint and float64 weight columns, each edge
        once with u < v, ordered by (u, v). build_graph takes these columns,
        so build_graph(n, *g.edge_arrays()) rebuilds g bar any self weights."""
        m = self.edge_count
        us, vs, ws = np.empty(m, dtype=np.int64), np.empty(m, dtype=np.int64), np.empty(m)
        at = 0
        for u, v, w in self._edge_blocks():
            us[at : at + len(u)], vs[at : at + len(u)], ws[at : at + len(u)] = u, v, w
            at += len(u)
            del u, v, w  # before the next block is made
        return us, vs, ws

    def _edge_blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """edge_arrays in consecutive pieces, each read from a run of CSR rows
        that holds at most _BLOCK entries, or from one longer row."""
        indptr, indices = self.indptr, self.indices
        end = int(np.searchsorted(indptr, indptr[-1]))  # the rows from here on are empty
        r0 = 0
        while r0 < end:
            r1 = min(max(int(np.searchsorted(indptr, indptr[r0] + _BLOCK, "right")) - 1, r0 + 1), end)
            a, b = indptr[r0], indptr[r1]
            rows = np.repeat(np.arange(r0, r1, dtype=np.int64), np.diff(indptr[r0 : r1 + 1]))
            upper = indices[a:b] > rows
            rows = rows[upper]
            yield rows, indices[a:b][upper], self.weights[a:b][upper]
            r0 = r1


def _edge_index(idx: int) -> str:
    return f"edge {idx}"


def build_graph(
    n: int,
    us: np.ndarray,
    vs: np.ndarray,
    ws: np.ndarray,
    *,
    merge_duplicates: bool = False,
    where: Callable[[int], str] = _edge_index,
) -> Graph:
    """Build a Graph over nodes 0..n-1 from its edges' columns: integer
    endpoint arrays us and vs and a weight array ws, all flat and of one
    length, so that build_graph(n, *g.edge_arrays()) rebuilds g.

    Isolated nodes are permitted, up to n = isqrt(2**63 - 1), so that a
    pair's sort key lo * n + hi fits int64. Duplicate undirected pairs are
    rejected unless merge_duplicates is set, in which case one bincount
    sums each pair's weights in input order. Errors name the first
    offending edge in input order as where(index), by default its index.
    The graph's indices are int32 when n < 2**31, and int64 above; the pair
    keys are int64 either way.

    Two stable single-key sorts order the edges: pairs by that key, so a
    repeated pair keeps input order, then the CSR entries by row alone,
    a radix sort of 16-bit row ids up to 2**16 nodes. When every merged
    weight is an integer and their sum is below 2**52, strengths come from
    one cumulative sum, which is then exact and so equal to the math.fsum
    of each row; otherwise each row is fsum'd.
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
    us, vs, ws = np.asarray(us), np.asarray(vs), np.asarray(ws, dtype=np.float64)
    if us.ndim != 1 or vs.shape != us.shape or ws.shape != us.shape:
        raise EdgeListError(f"us, vs and ws must be flat arrays of one length, got {us.shape}, {vs.shape}, {ws.shape}")
    if us.dtype.kind not in "iu" or vs.dtype.kind not in "iu":
        raise EdgeListError(f"endpoints must be integers, got {us.dtype} and {vs.dtype}")

    loop = us == vs
    lo, hi = np.minimum(us, vs), np.maximum(us, vs)
    outside = ~((lo >= 0) & (hi < n))
    faults = np.flatnonzero(outside | loop | ~(np.isfinite(ws) & (ws > 0.0)))
    valid = int(faults[0]) if faults.size else len(ws)
    del faults

    # Every edge before the first fault is well formed; a duplicate among
    # them comes first in input order.
    index = _index_dtype(n)
    lo, hi = lo[:valid].astype(index), hi[:valid].astype(index)
    key = lo.astype(np.int64)
    key *= n
    key += hi
    order = np.argsort(key, kind="stable")  # a repeated pair keeps input order
    key, weights = key[order], ws[order]
    first = np.ones(valid, dtype=bool)
    first[1:] = key[1:] != key[:-1]
    del key
    if not merge_duplicates and not first.all():
        idx = int(order[~first].min())
        raise EdgeListError(f"{where(idx)}: duplicate edge {lo[idx]}-{hi[idx]}")
    if valid < len(ws):
        u, v = int(us[valid]), int(vs[valid])
        if outside[valid]:
            raise EdgeListError(f"{where(valid)}: endpoint out of range for n={n}: ({u}, {v})")
        if loop[valid]:
            raise EdgeListError(f"{where(valid)}: self-loop at node {u}")
        raise EdgeListError(f"{where(valid)}: weight must be finite and positive, got {float(ws[valid])}")
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
    p = len(pairs)
    # Up to 2**16 nodes the row ids are 16-bit, which numpy's stable
    # argsort orders by radix sort, in half the bytes.
    src, dst = np.empty(2 * p, np.uint16 if n <= 1 << 16 else index), np.empty(2 * p, index)
    src[:p] = dst[p:] = hi[pairs]
    src[p:] = dst[:p] = lo[pairs]
    del lo, hi, pairs
    order = np.argsort(src, kind="stable")
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    del src
    indices = dst[order]
    del dst
    np.subtract(order, p, out=order, where=order >= p)  # entry e of src and dst is pair e mod p
    weights = pair_w[order]
    del order
    with np.errstate(over="ignore"):  # an infinite sum takes the fsum route
        total_weight = float(pair_w.sum())
    if total_weight < 2.0**52 and (pair_w == np.trunc(pair_w)).all():
        # Every running sum of the 2m weights is an integer below 2**53.
        running = np.zeros(len(weights) + 1)
        np.cumsum(weights, out=running[1:])
        strengths = np.diff(running[indptr])
    else:
        try:
            runs = _floats(weights)
            strengths = np.fromiter((math.fsum(islice(runs, d)) for d in np.diff(indptr).tolist()), np.float64, n)
            total_weight = math.fsum(_floats(pair_w))
        except OverflowError:
            total_weight = math.inf
    if not math.isfinite(2.0 * total_weight):
        # Every merged weight and node strength is part of the total, so the
        # running total in input order leaves the float range first; when
        # only twice the total (the strength sum) does, twice the running
        # total does first.
        with np.errstate(over="ignore"):
            running = np.cumsum(ws) * (1.0 if math.isinf(total_weight) else 2.0)
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
# CSR entries that _edge_blocks reads at a time: enough to spread numpy's
# per-call cost, few enough that a block's temporaries stay small.
_BLOCK = 1 << 14


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
# Tokens are cast to numbers, and ranked as labels, through one fixed-width
# bytes array as wide as the longest of them, up to this width.
_TOKEN_WIDTH = 64
# Bytes of text scanned for token bounds, and tokens cast to numbers, at a
# time: small next to a large text, so that each step's temporaries are.
_PARSE_BLOCK = 1 << 16
# Blank space after the last line, so that every token's window fits.
_PAD = b" " * _TOKEN_WIDTH
_INT64_MAX = int(np.iinfo(np.int64).max)


def _strings(buf: np.ndarray, spans: np.ndarray) -> np.ndarray | None:
    """The tokens whose (start, stop) rows in buf are spans, as one bytes
    array as wide as the longest of them; None when one is wider than
    _TOKEN_WIDTH."""
    starts = spans[:, 0]
    lengths = spans[:, 1] - starts
    size = max(int(lengths.max(initial=0)), 1)
    if size > _TOKEN_WIDTH:
        return None
    chars = np.lib.stride_tricks.sliding_window_view(buf, size)[starts]
    chars[np.arange(size) >= lengths[:, None]] = 0
    return chars.view(f"S{size}").ravel()


def _numbers(data: bytes, buf: np.ndarray, bounds: np.ndarray, tokens: np.ndarray, kind) -> tuple[np.ndarray, int]:
    """kind(token) of each token, kind being int or float, and the index of
    the first token that kind rejects (len(tokens) when none does); the
    values from there on are meaningless. Integers past the int64 range are
    clamped to it. Tokens are cast _PARSE_BLOCK at a time by numpy's bytes
    cast, which calls kind; a block that the cast cannot take is read with
    kind one token at a time."""
    integer = kind is int
    values = np.empty(len(tokens), np.int64 if integer else np.float64)
    for t in range(0, len(tokens), _PARSE_BLOCK):
        spans = bounds[tokens[t : t + _PARSE_BLOCK]]
        strings = _strings(buf, spans)
        if strings is not None:
            try:
                values[t : t + len(spans)] = strings.astype(values.dtype)
                continue
            except (ValueError, OverflowError):  # a token kind rejects, or an id past int64
                pass
        for i, (a, b) in enumerate(spans.tolist(), t):
            try:
                value = kind(data[a:b])
            except ValueError:
                return values, i
            values[i] = min(max(value, -_INT64_MAX), _INT64_MAX) if integer else value
    return values, len(tokens)


def _dense_ids(data: bytes, buf: np.ndarray, bounds: np.ndarray, tokens: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Each token's rank among the distinct tokens in order of first
    appearance, and the distinct tokens in that order. One np.unique ranks
    them when every token fits _TOKEN_WIDTH, else one dict."""
    strings = _strings(buf, bounds[tokens])
    if strings is None:
        ranks: defaultdict[bytes, int] = defaultdict()
        ranks.default_factory = ranks.__len__
        codes = np.empty(len(tokens), dtype=np.int64)
        for t in range(0, len(tokens), _PARSE_BLOCK):
            codes[t : t + _PARSE_BLOCK] = [ranks[data[a:b]] for a, b in bounds[tokens[t : t + _PARSE_BLOCK]].tolist()]
        return codes, [key.decode("utf-8") for key in ranks]
    keys, first, codes = np.unique(strings, return_index=True, return_inverse=True)
    del strings
    order = np.argsort(first)
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return rank[codes], [key.decode("utf-8") for key in keys[order].tolist()]


def _token_bounds(buf: np.ndarray) -> np.ndarray:
    """(start, stop) of each token in buf, a row per token, in the dtype
    _index_dtype picks for buf's length. Bytes turn from space to token at
    each token's start and back at its stop. The turns are found
    _PARSE_BLOCK bytes at a time, counted in one pass and written in a
    second, so that no mask is as long as the text."""

    def turns(a: int) -> np.ndarray:
        return np.diff(_SPACE[buf[a : a + _PARSE_BLOCK]], prepend=_SPACE[buf[a - 1]] if a else True)

    blocks = range(0, len(buf), _PARSE_BLOCK)
    bounds = np.empty(sum(np.count_nonzero(turns(a)) for a in blocks), _index_dtype(len(buf)))
    at = 0
    for a in blocks:
        found = np.flatnonzero(turns(a))
        bounds[at : at + len(found)] = found + a
        at += len(found)
    return bounds.reshape(-1, 2)


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
    # Every array of text positions, or of one entry per line, edge or
    # token, takes the dtype _index_dtype picks for the text's length.
    index = _index_dtype(len(data))
    # Line ends are each \n and each \r that no \n follows; _PAD keeps
    # cr + 1 in range. One mask as long as the text is held at a time.
    cr = np.flatnonzero(buf == ord("\r"))
    ends = np.concatenate((np.flatnonzero(buf == ord("\n")), cr[buf[cr + 1] != ord("\n")]))
    del cr
    ends.sort(kind="stable")  # sorted before the cast: measured lower peak RSS
    ends = ends.astype(index)  # line k + 1 runs up to ends[k]
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

    # bounds[t] is (start, stop) of token t, cum[k] counts the tokens that
    # start before ends[k], and counts[k] those on line k + 1.
    bounds = _token_bounds(buf)
    cum = np.searchsorted(bounds[:, 0], ends).astype(index)
    counts = np.diff(cum, prepend=index(0))
    counts[comment] = 0

    faults: list[tuple[int, int, str]] = []  # (line index, rank within a line, message)
    malformed = np.flatnonzero((counts == 1) | (counts > 3))
    if malformed.size:
        faults.append((int(malformed[0]), 0, "expected 'u v' or 'u v w', got {!r}"))
    nul = data.find(0)
    while nul >= 0:  # a bytes array cannot hold a token's trailing NUL
        k = int(np.searchsorted(ends, nul))
        if not comment[k]:
            faults.append((k, 0, "NUL byte in {!r}"))
            break
        nul = data.find(0, int(ends[k]))
    rows = np.flatnonzero((counts == 2) | (counts == 3)).astype(index)  # the line index of each edge
    first = cum[rows] - counts[rows]  # the number of its first token
    weighted = np.flatnonzero(counts[rows] == 3).astype(index)
    del cum, counts, comment
    pair = np.repeat(first, 2)
    pair[1::2] += 1  # u and v of each edge, in file order
    weight_at = first[weighted] + 2
    del first

    weights, bad = _numbers(data, buf, bounds, weight_at, float)
    del weight_at
    if bad < len(weights):
        faults.append((int(rows[weighted[bad]]), 3, "bad weight: {!r}"))
    exact = None  # the first edge with an id past the header's count, and its id tokens
    if relabel:
        ids, labels = _dense_ids(data, buf, bounds, pair)
    else:
        ids, bad = _numbers(data, buf, bounds, pair, int)
        if bad < len(ids):
            faults.append((int(rows[bad // 2]), 1, "node ids must be integers: {!r}"))
        # Read as unsigned, a negative id lies past every count, so one pass
        # finds the negative ids and those past the header's count.
        beyond = np.flatnonzero(ids[:bad].view(np.uint64) >= (2**63 if header_n is None else min(header_n, 2**63)))
        negative = beyond[ids[beyond] < 0]
        if negative.size:
            faults.append((int(rows[negative[0] // 2]), 2, "node ids must be non-negative: {!r}"))
        elif beyond.size:  # build_graph prints ids exactly, bar one that _numbers clamped past int64
            edge = int(beyond[0]) // 2
            exact = edge, [data[a:b] for a, b in bounds[pair[2 * edge : 2 * edge + 2]].tolist()]
    if faults:
        k, _rank, message = min(faults)
        raise EdgeListError(f"line {k + 1}: {message.format(text(k))}")

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
    del bounds, pair, buf, data, ends  # before the graph's arrays are made

    ws = np.ones(len(rows))
    ws[weighted] = weights
    del weights, weighted

    def where(idx: int) -> str:
        return f"line {rows[idx] + 1}"

    try:
        graph = build_graph(n, ids[0::2], ids[1::2], ws, merge_duplicates=merge_duplicates, where=where)
    except NodeCountError as exc:
        # The count comes from the header, or else from the largest node id.
        origin = f"line {header_line}" if header_n is not None else where(at // 2)
        raise NodeCountError(f"{origin}: {exc}") from None
    except EdgeListError as exc:
        # build_graph names the first fault in file order: on that edge's
        # line, it is the edge's range error, whose ids are written exactly.
        if exact is None or not str(exc).startswith(f"{where(exact[0])}: "):
            raise
        u, v = map(int, exact[1])
        raise EdgeListError(f"{where(exact[0])}: endpoint out of range for n={n}: ({u}, {v})") from None
    return (graph, labels) if relabel else graph


def dump_edge_list(graph: Graph) -> str:
    """Serialize a Graph to edge-list text that reloads identically: a
    "# nodes: N" header, then f"{u} {v} {w!r}\\n" for each edge in
    edge_arrays order, written by text_rows."""
    return text_rows(f"# nodes: {graph.node_count}\n", graph._edge_blocks(), " ")


def text_rows(head: str, blocks: Iterable[Sequence[np.ndarray]], sep: str) -> str:
    """head, then one line per row of each block of equally long columns:
    the row's entries joined by sep, exactly as an f-string writes them.
    Integer columns must be non-negative; float64 columns are written as
    their repr.

    A block becomes one uint8 matrix, a row per line, whose unused bytes
    are NUL: integers are split into decimal digits, NUL-padded on the
    left, and each distinct float of a block (by bit pattern, so that
    equal bits give equal text) is repr'd once and gathered back to its
    rows. Dropping the NULs leaves the text.
    """
    parts = [head]
    for columns in blocks:
        if not len(columns[0]):
            continue
        seps = np.full((len(columns[0]), 1), ord(sep), dtype=np.uint8)
        pieces = [_float_text(c) if c.dtype.kind == "f" else _decimal(c) for c in columns]
        rows = np.hstack([part for piece in pieces for part in (piece, seps)])
        rows[:, -1] = ord("\n")
        parts.append(rows.tobytes().translate(None, b"\0").decode("ascii"))
    return "".join(parts)


def _decimal(values: np.ndarray) -> np.ndarray:
    """Non-negative integers as rows of ASCII digits, NUL-padded on the left."""
    top = int(values.max(initial=0))
    width = len(str(top))
    out = np.empty((len(values), width), dtype=np.uint8)
    rest = values.astype(np.uint32 if top < 2**32 else np.uint64)
    for j in range(width - 1, -1, -1):
        quotient = rest // 10
        out[:, j] = rest - quotient * 10
        rest = quotient
    out += ord("0")
    for j in range(width - 1):  # a leading zero becomes NUL
        out[:, j] *= values >= 10 ** (width - 1 - j)
    return out


def _float_text(values: np.ndarray) -> np.ndarray:
    """Floats as rows of their repr's ASCII bytes, NUL-padded on the right."""
    keys, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = list(map(repr, keys.view(np.float64).tolist()))
    return np.array(texts, dtype="S").view(np.uint8).reshape(len(keys), -1)[inverse]
