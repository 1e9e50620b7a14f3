import io
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qicd
from qicd import (
    EdgeListError,
    Partition,
    PlantedSpec,
    aggregate,
    build_graph,
    degree_preserving_rewire,
    dump_edge_list,
    generate_planted,
    load_edge_list,
)
from qicd.cli import main
from qicd.graph import NodeCountError, _index_dtype, text_rows
from qicd.detect import _flat
from qicd.partition import labels_to_csv

from conftest import edge_columns, make_random_graph, traced_bytes


def load_relabeled(text):
    return load_edge_list(text, relabel=True)


def test_single_edge():
    g = build_graph(2, *edge_columns([(0, 1, 1.0)]))
    assert g.total_weight == 1.0
    assert g.strengths.tolist() == [1.0, 1.0]
    assert g.indptr.tolist() == [0, 1, 2]
    assert g.indices.tolist() == [1, 0]
    assert g.weights.tolist() == [1.0, 1.0]


def test_triangle():
    g = build_graph(3, *edge_columns([(0, 1, 1), (1, 2, 1), (0, 2, 1)]))
    assert g.total_weight == 3.0
    assert g.strengths.tolist() == [2.0, 2.0, 2.0]


def test_isolated_nodes_allowed():
    g = build_graph(4, *edge_columns([(0, 1, 2.0)]))
    assert g.node_count == 4
    assert g.strengths[2] == 0.0
    # the isolated last node has an empty neighbour run
    assert g.indptr[-1] == g.indptr[-2] == 2


def test_self_loop_rejected():
    with pytest.raises(EdgeListError, match="edge 0: self-loop"):
        build_graph(3, *edge_columns([(0, 0, 1.0)]))


def test_out_of_range_rejected():
    with pytest.raises(EdgeListError, match="edge 1: endpoint out of range"):
        build_graph(3, *edge_columns([(0, 1, 1.0), (1, 3, 1.0)]))


def test_float_endpoints_are_refused():
    with pytest.raises(EdgeListError, match="^endpoints must be integers, got float64 and int64$"):
        build_graph(3, np.array([0.0]), np.array([1]), np.array([1.0]))
    with pytest.raises(EdgeListError, match="^endpoints must be integers, got int64 and float64$"):
        build_graph(3, np.array([0]), np.array([1.0]), np.array([1.0]))


@pytest.mark.parametrize(
    "us, vs, ws",
    [
        ([0, 1], [1], [1.0]),
        ([0], [1], [1.0, 2.0]),
        ([[0, 1]], [[1, 2]], [[1.0, 1.0]]),
        ([0, 1], [1, 2], [[1.0, 1.0]]),
    ],
)
def test_columns_that_are_not_flat_or_of_one_length_are_refused(us, vs, ws):
    with pytest.raises(EdgeListError, match=r"^us, vs and ws must be flat arrays of one length, got \("):
        build_graph(3, np.array(us), np.array(vs), np.array(ws))


def test_bad_weight_rejected():
    with pytest.raises(EdgeListError, match="edge 0: weight"):
        build_graph(2, *edge_columns([(0, 1, 0.0)]))
    with pytest.raises(EdgeListError, match="edge 0: weight"):
        build_graph(2, *edge_columns([(0, 1, -2.0)]))
    with pytest.raises(EdgeListError, match="edge 0: weight"):
        build_graph(2, *edge_columns([(0, 1, math.nan)]))


def test_duplicate_rejected_with_index():
    with pytest.raises(EdgeListError, match="edge 2: duplicate edge 0-1"):
        build_graph(3, *edge_columns([(0, 1, 1.0), (1, 2, 1.0), (1, 0, 1.0)]))


def test_every_graph_array_is_read_only():
    # Integer weights take build_graph's cumulative-sum route to strengths,
    # fractional ones its per-row fsum route.
    rnd = random.Random(3)
    plain = build_graph(6, *edge_columns([(u, v, 1.0) for u in range(6) for v in range(u + 1, 6) if (u + v) % 3]))
    pairs = [(u, v) for u in range(6) for v in range(u + 1, 6)]
    fractional = build_graph(6, *edge_columns([(u, v, rnd.uniform(0.1, 3.0)) for u, v in pairs]))
    once = aggregate(fractional, Partition(fractional, [0, 0, 1, 1, 2, 2]))
    graphs = [
        plain,
        fractional,
        load_edge_list("0 1\n1 2 2.5\n"),
        load_edge_list("a b\nb c\n", relabel=True)[0],
        once,
        aggregate(once, Partition(once, [0, 0, 1])),
        aggregate(plain, Partition(plain, [0, 1, 0, 1, 0, 1])),
        degree_preserving_rewire(plain, seed=1),
    ]
    for graph in graphs:
        arrays = ["indptr", "indices", "weights", "strengths"]
        arrays += ["self_weights"] if graph.self_weights is not None else []
        for name in arrays:
            assert isinstance(getattr(graph, name), np.ndarray), name
            assert getattr(graph, name).flags.writeable is False, name
    assert sum(g.self_weights is not None for g in graphs) == 3


def test_merge_duplicates_sums_weights():
    g = build_graph(2, *edge_columns([(0, 1, 1.0), (1, 0, 2.5)]), merge_duplicates=True)
    assert g.total_weight == 3.5
    assert g.strengths.tolist() == [3.5, 3.5]
    # A pair listed three times sums in input order: (0.1 + 0.2) + 0.3 is
    # 0.6000000000000001, while 0.1 + (0.2 + 0.3) would be 0.6.
    g = build_graph(3, *edge_columns([(0, 1, 0.1), (1, 2, 1.0), (1, 0, 0.2), (0, 1, 0.3)]), merge_duplicates=True)
    assert g.edge_arrays()[2].tolist() == [(0.1 + 0.2) + 0.3, 1.0]
    assert g.total_weight == math.fsum([(0.1 + 0.2) + 0.3, 1.0])
    # a merged weight past the float range is an error, not an infinite edge
    with pytest.raises(EdgeListError, match="edge 1: the edge weights sum past the float range"):
        build_graph(2, *edge_columns([(0, 1, 1e308), (1, 0, 1e308)]), merge_duplicates=True)


def test_invariants_on_random_graphs():
    rnd = random.Random(7)
    for _ in range(60):
        g = make_random_graph(rnd, n_max=12)
        runs = [range(g.indptr[u], g.indptr[u + 1]) for u in range(g.node_count)]
        # symmetric adjacency
        pairs = {(u, int(g.indices[i])): g.weights[i] for u in range(g.node_count) for i in runs[u]}
        for (u, v), w in pairs.items():
            assert pairs[(v, u)] == w
        # strengths match adjacency sums; total weight is half the strength sum
        for u in range(g.node_count):
            assert abs(g.strengths[u] - sum(g.weights[i] for i in runs[u])) < 1e-12
        total = sum(g.strengths) / 2.0
        assert abs(g.total_weight - total) <= 1e-9 * max(1.0, abs(total))
        # adjacency lists sorted by neighbor id
        for u in range(g.node_count):
            nbrs = [g.indices[i] for i in runs[u]]
            assert nbrs == sorted(nbrs)


def test_load_default_weights():
    g = load_edge_list("0 1\n1 2\n")
    assert g.node_count == 3
    assert g.total_weight == 2.0


def test_load_header_and_weight():
    g = load_edge_list("# nodes: 5\n0 1 2.5\n")
    assert g.node_count == 5
    assert g.total_weight == 2.5
    assert sum(1 for s in g.strengths if s == 0.0) == 3


def test_load_parse_error_reports_line():
    with pytest.raises(EdgeListError, match="line 1"):
        load_edge_list("0 x\n")
    with pytest.raises(EdgeListError, match="line 3"):
        load_edge_list("0 1\n# comment\n0 1 2 3\n")


@pytest.mark.parametrize(
    "loader, text, message",
    [
        (load_edge_list, "# nodes: 3\n# c\n0 1\n0 5\n", "line 4: endpoint out of range"),
        (load_edge_list, "0 1\n\n1 1\n", "line 3: self-loop"),
        (load_edge_list, "0 1\n# c\n\n1 2\n1 0\n", "line 5: duplicate edge 0-1"),
        (load_edge_list, "0 1\n\n# c\n1 2 -2\n", "line 4: weight must be finite and positive"),
        (load_relabeled, "a b\n\nb b\n", "line 3: self-loop"),
        (load_relabeled, "# c\na b\n\nb a\n", "line 4: duplicate edge 0-1"),
        (load_relabeled, "a b\n# c\nb c nan\n", "line 3: weight must be finite and positive"),
        # several faults: the first in input order is named, whatever its kind
        (load_edge_list, "# nodes: 5\n0 1\n1 2\n2 3\n0 9\n3 3\n1 0\n", "line 5: endpoint out of range"),
        (load_edge_list, "# nodes: 5\n0 1\n1 2\n2 3\n1 0\n3 4\n0 9\n", "line 5: duplicate edge 0-1"),
        # a running sum leaves the float range: node 1's strength, then only the total
        (load_edge_list, "0 1 1e308\n1 2 1e308\n2 3\n", "line 2: the edge weights sum past the float range"),
        (load_edge_list, "0 1 1e308\n2 3 1e308\n", "line 2: the edge weights sum past the float range"),
        # twice the total, the strength sum that modularity divides by, leaves it
        (load_edge_list, "0 1 5e307\n1 2 5e307\n2 3\n", "line 2: the edge weights sum past the float range"),
        (load_edge_list, "0 1\n# nodes: 99999999999999999999\n", "line 2: node count 99999999999999999999 is too large"),
        # without a header, the count comes from the line holding the largest id
        (load_edge_list, "0 1\n1 99999999999999999999\n", "line 2: node count 100000000000000000000 is too large"),
        # an id past the header's count on the line of a bad id or a NUL byte
        (load_edge_list, "# nodes: 5\n12 x\n", "^line 2: node ids must be integers: '12 x'$"),
        (load_edge_list, "# nodes: 1\n12 1\x00\n", r"^line 2: NUL byte in '12 1\\x00'$"),
    ],
)
def test_load_validation_errors_report_file_line(loader, text, message):
    with pytest.raises(EdgeListError, match=message):
        loader(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("# nodes: 3\n0 9007199254740993\n", "line 2: endpoint out of range for n=3: (0, 9007199254740993)"),
        ("# nodes: 3\n0 99999999999999999999\n", "line 2: endpoint out of range for n=3: (0, 99999999999999999999)"),
        ("# nodes: 3\n0 1\n99999999999999999999 2\n",
         "line 3: endpoint out of range for n=3: (99999999999999999999, 2)"),
        # a fault earlier in the file is still the one named
        ("# nodes: 3\n2 2\n0 99999999999999999999\n", "line 2: self-loop at node 2"),
    ],
    ids=["past-2**53", "past-int64", "first-endpoint", "earlier-fault"],
)
def test_out_of_range_ids_are_named_as_written(text, message):
    """An id past the header's count is named by its exact value, which a
    float64 would round past 2**53 and int64 cannot hold past 2**63 - 1."""
    with pytest.raises(EdgeListError) as info:
        load_edge_list(text)
    assert str(info.value) == message


def test_oversized_header_is_a_data_error_under_a_memory_limit(tmp_path):
    """A header count whose arrays cannot be allocated (24 GB here, below
    the pair-key bound, so that the allocation itself fails) exits 2 naming
    the header line. The child's address space is capped so that no host
    ever really allocates it."""
    (tmp_path / "g.el").write_text("# nodes: 3000000000\n0 1\n")
    package_root = str(Path(qicd.__file__).resolve().parent.parent)
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (16 << 30, 16 << 30))\n"
        "from qicd.cli import main\n"
        "sys.exit(main(['detect', '--graph', 'g.el', '--method', 'leiden', '--out', 'p.csv']))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 2, result.stderr
    assert result.stderr.strip() == "line 1: node count 3000000000 is too large"


# The smallest node count whose pair keys lo * n + hi could pass int64.
TOO_MANY_NODES = 3_037_000_500


def test_a_node_count_past_the_pair_key_range_fails_before_any_allocation():
    # isqrt(2**63 - 1) nodes would be accepted, at about 24 GB, so that
    # count is not tried.
    tracemalloc.start()
    try:
        with pytest.raises(NodeCountError, match=f"^node count {TOO_MANY_NODES} is too large$"):
            build_graph(TOO_MANY_NODES, *edge_columns([]))
        with pytest.raises(NodeCountError, match=f"^line 1: node count {TOO_MANY_NODES} is too large$"):
            load_edge_list(f"# nodes: {TOO_MANY_NODES}\n0 1\n")
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_load_tolerates_comments_blanks_and_crlf():
    g = load_edge_list("# a comment\r\n\r\n0 1 1.5\r\n2\t3\t2.0\r\n")
    assert g.node_count == 4
    assert g.total_weight == 3.5


def test_load_rejects_negative_ids():
    with pytest.raises(EdgeListError, match="line 1"):
        load_edge_list("-1 2\n")


def test_load_from_stream():
    g = load_edge_list(io.StringIO("0 1\n"))
    assert g.total_weight == 1.0


def test_string_stream_and_bytes_sources_number_lines_alike():
    # \x0c is a separator, not a line end, in every kind of source.
    text = "0 1\x0c\n1 2\n0 2 x\n"
    for source in (text, io.StringIO(text), text.encode(), io.BytesIO(text.encode())):
        with pytest.raises(EdgeListError, match="^line 3: bad weight"):
            load_edge_list(source)
    # \r\n and a lone \r each end one line.
    with pytest.raises(EdgeListError, match="^line 3: bad weight"):
        load_edge_list("0 1\r1 2\r\n0 2 x\n")


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(["edge", "blank", "comment"]), st.sampled_from(["\n", "\r\n", "\r"])),
             min_size=1, max_size=30),
    st.integers(min_value=0),
    st.booleans(),
)
def test_bad_token_names_its_line_under_mixed_line_ends(lines, bad, last_end):
    """Lines end at \\n, \\r\\n and a lone \\r, as re.split numbers them: a
    \\r that a \\n follows ends one line, however the two were meant."""
    bad %= len(lines)
    rows = [f"{i} {i + 1}" if kind == "edge" else "# c" if kind == "comment" else "" for i, (kind, _) in enumerate(lines)]
    rows[bad] = f"{bad} {bad + 1} x"
    text = "".join(row + end for row, (_, end) in zip(rows, lines))
    if not last_end:
        text = text[: -len(lines[-1][1])]
    line = re.split(r"\r\n|\r|\n", text).index(rows[bad]) + 1
    with pytest.raises(EdgeListError, match=f"^line {line}: bad weight"):
        load_edge_list(text)


def random_unit_edges(n: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (us, vs, ws) columns of m distinct unit-weight pairs over n nodes,
    in shuffled order."""
    rng = np.random.default_rng(1)
    keys = np.unique(rng.integers(0, n * n, size=3 * m))
    keys = rng.permutation(keys[keys // n < keys % n][:m])
    return keys // n, keys % n, np.ones(m)


def test_edge_list_io_memory_per_edge():
    """Traced allocation per edge on a 100k-edge unit-weight text. A per-line
    parser and per-entry Python objects cost about twice these bounds. With
    every weight equal, _flat's weights are one float (22.4 B/edge); with
    distinct weights they are one float per CSR entry (86.4 B/edge)."""
    n, m = 10_000, 100_000
    us, vs, ws = random_unit_edges(n, m)
    graph = build_graph(n, us, vs, ws)
    text = dump_edge_list(graph)
    assert traced_bytes(load_edge_list, text) / m < 250
    assert traced_bytes(_flat, graph) / m < 32
    ws = np.random.default_rng(2).uniform(0.1, 3.0, m)
    assert traced_bytes(_flat, build_graph(n, us, vs, ws)) / m < 100
    assert traced_bytes(dump_edge_list, graph) / m < 120
    # 24 of them are the three (m,) arrays it returns.
    assert traced_bytes(graph.edge_arrays) / m < 30


def test_graph_layer_memory_per_edge():
    """Traced allocation per edge of the graph layer, on the 100k edges of
    test_edge_list_io_memory_per_edge and a 99k-edge planted graph. With
    int64 CSR indices, concatenated copies and text-long masks, these cost
    80.8, 33.6, 133.7 and 141.0 B/edge. Above 2**16 nodes build_graph's row
    ids take the index dtype: 59.7 B/edge on 300k edges over 70k nodes,
    against 53.6 with 16-bit row ids below."""
    n, m = 10_000, 100_000
    edges = random_unit_edges(n, m)
    graph = build_graph(n, *edges)
    assert traced_bytes(build_graph, n, *edges) / m < 65  # above its input
    assert traced_bytes(build_graph, 70_000, *random_unit_edges(70_000, 300_000)) / 300_000 < 65
    held = (graph.indptr, graph.indices, graph.weights, graph.strengths)
    assert sum(a.nbytes for a in held) / m < 28
    assert traced_bytes(load_edge_list, dump_edge_list(graph)) / m < 115
    spec = PlantedSpec(10_000, 10, 0.018, 0.0002, seed=1)
    assert traced_bytes(generate_planted, spec) / generate_planted(spec)[0].edge_count < 100


@pytest.mark.parametrize("n", [2**16, 2**16 + 1])
def test_csr_at_the_16_bit_row_id_edge(n):
    """Up to 2**16 nodes build_graph sorts 16-bit row ids, above that ids of
    the index dtype; either way its CSR is the one np.lexsort gives, on
    edges that touch the last node."""
    rng = np.random.default_rng(n)
    others = rng.choice(n - 1, size=2000, replace=False)
    u = np.concatenate((others[:1000], np.full(1000, n - 1), rng.integers(0, n // 2, 2000)))
    v = np.concatenate((np.full(1000, n - 1), others[1000:], rng.integers(n // 2, n - 1, 2000)))
    keep = np.unique(np.minimum(u, v) * n + np.maximum(u, v), return_index=True)[1]
    u, v = u[np.sort(keep)], v[np.sort(keep)]
    w = rng.integers(1, 10, len(u)).astype(float)
    graph = build_graph(n, u, v, w)
    rows, cols, both = np.concatenate((u, v)), np.concatenate((v, u)), np.concatenate((w, w))
    order = np.lexsort((cols, rows))
    assert np.array_equal(graph.indptr, np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n)))))
    assert np.array_equal(graph.indices, cols[order])
    assert np.array_equal(graph.weights, both[order])
    assert np.array_equal(graph.strengths, np.bincount(rows, weights=both, minlength=n))


def test_index_dtype_bound():
    """One rule picks int32 or int64, for text positions and node ids; the
    edge of it is checked without allocating."""
    assert _index_dtype(2**31 - 1) is np.int32
    assert _index_dtype(2**31) is np.int64


def test_graphs_hold_int32_indices():
    """Graphs built, collapsed and rewired hold int32 CSR indices, while
    their edge_arrays stay int64 for pair keys."""
    graph = generate_planted(PlantedSpec(300, 3, 0.2, 0.02, seed=4))[0]
    collapsed = aggregate(graph, Partition(graph, [u % 7 for u in range(graph.node_count)]))
    for g in (graph, collapsed, degree_preserving_rewire(graph, seed=2)):
        assert g.indices.dtype == np.int32
        assert [a.dtype for a in g.edge_arrays()] == [np.int64, np.int64, np.float64]


def test_round_trip_identity():
    rnd = random.Random(13)
    for _ in range(25):
        g = make_random_graph(rnd, n_max=10)
        g2 = load_edge_list(dump_edge_list(g))
        assert g2.node_count == g.node_count
        for name in ("indptr", "indices", "weights"):
            assert np.array_equal(getattr(g2, name), getattr(g, name))
        assert g2.total_weight == g.total_weight


def test_unweighted_strengths_are_integer_degrees():
    rnd = random.Random(5)
    for _ in range(20):
        g = make_random_graph(rnd, n_max=10, weighted=False)
        for u in range(g.node_count):
            assert g.strengths[u] == float(g.indptr[u + 1] - g.indptr[u])


def test_labeled_loader_maps_tokens():
    g, labels = load_edge_list("alice bob 2.0\nbob carol\n", relabel=True)
    assert labels == ["alice", "bob", "carol"]
    assert g.node_count == 3
    assert g.total_weight == 3.0


def test_nul_byte_fails_on_an_edge_line_but_not_in_a_comment():
    with pytest.raises(EdgeListError, match=r"^line 2: NUL byte in '1 2\\x00'$"):
        load_edge_list("0 1\n1 2\x00\n")
    assert load_edge_list("0 1\n# a \x00 comment\n1 2\n").edge_count == 2


def test_relabel_mixes_wide_and_short_labels_in_first_appearance_order():
    # A label over 64 bytes makes one dict rank every label.
    wide_a, wide_b = "a" * 70, "b" * 65
    g, labels = load_edge_list(f"x {wide_a}\n{wide_b} y\n{wide_a} z\nx y\n", relabel=True)
    assert labels == ["x", wide_a, wide_b, "y", "z"]
    us, vs, _ws = g.edge_arrays()
    assert sorted(zip(us.tolist(), vs.tolist())) == [(0, 1), (0, 3), (1, 4), (2, 3)]


def test_wide_id_token_that_int_rejects_names_its_line():
    # The cast rejects this 20-byte token, so its block is read by int() a token at a time.
    with pytest.raises(EdgeListError, match="^line 2: node ids must be integers: '1234567890123456789x 2'$"):
        load_edge_list("0 1\n1234567890123456789x 2\n")


@pytest.mark.parametrize(
    "edits, message",
    [({35_000: f"{'0' * 68}12 7", 38_000: "5 x"}, "line 38000: node ids must be integers: '5 x'"),
     ({35_000: "99999999999999999999 7"}, "line 35000: node count 100000000000000000000 is too large")],
    ids=["70-byte-id", "20-digit-id"],
)
def test_a_second_cast_block_read_token_by_token_names_the_exact_line(edits, message):
    """40,000 edge lines hold 80,000 ids, two 2**16-token cast blocks. On
    line 35,000, in the second block, the cast cannot take a 70-byte id or
    raises OverflowError on a 20-digit one, so that block is read by int()
    a token at a time; each fault must still name its line in the file."""
    lines = [f"{i} {i + 1}" for i in range(40_000)]
    for line, edit in edits.items():
        lines[line - 1] = edit
    with pytest.raises(EdgeListError) as info:
        load_edge_list("\n".join(lines))
    assert str(info.value) == message


def test_degrees_and_edge_count():
    g = build_graph(3, *edge_columns([(0, 1, 1), (1, 2, 1)]))
    assert np.diff(g.indptr).tolist() == [1, 2, 1]
    assert g.edge_count == 2
    us, vs, ws = g.edge_arrays()
    assert (us.tolist(), vs.tolist(), ws.tolist()) == ([0, 1], [1, 2], [1.0, 1.0])


# The text that dump_edge_list and the label CSVs must reproduce byte for
# byte, written here with f-strings from the input edges themselves.
def reference_edge_list(n, triples):
    rows = sorted((min(u, v), max(u, v), w) for u, v, w in triples)
    return f"# nodes: {n}\n" + "".join(f"{u} {v} {w!r}\n" for u, v, w in rows)


def reference_csv(labels):
    return "node_id,community_id\n" + "".join(f"{i},{c}\n" for i, c in enumerate(labels))


# Weights at the edges of repr's fixed and exponent notations, the
# smallest subnormal and normal floats, and sums that repr writes with 17
# digits.
BOUNDARY_WEIGHTS = [1e16, 9999999999999998.0, 1e-4, 1e-5, 5e-324, 2.2250738585072014e-308, 0.1 + 0.2, 2.5]


@pytest.mark.parametrize(
    "n, triples",
    [
        (0, []),
        (5, []),
        (2, [(1, 0, 1.0)]),
        # ids that cross a digit width, and 0
        (10_001, [(9, 10, 1.0), (99, 100, 1.0), (10_000, 9999, 2.0), (0, 1, 1.0), (0, 10_000, 3.0)]),
        (1_000_002, [(999_999, 1_000_000, 1.0), (1_000_001, 0, 0.5), (999_999, 99_999, 1.0)]),
        (20, [(i, i + 1, w) for i, w in enumerate(BOUNDARY_WEIGHTS)]),
        # the largest finite float does not fit a graph, whose 2m must be finite
        (3, [(0, 1, 1.7976931348623157e308 / 4), (1, 2, 1.0)]),
    ],
)
def test_dump_edge_list_matches_fstrings(n, triples):
    assert dump_edge_list(build_graph(n, *edge_columns(triples))) == reference_edge_list(n, triples)


def test_text_rows_matches_fstrings_at_repr_boundaries():
    weights = [*BOUNDARY_WEIGHTS, 1.7976931348623157e308, -2.2250738585072014e-308, -0.0, 0.0, 1.0, 2.5]
    ids = [0, 9, 10, 99, 100, 9999, 10_000, 999_999, 1_000_000, 3_037_000_498, 1, 5, 6, 7]
    expected = "head\n" + "".join(f"{i} {w!r}\n" for i, w in zip(ids, weights))
    assert text_rows("head\n", [(np.array(ids), np.array(weights))], " ") == expected


def test_dump_edge_list_matches_fstrings_across_blocks():
    """More than 2**16 CSR entries, so that rows straddle blocks, and one
    row longer than a block. Weights repeat within and across blocks."""
    rng = np.random.default_rng(3)
    n = 30_000
    keys = np.unique(rng.integers(0, n * n, size=120_000))
    keys = keys[keys // n < keys % n][:40_000]
    star = [(0, v) for v in range(1, 20_001)]
    pairs = {(int(u), int(v)) for u, v in zip(keys // n, keys % n)} | set(star)
    weights = np.where(rng.random(len(pairs)) < 0.5, rng.integers(1, 4, len(pairs)), rng.random(len(pairs)) + 0.01)
    triples = [(u, v, float(w)) for (u, v), w in zip(sorted(pairs), weights)]
    graph = build_graph(n, *edge_columns(triples))
    assert 2 * graph.edge_count > 1 << 16
    assert dump_edge_list(graph) == reference_edge_list(n, triples)
    us, vs, ws = graph.edge_arrays()
    assert (us.dtype, vs.dtype, ws.dtype) == (np.int64, np.int64, np.float64)
    assert list(zip(us.tolist(), vs.tolist(), ws.tolist())) == triples


@st.composite
def weighted_graphs(draw):
    """(n, triples) with distinct pairs in random orientation, ids spread
    over several digit widths and weights that may repeat."""
    n = draw(st.integers(2, 20_000))
    ids = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(ids, ids).filter(lambda p: p[0] != p[1]), max_size=60,
                          unique_by=lambda p: frozenset(p)))
    weights = st.one_of(st.sampled_from([1.0, 2.0, 0.5]), st.floats(5e-324, 1e300))
    return n, [(u, v, draw(weights)) for u, v in pairs]


@settings(max_examples=150, deadline=None, database=None)
@given(case=weighted_graphs(), labels=st.lists(st.integers(0, 3_037_000_498), max_size=60))
def test_writers_match_fstrings(case, labels):
    n, triples = case
    assert dump_edge_list(build_graph(n, *edge_columns(triples))) == reference_edge_list(n, triples)
    assert labels_to_csv(labels) == reference_csv(labels)


@pytest.mark.parametrize("labels", [[], [0], [3, 0, 3, 1], list(range(12)) * 3000])
def test_partition_csv_matches_fstrings(labels):
    graph = build_graph(len(labels), *edge_columns([]))
    partition = Partition(graph, labels)
    assert labels_to_csv(partition.labels) == reference_csv(partition.labels)


def test_generated_truth_csv_matches_fstrings(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["generate", "clique-ring", "--cliques", "12", "--size", "3", "--out", "ring.el"]) == 0
    truth = [i // 3 for i in range(36)]
    assert (tmp_path / "ring.truth.csv").read_text() == reference_csv(truth)
