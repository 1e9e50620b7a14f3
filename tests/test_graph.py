import io
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qicd
from qicd import EdgeListError, build_graph, dump_edge_list, load_edge_list
from qicd.graph import NodeCountError
from qicd.detect import _flat

from conftest import make_random_graph, traced_bytes


def load_relabeled(text):
    return load_edge_list(text, relabel=True)


def test_single_edge():
    g = build_graph(2, [(0, 1, 1.0)])
    assert g.total_weight == 1.0
    assert g.strengths == (1.0, 1.0)
    assert g.indptr.tolist() == [0, 1, 2]
    assert g.indices.tolist() == [1, 0]
    assert g.weights.tolist() == [1.0, 1.0]


def test_triangle():
    g = build_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    assert g.total_weight == 3.0
    assert g.strengths == (2.0, 2.0, 2.0)


def test_isolated_nodes_allowed():
    g = build_graph(4, [(0, 1, 2.0)])
    assert g.node_count == 4
    assert g.strengths[2] == 0.0
    # the isolated last node has an empty neighbour run
    assert g.indptr[-1] == g.indptr[-2] == 2


def test_self_loop_rejected():
    with pytest.raises(EdgeListError, match="edge 0: self-loop"):
        build_graph(3, [(0, 0, 1.0)])


def test_out_of_range_rejected():
    with pytest.raises(EdgeListError, match="edge 1: endpoint out of range"):
        build_graph(3, [(0, 1, 1.0), (1, 3, 1.0)])


def test_bad_weight_rejected():
    with pytest.raises(EdgeListError, match="edge 0: weight"):
        build_graph(2, [(0, 1, 0.0)])
    with pytest.raises(EdgeListError, match="edge 0: weight"):
        build_graph(2, [(0, 1, -2.0)])
    with pytest.raises(EdgeListError, match="edge 0: weight"):
        build_graph(2, [(0, 1, math.nan)])


def test_duplicate_rejected_with_index():
    with pytest.raises(EdgeListError, match="edge 2: duplicate edge 0-1"):
        build_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (1, 0, 1.0)])


def test_merge_duplicates_sums_weights():
    g = build_graph(2, [(0, 1, 1.0), (1, 0, 2.5)], merge_duplicates=True)
    assert g.total_weight == 3.5
    assert g.strengths == (3.5, 3.5)
    # A pair listed three times sums in input order: (0.1 + 0.2) + 0.3 is
    # 0.6000000000000001, while 0.1 + (0.2 + 0.3) would be 0.6.
    g = build_graph(3, [(0, 1, 0.1), (1, 2, 1.0), (1, 0, 0.2), (0, 1, 0.3)], merge_duplicates=True)
    assert g.edge_arrays()[2].tolist() == [(0.1 + 0.2) + 0.3, 1.0]
    assert g.total_weight == math.fsum([(0.1 + 0.2) + 0.3, 1.0])
    # a merged weight past the float range is an error, not an infinite edge
    with pytest.raises(EdgeListError, match="edge 1: the edge weights sum past the float range"):
        build_graph(2, [(0, 1, 1e308), (1, 0, 1e308)], merge_duplicates=True)


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
    ],
)
def test_load_validation_errors_report_file_line(loader, text, message):
    with pytest.raises(EdgeListError, match=message):
        loader(text)


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
            build_graph(TOO_MANY_NODES, [])
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


def test_edge_list_io_memory_per_edge():
    """Traced allocation per edge on a 100k-edge unit-weight text. A per-line
    parser and per-entry Python objects cost about twice these bounds."""
    rng = np.random.default_rng(1)
    n, m = 10_000, 100_000
    keys = np.unique(rng.integers(0, n * n, size=3 * m))
    keys = rng.permutation(keys[keys // n < keys % n][:m])
    graph = build_graph(n, np.column_stack((keys // n, keys % n, np.ones(m))))
    text = dump_edge_list(graph)
    assert traced_bytes(load_edge_list, text) / m < 250
    assert traced_bytes(_flat, graph) / m < 100
    assert traced_bytes(dump_edge_list, graph) / m < 120


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


def test_degrees_and_edge_count():
    g = build_graph(3, [(0, 1, 1), (1, 2, 1)])
    assert np.diff(g.indptr).tolist() == [1, 2, 1]
    assert g.edge_count == 2
    us, vs, ws = g.edge_arrays()
    assert (us.tolist(), vs.tolist(), ws.tolist()) == ([0, 1], [1, 2], [1.0, 1.0])
