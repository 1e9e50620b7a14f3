import io
import math
import random

import pytest

from qicd import EdgeListError, build_graph, dump_edge_list, load_edge_list, load_labeled_edge_list

from conftest import make_random_graph


def test_single_edge():
    g = build_graph(2, [(0, 1, 1.0)])
    assert g.total_weight == 1.0
    assert g.strengths == (1.0, 1.0)
    assert g.adjacency == (((1, 1.0),), ((0, 1.0),))


def test_triangle():
    g = build_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    assert g.total_weight == 3.0
    assert g.strengths == (2.0, 2.0, 2.0)


def test_isolated_nodes_allowed():
    g = build_graph(4, [(0, 1, 2.0)])
    assert g.node_count == 4
    assert g.strengths[2] == 0.0
    assert g.adjacency[3] == ()


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


def test_invariants_on_random_graphs():
    rnd = random.Random(7)
    for _ in range(60):
        g = make_random_graph(rnd, n_max=12)
        # symmetric adjacency
        pairs = {(u, v): w for u in range(g.node_count) for v, w in g.adjacency[u]}
        for (u, v), w in pairs.items():
            assert pairs[(v, u)] == w
        # strengths match adjacency sums; total weight is half the strength sum
        for u in range(g.node_count):
            assert abs(g.strengths[u] - sum(w for _, w in g.adjacency[u])) < 1e-12
        total = sum(g.strengths) / 2.0
        assert abs(g.total_weight - total) <= 1e-9 * max(1.0, abs(total))
        # adjacency lists sorted by neighbor id
        for u in range(g.node_count):
            nbrs = [v for v, _ in g.adjacency[u]]
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
        (load_labeled_edge_list, "a b\n\nb b\n", "line 3: self-loop"),
        (load_labeled_edge_list, "# c\na b\n\nb a\n", "line 4: duplicate edge 0-1"),
        (load_labeled_edge_list, "a b\n# c\nb c nan\n", "line 3: weight must be finite and positive"),
    ],
)
def test_load_validation_errors_report_file_line(loader, text, message):
    with pytest.raises(EdgeListError, match=message):
        loader(text)


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


def test_round_trip_identity():
    rnd = random.Random(13)
    for _ in range(25):
        g = make_random_graph(rnd, n_max=10)
        g2 = load_edge_list(dump_edge_list(g))
        assert g2.node_count == g.node_count
        assert g2.adjacency == g.adjacency
        assert g2.total_weight == g.total_weight


def test_unweighted_strengths_are_integer_degrees():
    rnd = random.Random(5)
    for _ in range(20):
        g = make_random_graph(rnd, n_max=10, weighted=False)
        for u in range(g.node_count):
            assert g.strengths[u] == float(len(g.adjacency[u]))


def test_labeled_loader_maps_tokens():
    g, labels = load_labeled_edge_list("alice bob 2.0\nbob carol\n")
    assert labels == ["alice", "bob", "carol"]
    assert g.node_count == 3
    assert g.total_weight == 3.0


def test_degrees_and_edge_count():
    g = build_graph(3, [(0, 1, 1), (1, 2, 1)])
    assert g.degrees() == (1, 2, 1)
    assert g.edge_count == 2
    assert list(g.iter_edges()) == [(0, 1, 1.0), (1, 2, 1.0)]
