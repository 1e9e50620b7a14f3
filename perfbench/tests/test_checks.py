"""The benchmark's independent output checks, on graphs with known answers."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402

# Two triangles joined by the edge 2-3.
U = np.array([0, 1, 0, 3, 4, 3, 2])
V = np.array([1, 2, 2, 4, 5, 5, 3])
W = np.ones(7)


def test_modularity_of_two_triangles():
    # Each triangle holds 3 of m = 7 edges and half of the strength 2m = 14.
    labels = np.array([0, 0, 0, 1, 1, 1])
    assert checks.modularity(U, V, W, labels) == pytest.approx(2 * (3 / 7 - 0.25), abs=1e-15)
    assert checks.modularity(U, V, W, np.zeros(6, dtype=np.int64)) == pytest.approx(0.0, abs=1e-15)


def test_disconnected_communities():
    assert checks.disconnected_communities(U, V, np.array([0, 0, 0, 1, 1, 1])) == 0
    # {0, 1, 5}: node 5 has no edge to 0 or 1.
    assert checks.disconnected_communities(U, V, np.array([0, 0, 1, 1, 1, 0])) == 1
    # Singletons are connected; the two triangles as one community are too.
    assert checks.disconnected_communities(U, V, np.arange(6)) == 0
    assert checks.disconnected_communities(U, V, np.zeros(6, dtype=np.int64)) == 0
    # Both triangles split across two labels: {0, 5} and {1, 4} are broken.
    assert checks.disconnected_communities(U, V, np.array([0, 1, 2, 3, 1, 0])) == 2


def test_rewire_invariants_hold_for_a_double_edge_swap():
    # (0,1) + (2,3) -> (0,2) + (1,3) keeps every degree.
    u0, v0 = np.array([0, 2, 4]), np.array([1, 3, 5])
    u1, v1 = np.array([0, 1, 4]), np.array([2, 3, 5])
    assert checks.rewire_problems(6, u0, v0, u1, v1) == []
    assert checks.rewired_edge_ratio(6, u0, v0, u1, v1) == pytest.approx(2 / 3)
    assert checks.rewired_edge_ratio(6, u0, v0, v0, u0) == 0.0


def test_rewire_invariants_catch_a_broken_null():
    u0, v0 = np.array([0, 2, 4]), np.array([1, 3, 5])
    assert checks.rewire_problems(6, u0, v0, np.array([0, 2, 4]), np.array([1, 3, 3])) == ["degree sequence changed"]
    # A triangle rewired into a loop at 0 plus 1-2 twice keeps every degree.
    found = checks.rewire_problems(3, np.array([0, 0, 1]), np.array([1, 2, 2]), np.array([0, 1, 1]), np.array([0, 2, 2]))
    assert found == ["1 self-loops", "1 duplicate edges"]


def test_read_edge_list_and_partition(tmp_path):
    graph = tmp_path / "g.txt"
    graph.write_text("# nodes: 7\n0 1 1.0\n1 2 2.5\n")
    n, u, v, w = checks.read_edge_list(graph)
    assert n == 7 and u.tolist() == [0, 1] and v.tolist() == [1, 2] and w.tolist() == [1.0, 2.5]
    part = tmp_path / "p.csv"
    part.write_text("node_id,community_id\n1,0\n0,3\n2,3\n")
    assert checks.read_partition(part).tolist() == [3, 0, 3]


def test_experiment_problems():
    runs = "method,run,seed,Q\nleiden,0,1,0.5\nleiden,1,2,0.25\nleiden-hu,0,3,0.5\nleiden-hu,1,4,0.5\n"
    summary = {"methods": {"leiden": {"mean": 0.375}, "leiden-hu": {"mean": 0.5}}}
    assert checks.experiment_problems(runs, summary, {"leiden": 2, "leiden-hu": 2}) == []
    wrong = json.loads(json.dumps(summary))
    wrong["methods"]["leiden"]["mean"] = 0.376
    assert "summary mean" in checks.experiment_problems(runs, wrong, {"leiden": 2, "leiden-hu": 2})[0]
    assert "1 rows" in checks.experiment_problems(runs.replace("leiden,1,2,0.25\n", ""), summary,
                                                  {"leiden": 2, "leiden-hu": 2})[0]
    assert "non-finite" in checks.experiment_problems(runs.replace("0.25", "nan"), summary,
                                                      {"leiden": 2, "leiden-hu": 2})[0]


def test_mrg_problems():
    good = {"observed_mrg": 0.02, "null_gaps": [0.01] * 8, "null_count": 8}
    assert checks.mrg_problems(good, 8) == []
    assert checks.mrg_problems({**good, "null_gaps": [0.01] * 7}, 8)
    assert checks.mrg_problems({**good, "observed_mrg": float("inf")}, 8)
