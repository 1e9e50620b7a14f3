"""Span self-time arithmetic and the tracer's wiring into qicd."""

from __future__ import annotations

import contextlib
import io
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import spans  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402


def test_self_time_nested():
    tree = [
        Span(0, "a", 0.0, 10.0, None, 1),
        Span(1, "b", 1.0, 4.0, 0, 1),
        Span(2, "c", 5.0, 6.0, 0, 1),
        Span(3, "d", 2.0, 3.0, 1, 1),
    ]
    own = self_times(tree)
    assert own == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}


def test_self_time_two_threads_counts_overlap_once():
    # Two workers under one parent overlap on [2, 7]; the part of z that
    # outlives the parent is not subtracted from it.
    tree = [
        Span(0, "experiment", 0.0, 10.0, None, 1),
        Span(1, "x", 1.0, 7.0, 0, 2),
        Span(2, "y", 2.0, 8.0, 0, 3),
        Span(3, "z", 9.5, 12.0, 0, 2),
    ]
    own = self_times(tree)
    assert own[0] == 10.0 - 7.0 - 0.5
    assert own[1] == 6.0 and own[2] == 6.0 and own[3] == 2.5


def test_worker_span_hangs_under_the_open_span_of_the_main_thread():
    tracer = Tracer()
    outer = tracer.open("experiment")
    worker = threading.Thread(target=lambda: tracer.close(tracer.open("method")))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    tracer.close(outer)
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["method"].parent == outer.id
    assert by_name["method"].thread != outer.thread
    assert by_name["experiment"].parent is None


def test_installed_traces_a_detect_and_restores_the_names(tmp_path):
    import qicd.cli
    import qicd.detect

    graph = tmp_path / "g.txt"
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
    graph.write_text("# nodes: 6\n" + "".join(f"{u} {v} 1.0\n" for u, v in edges))
    before = (qicd.cli.load_edge_list, qicd.detect._move_pass)
    tracer = Tracer()
    with spans.installed(tracer) as missing, contextlib.redirect_stdout(io.StringIO()):
        root = tracer.open("cli")
        code = qicd.cli.main(["detect", "--graph", str(graph), "--method", "leiden", "--out", str(tmp_path / "p.csv")])
        tracer.close(root)
    assert code == 0 and missing == []
    assert (qicd.cli.load_edge_list, qicd.detect._move_pass) == before
    names = {s.name for s in tracer.spans}
    assert {"cli", "graph.load", "graph.build", "detect.baseline", "detect.sweep", "detect.split"} <= names
    metrics = spans.layer_metrics(tracer, Tracer())
    assert metrics["detect.baseline_calls"][0] == 1
    assert metrics["detect.sweeps"][0] >= 1
    total = sum(metrics[key][0] for key in spans.LAYER_SELF.values())
    assert abs(total - (root.end - root.start)) < 1e-9


def test_metrics_of_a_missing_entry_point_are_none_not_zero():
    tracer = Tracer()
    tracer.close(tracer.open("cli"))
    tracer.close(tracer.open("detect.sweep"))
    metrics = spans.layer_metrics(tracer, Tracer(), ["qicd.cli.load_edge_list", "qicd.detect._move_pass"])
    for name in ("graph.load_s", "graph.self_s", "detect.sweeps", "detect.sweep_ms_p99", "detect.self_s"):
        assert metrics[name][0] is None, name
    assert metrics["graph.build_calls"][0] == 0
    assert metrics["cli.self_s"][0] >= 0.0
