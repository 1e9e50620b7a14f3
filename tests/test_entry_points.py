"""Every name that the perfbench tracer rebinds is still called.

perfbench times a layer by rebinding the module-level name its callers
look up (``perfbench/spans.py`` ``ENTRY_POINTS``). A refactor that keeps
such a name but stops calling it through that binding would make the layer
read as 0 s in traced runs, so each (module, name) pair gets its own call
counter here and a small command set must reach every one of them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import math
import os
from pathlib import Path

import qicd.bench
import qicd.cli
from qicd.cli import build_parser, main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

COMMANDS = [
    ["generate", "planted", "--n", "60", "--k", "3", "--p-in", "0.4", "--p-out", "0.05", "--seed", "7",
     "--out", "g.el"],
    ["generate", "rewire", "--input", "g.el", "--out", "null.el"],
    ["detect", "--graph", "g.el", "--method", "leiden", "--out", "leiden.csv"],
    ["detect", "--graph", "g.el", "--method", "louvain", "--out", "louvain.csv"],
    ["qicd", "--graph", "g.el", "--kind", "pt", "--base", "louvain", "--iterations", "2", "--out", "pt"],
    ["qicd", "--graph", "g.el", "--kind", "haar-hu", "--refine-before-accept", "--iterations", "2",
     "--out", "haar-hu"],
    ["benchmark", "--graph", "g.el", "--methods", "leiden,louvain,leiden-hu", "--runs", "2", "--iterations", "2",
     "--out", "bench"],
    ["mrg", "--graph", "g.el", "--nulls", "5", "--iterations", "2", "--out", "mrg"],
]


def _counting(fn, counts: dict, key: tuple[str, str]):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return counted


def test_every_traced_entry_point_is_called(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # runs inline, so counters see them
    spans = importlib.import_module("spans")
    counts: dict[tuple[str, str], int] = {}
    for owner_path, attr, _span, _keep in spans.ENTRY_POINTS:
        module, _, cls = owner_path.partition(":")
        owner = importlib.import_module(module)
        owner = getattr(owner, cls) if cls else owner
        key = (owner_path, attr)
        assert hasattr(owner, attr), f"{owner_path}.{attr} does not exist"
        counts[key] = 0
        monkeypatch.setattr(owner, attr, _counting(getattr(owner, attr), counts, key))
    for argv in COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
    uncalled = [f"{owner}.{attr}" for (owner, attr), n in counts.items() if n == 0]
    assert uncalled == [], f"traced but never called: {uncalled}"
    assert len(counts) == len(spans.ENTRY_POINTS)


def test_perfbench_command_lines_parse(monkeypatch):
    """Every command line that perfbench's workloads run parses: each
    workload's set-up and timed command, and the `generate rewire` of the
    nulls check, whose argv a fake run_cli records."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    argvs = []

    def run_cli(argv):
        argvs.append(argv)
        return 1, ""

    for workload in workloads.WORKLOADS.values():
        argvs += [workload.setup_argv(1), workload.argv(1)]
        if workload.run_check is not None:
            workload.run_check(run_cli, 1)
    assert sum(argv[:2] == ["generate", "rewire"] for argv in argvs) == 1
    parser = build_parser()
    for argv in argvs:
        parser.parse_args(argv)


class _CountingFlips:
    """A generator that adds the size of each `random` draw, the flips of a
    rewire round, to the last count in `counts`."""

    def __init__(self, rng, counts: list[int]):
        self._rng, self._counts = rng, counts

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def random(self, size):
        self._counts[-1] += size
        return self._rng.random(size)


def test_perfbench_swap_count_is_the_rewire_s(tmp_path, monkeypatch):
    """perfbench counts ceil(f * m) swap attempts per rewire, with f read by
    `spans._keep_rewire` from the call. For every rewire that `generate
    rewire` and `mrg` make, f must be bench.SWAP_FACTOR, and the rewire
    must draw one flip per attempt: SWAP_FACTOR * m in all."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # the nulls rewire in this process
    spans = importlib.import_module("spans")
    flips: list[int] = []
    make_rng = qicd.bench.make_rng
    monkeypatch.setattr(qicd.bench, "make_rng", lambda seed: _CountingFlips(make_rng(seed), flips))
    kept = []
    rewire = qicd.bench.degree_preserving_rewire

    def traced(*args, **kwargs):
        flips.append(0)
        result = rewire(*args, **kwargs)
        kept.append((spans._keep_rewire(args, kwargs, result), flips[-1]))
        return result

    for owner in (qicd.cli, qicd.bench):
        monkeypatch.setattr(owner, "degree_preserving_rewire", traced)
    for argv in COMMANDS:
        if argv[0] in ("generate", "mrg"):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0, argv
    assert len(kept) == 1 + 5  # generate rewire, then mrg's five nulls
    for (graph, factor, _out), drawn in kept:
        assert factor == qicd.bench.SWAP_FACTOR
        assert drawn == math.ceil(factor * graph.edge_count) == qicd.bench.SWAP_FACTOR * graph.edge_count
