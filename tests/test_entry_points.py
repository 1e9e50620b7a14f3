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
import os
from pathlib import Path

from qicd.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

COMMANDS = [
    ["generate", "planted", "--n", "60", "--k", "3", "--p-in", "0.4", "--p-out", "0.05", "--seed", "7",
     "--out", "g.el"],
    ["generate", "rewire", "--input", "g.el", "--swap-factor", "2", "--out", "null.el"],
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
    monkeypatch.delenv("QICD_SEED", raising=False)
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
