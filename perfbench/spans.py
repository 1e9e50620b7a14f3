"""In-memory spans around qicd's layer entry points, and the per-layer metrics.

The traced run wraps each entry point by rebinding the module-level name
its callers look up at call time (``qicd.engine.seeded_pass`` and so on),
so no qicd source changes. Spans stay in memory until the run ends.

A span opened on a thread that has no open span of its own takes as parent
the innermost open span of the thread that created the tracer: pool workers
then hang under the experiment that started them. A span's self time is its
duration minus the union of its children's intervals, so two children that
run at once on two threads are not subtracted twice.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import math
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

import checks


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        # (span name, value kept by the wrapper) for metrics read from
        # arguments or results rather than from timings.
        self.kept: list[tuple[str, object]] = []
        self._root_thread = threading.get_ident()
        self._stacks: dict[int, list[Span]] = {}
        self._ids = itertools.count()
        self._lock = threading.Lock()

    def open(self, name: str) -> Span:
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            holder = stack or self._stacks.get(self._root_thread)
            parent = holder[-1].id if holder else None
            span = Span(next(self._ids), name, time.perf_counter(), math.nan, parent, tid)
            stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        with self._lock:
            self._stacks[span.thread].pop()
            self.spans.append(span)

    def wrap(self, fn, name: str, keep=None):
        """fn with a span around each call; keep(args, kwargs, result) is
        stored in self.kept after the span closes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if keep is not None:
                self.kept.append((name, keep(args, kwargs, result)))
            return result

        return traced


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted(children[s.id]):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out[s.id] = (s.end - s.start) - covered
    return out


# -------------------------------------------------------------- layer map

def _keep_rewire(args, kwargs, result):
    swap_factor = args[1] if len(args) > 1 else kwargs.get("swap_factor", 10.0)
    return args[0], swap_factor, result


def _keep_jobs(args, kwargs, result):
    return kwargs.get("jobs", 1)


def _keep_trace(args, kwargs, result):
    return result.trace


# (owner, attribute, span name, keep). The owner is a module, or
# "module:Class" for a method; each name is rebound where its callers look
# it up.
ENTRY_POINTS = [
    ("qicd.cli", "load_edge_list", "graph.load", None),
    ("qicd.graph", "build_graph", "graph.build", None),
    ("qicd.partition", "build_graph", "graph.build", None),
    ("qicd.bench", "build_graph", "graph.build", None),
    ("qicd.cli", "dump_edge_list", "graph.dump", None),
    ("qicd.detect", "aggregate", "partition.aggregate", None),
    ("qicd.partition:Partition", "__init__", "partition.init", None),
    ("qicd.cli", "leiden", "detect.baseline", None),
    ("qicd.cli", "louvain", "detect.baseline", None),
    ("qicd.bench", "leiden", "detect.baseline", None),
    ("qicd.bench", "louvain", "detect.baseline", None),
    ("qicd.engine", "leiden", "detect.baseline", None),
    ("qicd.engine", "louvain", "detect.baseline", None),
    ("qicd.engine", "seeded_pass", "detect.polish", None),
    ("qicd.detect", "leiden_refine", "detect.split", None),
    ("qicd.engine", "leiden_refine", "detect.split", None),
    # The one private name: the sweep kernel holds most of the time, and its
    # call count is the solver's sweep count.
    ("qicd.detect", "_move_pass", "detect.sweep", None),
    ("qicd.engine", "sample_pt_weights", "sampling.weights", None),
    ("qicd.engine", "sample_haar_weights", "sampling.weights", None),
    ("qicd.engine", "propose_partition", "sampling.propose", None),
    ("qicd.engine", "hu_noise", "sampling.hu", None),
    ("qicd.engine", "hyperuniform_adjust", "sampling.hu", None),
    ("qicd.cli", "run_qicd", "engine.run", _keep_trace),
    ("qicd.bench", "run_qicd", "engine.run", _keep_trace),
    ("qicd.cli", "generate_planted", "bench.generate", None),
    ("qicd.cli", "degree_preserving_rewire", "bench.rewire", _keep_rewire),
    ("qicd.bench", "degree_preserving_rewire", "bench.rewire", _keep_rewire),
    ("qicd.cli", "run_experiment", "bench.experiment", _keep_jobs),
    ("qicd.bench", "method_q", "bench.method", None),
    ("qicd.cli", "mrg_significance", "bench.mrg", None),
    ("qicd.cli", "summarize", "stats", None),
    ("qicd.cli", "welch_t_test", "stats", None),
]


def _owner(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Rebind every entry point that exists for the duration of the block;
    yields the list of entry points that do not exist."""
    undo = []
    missing: list[str] = []
    for owner_path, attr, name, keep in ENTRY_POINTS:
        owner = _owner(owner_path)
        original = getattr(owner, attr, None)
        if original is None:
            missing.append(f"{owner_path}.{attr}")
            continue
        setattr(owner, attr, tracer.wrap(original, name, keep))
        undo.append((owner, attr, original))
    try:
        yield missing
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# ---------------------------------------------------------------- metrics

LAYERS = ("cli", "graph", "partition", "detect", "sampling", "engine", "bench", "stats")
# The metric that holds each layer's total self time.
LAYER_SELF = {layer: "stats.s" if layer == "stats" else f"{layer}.self_s" for layer in LAYERS}


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(
    tracer: Tracer, setup: Tracer, missing: list[str] = ()
) -> dict[str, tuple[float | None, str]]:
    """Per-layer metrics of one traced command (`tracer`) and the set-up
    that made its input (`setup`); `missing` lists the entry points that
    did not exist. A metric that rests on a span name with a missing entry
    point is None, so a renamed function never reads as a layer that got
    faster.

    Command ``*_s`` figures are self times unless noted, so the layers add
    up to the command's wall time; counts are span counts. The two set-up
    figures, graph.dump_s and bench.generate_s, are whole call durations.
    """
    absent = {name for owner, attr, name, _keep in ENTRY_POINTS if f"{owner}.{attr}" in missing}
    setup_s: dict[str, float] = defaultdict(float)
    for s in setup.spans:
        setup_s[s.name] += s.end - s.start
    own = self_times(tracer.spans)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    durations: dict[str, list[float]] = defaultdict(list)
    for s in tracer.spans:
        self_s[s.name] += own[s.id]
        calls[s.name] += 1
        durations[s.name].append(s.end - s.start)
    layer_self = {layer: sum(v for k, v in self_s.items() if k.split(".")[0] == layer) for layer in LAYERS}

    traces = [t for name, t in tracer.kept if name == "engine.run"]
    iterations = [r for t in traces for r in t]
    accepted = sum(1 for r in iterations if r.accepted)
    rewires = [k for name, k in tracer.kept if name == "bench.rewire"]
    attempts = sum(math.ceil(f * g.edge_count) for g, f, _out in rewires)
    moved = total = 0.0
    for g_in, _f, g_out in rewires:
        u0, v0, _w0 = g_in.edge_arrays()
        u1, v1, _w1 = g_out.edge_arrays()
        moved += checks.rewired_edge_ratio(g_in.node_count, u0, v0, u1, v1) * len(u1)
        total += len(u1)
    jobs = [j for name, j in tracer.kept if name == "bench.experiment"]
    pool_wall = sum(d * j for d, j in zip(durations["bench.experiment"], jobs))
    sweep_ms = [d * 1e3 for d in durations["detect.sweep"]]

    def m(value, unit: str, *names: str):
        """(value, unit), or (None, unit) when a span it rests on is absent.
        A name without a dot stands for every span of that layer."""
        rests_on = {a for a in absent for n in names if a == n or a.split(".")[0] == n}
        return (None if rests_on else value, unit)

    return {
        "cli.self_s": m(self_s["cli"], "s", "cli"),
        "graph.load_s": m(self_s["graph.load"], "s", "graph.load"),
        "graph.build_s": m(self_s["graph.build"], "s", "graph.build"),
        "graph.build_calls": m(calls["graph.build"], "count", "graph.build"),
        "graph.dump_s": m(setup_s["graph.dump"], "s", "graph.dump"),
        "graph.self_s": m(layer_self["graph"], "s", "graph"),
        "partition.aggregate_s": m(self_s["partition.aggregate"], "s", "partition.aggregate"),
        "partition.levels": m(calls["partition.aggregate"], "count", "partition.aggregate"),
        "partition.init_s": m(self_s["partition.init"], "s", "partition.init"),
        "partition.init_calls": m(calls["partition.init"], "count", "partition.init"),
        "partition.self_s": m(layer_self["partition"], "s", "partition"),
        "detect.baseline_s": m(self_s["detect.baseline"], "s", "detect.baseline"),
        "detect.baseline_calls": m(calls["detect.baseline"], "count", "detect.baseline"),
        "detect.polish_s": m(self_s["detect.polish"], "s", "detect.polish"),
        "detect.polish_calls": m(calls["detect.polish"], "count", "detect.polish"),
        "detect.split_s": m(self_s["detect.split"], "s", "detect.split"),
        "detect.sweep_s": m(self_s["detect.sweep"], "s", "detect.sweep"),
        "detect.sweeps": m(calls["detect.sweep"], "count", "detect.sweep"),
        "detect.sweep_ms_p50": m(_pct(sweep_ms, 50), "ms", "detect.sweep"),
        "detect.sweep_ms_p99": m(_pct(sweep_ms, 99), "ms", "detect.sweep"),
        "detect.self_s": m(layer_self["detect"], "s", "detect"),
        "sampling.weights_s": m(self_s["sampling.weights"], "s", "sampling.weights"),
        "sampling.propose_s": m(self_s["sampling.propose"], "s", "sampling.propose"),
        "sampling.propose_calls": m(calls["sampling.propose"], "count", "sampling.propose"),
        "sampling.hu_s": m(self_s["sampling.hu"], "s", "sampling.hu"),
        "sampling.self_s": m(layer_self["sampling"], "s", "sampling"),
        "engine.run_s": m(sum(durations["engine.run"]), "s", "engine.run"),
        "engine.self_s": m(self_s["engine.run"], "s", "engine.run"),
        "engine.runs": m(calls["engine.run"], "count", "engine.run"),
        "engine.iterations": m(len(iterations), "count", "engine.run"),
        "engine.accepted": m(accepted, "count", "engine.run"),
        "engine.accept_ratio": m(accepted / len(iterations) if iterations else 0.0, "ratio", "engine.run"),
        "engine.iteration_ms_p50": m(_pct([r.millis for r in iterations], 50), "ms", "engine.run"),
        "engine.iteration_ms_max": m(max((r.millis for r in iterations), default=0.0), "ms", "engine.run"),
        "bench.rewire_s": m(self_s["bench.rewire"], "s", "bench.rewire"),
        "bench.rewire_calls": m(calls["bench.rewire"], "count", "bench.rewire"),
        "bench.swap_attempts": m(attempts, "count", "bench.rewire"),
        "bench.rewired_edge_ratio": m(moved / total if total else 0.0, "ratio", "bench.rewire"),
        "bench.method_s_p50": m(_pct(durations["bench.method"], 50), "s", "bench.method"),
        "bench.method_s_max": m(max(durations["bench.method"], default=0.0), "s", "bench.method"),
        "bench.pool_busy_ratio": m(
            sum(durations["bench.method"]) / pool_wall if pool_wall else 0.0, "ratio", "bench.method", "bench.experiment"
        ),
        "bench.generate_s": m(setup_s["bench.generate"], "s", "bench.generate"),
        "bench.self_s": m(layer_self["bench"], "s", "bench"),
        "stats.s": m(self_s["stats"], "s", "stats"),
    }
