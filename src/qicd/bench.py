"""Synthetic benchmarks, null models, and experiment orchestration.

Provides planted-partition generators (with a calibration loop that targets
a requested baseline modularity), a high-modularity clique-ring control,
degree-preserving rewiring for null models, the multi-run experiment
driver, and the MRG significance report against rewired nulls.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from collections.abc import Callable
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .detect import DetectorConfig, leiden, louvain
from .engine import BASE_METHODS, KIND_NAMES, QicdConfig, run_qicd
from .graph import Graph, build_graph
from .partition import modularity
from .rng import make_rng, mix


@dataclass(frozen=True)
class PlantedSpec:
    """Planted-partition model: k equal communities (remainder spread one
    per community), intra-pair probability p_in, inter-pair p_out."""

    n: int
    k: int
    p_in: float
    p_out: float
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise ValueError("need 1 <= k <= n")
        if not 0.0 <= self.p_out <= self.p_in <= 1.0:
            raise ValueError("need 0 <= p_out <= p_in <= 1")


@dataclass(frozen=True)
class TrialSample:
    method: str
    q_values: tuple[float, ...]
    seeds: tuple[int, ...]


@dataclass(frozen=True)
class MrgReport:
    observed: float
    null_gaps: tuple[float, ...]
    null_mean: float
    null_std: float
    percentile: float  # mid-rank percentile of the observed gap in the nulls


# The tasks of this process's pool, when it is a run_seeded worker. The
# pool hands them over by fork, which does not pickle a worker's arguments,
# so a task may close over a graph or a lambda that pickling could not send.
_TASKS: list = []


def _set_tasks(tasks: list) -> None:
    global _TASKS
    _TASKS = tasks


def _run_task(index: int):
    return _TASKS[index]()


def run_seeded(tasks: list):
    """Yield each task's result, in task order.

    Every task is a call that depends only on its own seeds, so the
    results do not depend on where or when each runs. The tasks run in a
    fork pool of one worker per usable CPU (capped at the task count).
    With one worker, or in a process that multiprocessing started (a pool
    worker among them), they run inline, so nested calls never multiply
    the workers. A task's exception is raised at its place in the order;
    a worker that dies raises BrokenProcessPool. qicd starts no threads of
    its own; numpy's OpenBLAS pool shuts itself down across a fork.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(tasks))
    if workers <= 1 or multiprocessing.parent_process() is not None:
        for task in tasks:
            yield task()
        return
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=fork, initializer=_set_tasks, initargs=(tasks,)) as pool:
        yield from pool.map(_run_task, range(len(tasks)))


def planted_sizes(n: int, k: int) -> list[int]:
    base, extra = divmod(n, k)
    return [base + 1 if c < extra else base for c in range(k)]


def _bernoulli_hits(space: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Indices of Bernoulli(p) successes over range(space), by geometric skips."""
    if space <= 0 or p <= 0.0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(space, dtype=np.int64)
    chunks = []
    pos = -1
    while True:
        remaining = space - pos - 1
        if remaining <= 0:
            break
        est = int(remaining * p * 1.2) + 16
        gaps = rng.geometric(p, size=est).astype(np.int64)
        hits = pos + np.cumsum(gaps)
        inside = hits[hits < space]
        chunks.append(inside)
        if inside.size < gaps.size:
            break
        pos = int(hits[-1])
    return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)


def generate_planted(spec: PlantedSpec) -> tuple[Graph, list[int]]:
    """Sample a planted-partition graph; returns it with the ground-truth
    community label of each node.

    Every intra-community pair is linked independently with probability
    p_in, inter-community pairs with p_out; edges are unweighted.
    """
    sizes = planted_sizes(spec.n, spec.k)
    starts = [0]
    for s in sizes[:-1]:
        starts.append(starts[-1] + s)
    labels = []
    for c, s in enumerate(sizes):
        labels.extend([c] * s)

    intra_pairs = sum(s * (s - 1) // 2 for s in sizes)
    inter_pairs = sum(
        sizes[a] * sizes[b] for a in range(spec.k) for b in range(a + 1, spec.k)
    )
    expected = spec.p_in * intra_pairs + spec.p_out * inter_pairs
    if expected < 1.0:
        raise ValueError(f"expected edge count {expected:.3g} is below 1; spec would be empty")

    rng = make_rng(spec.seed)
    pairs = [np.empty((0, 2), dtype=np.int64)]  # concatenable even if no pair is drawn
    # Intra blocks: sample the full s*s rectangle and keep cells above the
    # diagonal, so each unordered pair is hit with probability exactly p_in.
    for c in range(spec.k):
        s = sizes[c]
        if s < 2 or spec.p_in <= 0.0:
            continue
        hits = _bernoulli_hits(s * s, spec.p_in, rng)
        i = hits // s
        j = hits % s
        keep = i < j
        pairs.append(np.column_stack((i[keep], j[keep])) + starts[c])
    if spec.p_out > 0.0:
        for a in range(spec.k):
            for b in range(a + 1, spec.k):
                hits = _bernoulli_hits(sizes[a] * sizes[b], spec.p_out, rng)
                pairs.append(np.column_stack((hits // sizes[b] + starts[a], hits % sizes[b] + starts[b])))
    ends = np.concatenate(pairs)
    graph = build_graph(spec.n, np.column_stack((ends, np.ones(len(ends)))))
    return graph, labels


def spec_for_ratio(n: int, k: int, ratio: float, avg_degree: float, seed: int = 0) -> PlantedSpec:
    """Planted spec with mean degree avg_degree and mixing ratio p_out/p_in."""
    s_mean = n / k
    p_in = avg_degree / ((s_mean - 1.0) + ratio * (n - s_mean))
    p_in = min(p_in, 1.0)
    p_out = min(ratio * p_in, p_in)
    return PlantedSpec(n, k, p_in, p_out, seed)


# Bisection steps calibrate_planted takes before it gives up.
CALIBRATION_STEPS = 30


def calibrate_planted(
    n: int,
    k: int,
    target_q: float,
    tolerance: float = 0.01,
    *,
    avg_degree: float = 20.0,
    seed: int = 0,
    runs: int = 3,
) -> tuple[PlantedSpec, float]:
    """Find a planted spec whose mean Leiden Q hits target_q.

    Holds the average degree fixed and bisects the mixing ratio p_out/p_in
    (ratio 1 is ER-like, ratio 0 fully separated), evaluating the mean
    Leiden modularity over `runs` seeded graphs at each step. Raises when
    the target cannot be bracketed or reached within CALIBRATION_STEPS.
    """
    if not 0.0 < target_q < 0.9:
        raise ValueError("target_q must be in (0, 0.9)")
    for name, value in (("tolerance", tolerance), ("avg_degree", avg_degree)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    if runs < 1:
        raise ValueError(f"runs must be at least 1, got {runs}")

    det = DetectorConfig()

    def mean_q(ratio: float) -> float:
        qs = []
        for i in range(runs):
            spec = spec_for_ratio(n, k, ratio, avg_degree, seed=mix(seed, i))
            graph, _truth = generate_planted(spec)
            part = leiden(graph, replace(det, seed=mix(seed, 1000 + i)))
            qs.append(modularity(graph, part, det.resolution))
        return sum(qs) / len(qs)

    lo, hi = 0.0, 1.0  # q decreases as the ratio grows
    q_lo = mean_q(lo)
    if abs(q_lo - target_q) <= tolerance:
        return spec_for_ratio(n, k, lo, avg_degree, seed), q_lo
    q_hi = mean_q(hi)
    if abs(q_hi - target_q) <= tolerance:
        return spec_for_ratio(n, k, hi, avg_degree, seed), q_hi
    if not (q_hi < target_q < q_lo):
        raise ValueError(
            f"cannot bracket target_q={target_q}: achievable range is "
            f"[{q_hi:.4f}, {q_lo:.4f}] at avg_degree={avg_degree}"
        )
    for _ in range(CALIBRATION_STEPS):
        mid = 0.5 * (lo + hi)
        q_mid = mean_q(mid)
        if abs(q_mid - target_q) <= tolerance:
            return spec_for_ratio(n, k, mid, avg_degree, seed), q_mid
        if q_mid > target_q:
            lo = mid
        else:
            hi = mid
    raise ValueError(f"calibration did not reach target_q={target_q} within {CALIBRATION_STEPS} steps")


def ring_of_cliques(cliques: int, size: int) -> Graph:
    """cliques complete graphs K_size in a ring, one bridge edge between
    consecutive cliques. High-modularity control structure."""
    if cliques < 3:
        raise ValueError("need at least 3 cliques")
    if size < 3:
        raise ValueError("clique size must be at least 3")
    edges: list[tuple[int, int, float]] = []
    for c in range(cliques):
        base = c * size
        for i in range(size):
            for j in range(i + 1, size):
                edges.append((base + i, base + j, 1.0))
    for c in range(cliques):
        u = c * size + size - 1
        v = ((c + 1) % cliques) * size
        edges.append((u, v, 1.0))
    return build_graph(cliques * size, edges)


def clique_ring_truth(cliques: int, size: int) -> list[int]:
    return [c for c in range(cliques) for _ in range(size)]


def _check_swap_factor(swap_factor: float) -> None:
    if not (math.isfinite(swap_factor) and swap_factor > 0):
        raise ValueError(f"swap_factor must be finite and > 0, got {swap_factor}")


def degree_preserving_rewire(graph: Graph, swap_factor: float = 10.0, seed: int = 0) -> Graph:
    """Randomize a graph by double-edge swaps, preserving every degree.

    Tries ceil(swap_factor * m) swaps in rounds. Each round draws up to
    m // 2 disjoint edge pairs; a swap replaces edges (a, b) and (c, d)
    with (a, c) and (b, d), where a random flip may first exchange c and d.
    All pairs of a round are checked against the edge set at the start of
    the round, so the rejection is conservative: a swap is refused if it
    would make a self-loop, if its two new edges coincide, if either new
    edge is already present (even one that another swap of the round
    removes), or if either is proposed twice in the round. Each weight
    stays with its edge slot and so travels with the rewired edge.
    """
    _check_swap_factor(swap_factor)
    us, vs, ws = graph.edge_arrays()
    m = len(us)
    if m < 2:
        raise ValueError("rewiring needs at least 2 edges")
    n = graph.node_count
    attempts = math.ceil(swap_factor * m)
    rng = make_rng(seed)
    tried = 0
    while tried < attempts:
        pairs = min(m // 2, attempts - tried)
        tried += pairs
        order = rng.permutation(m)
        i, j = order[:pairs], order[pairs : 2 * pairs]
        flip = rng.random(pairs) < 0.5
        a, b = us[i], vs[i]
        c = np.where(flip, vs[j], us[j])
        d = np.where(flip, us[j], vs[j])
        lo1, hi1 = np.minimum(a, c), np.maximum(a, c)
        lo2, hi2 = np.minimum(b, d), np.maximum(b, d)
        new1, new2 = lo1 * n + hi1, lo2 * n + hi2
        # Edges are int64 keys min * n + max (us < vs holds throughout).
        # Sorted needles are looked up in the sorted keys; a key drawn twice
        # in the round (also both new edges of one pair) rejects its pairs.
        needles, inverse, counts = np.unique(
            np.concatenate((new1, new2)), return_inverse=True, return_counts=True
        )
        present = np.sort(us * n + vs)
        hit = present[np.minimum(np.searchsorted(present, needles), m - 1)] == needles
        bad = (hit | (counts > 1))[inverse]
        ok = (a != c) & (b != d) & ~bad[:pairs] & ~bad[pairs:]
        i, j = i[ok], j[ok]
        us[i], vs[i] = lo1[ok], hi1[ok]
        us[j], vs[j] = lo2[ok], hi2[ok]
    return build_graph(n, np.column_stack((us, vs, ws)))


# Method labels: the classical optimizers plus every perturbation flavor
# layered on each of them, e.g. "leiden" and "leiden-haar-hu".
METHODS: dict[str, tuple[str, str | None]] = {
    base + (f"-{kind}" if kind else ""): (base, kind) for base in BASE_METHODS for kind in (None, *KIND_NAMES)
}


def method_q(name: str, graph: Graph, seed: int, cfg: QicdConfig | None = None) -> float:
    """Run one method of METHODS once; returns the modularity of its result.

    The method name sets the base optimizer and the proposal kind;
    everything else comes from cfg, reseeded from `seed`.
    """
    cfg = cfg or QicdConfig()
    base, kind = METHODS[name]
    det = replace(cfg.detector, seed=seed)
    if kind is None:
        part = louvain(graph, det) if base == "louvain" else leiden(graph, det)
        return modularity(graph, part, det.resolution)
    return run_qicd(graph, replace(cfg, kind=kind, base=base, detector=det, seed=mix(seed, 1))).q_star


def _method_run(name: str, seed: int, source: Graph | Callable[[int], Graph], cfg: QicdConfig | None) -> float:
    graph = source if isinstance(source, Graph) else source(mix(seed, 0xF))
    return method_q(name, graph, seed, cfg)


def run_experiment(
    source: Graph | Callable[[int], Graph], runs: dict[str, int], base_seed: int, *, cfg: QicdConfig | None = None
) -> list[TrialSample]:
    """Run each method of `runs` as many times as it maps to, with
    decoupled per-run seeds, in the mapping's order.

    source is the graph that every run reads, or a function from a run's
    seed to a fresh graph. The runs go through run_seeded; each result
    depends only on its seed.
    """
    if not (isinstance(source, Graph) or callable(source)):
        raise ValueError(f"source must be a Graph or a function from seed to Graph, got {type(source).__name__}")
    unknown = [m for m in runs if m not in METHODS]
    if unknown:
        raise ValueError(f"unknown method names: {', '.join(unknown)}")
    for m, count in runs.items():
        if count < 1:
            raise ValueError(f"method {m!r} needs at least 1 run")

    seeds = {name: tuple(mix(base_seed, mi, ri) for ri in range(count))
             for mi, (name, count) in enumerate(runs.items())}
    results = run_seeded([
        partial(_method_run, name, seed, source, cfg) for name, method_seeds in seeds.items() for seed in method_seeds
    ])
    samples = []
    for name, method_seeds in seeds.items():
        qs = []
        for ri in range(len(method_seeds)):
            try:
                qs.append(next(results))
            except BrokenExecutor:
                raise  # a worker died; which run it held is unknown
            except Exception as exc:
                raise RuntimeError(f"method {name!r} run {ri} failed: {exc}") from exc
        samples.append(TrialSample(name, tuple(qs), method_seeds))
    return samples


def _null_mrg(graph: Graph, cfg: QicdConfig, swap_factor: float, seed: int, i: int) -> float:
    null_graph = degree_preserving_rewire(graph, swap_factor, seed=mix(seed, 1, i))
    cfg_i = replace(
        cfg,
        seed=mix(seed, 2, i),
        detector=replace(cfg.detector, seed=mix(seed, 3, i)),
    )
    return run_qicd(null_graph, cfg_i).mrg


def mrg_significance(
    graph: Graph,
    cfg: QicdConfig,
    null_count: int = 20,
    seed: int = 0,
    swap_factor: float = 10.0,
) -> MrgReport:
    """Compare the observed MRG against degree-preserving null graphs.

    Rewires the graph null_count times, runs the same QICD configuration on
    each null (with derived seeds), and reports where the observed gap falls
    in the null distribution (mid-rank percentile). The observed run and
    the nulls go through run_seeded.
    """
    if null_count < 5:
        raise ValueError("null_count must be >= 5")
    _check_swap_factor(swap_factor)
    observed, *gaps = run_seeded([
        lambda: run_qicd(graph, cfg).mrg,
        *(partial(_null_mrg, graph, cfg, swap_factor, seed, i) for i in range(null_count)),
    ])
    count = len(gaps)
    null_mean = sum(gaps) / count
    null_var = sum((g - null_mean) ** 2 for g in gaps) / (count - 1)
    below = sum(1 for g in gaps if g < observed)
    equal = sum(1 for g in gaps if g == observed)
    percentile = 100.0 * (below + 0.5 * equal) / count
    return MrgReport(observed, tuple(gaps), null_mean, math.sqrt(null_var), percentile)
