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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from itertools import islice

import numpy as np

from .detect import leiden, louvain
from .engine import BASE_METHODS, KIND_NAMES, QicdConfig, run_qicd
from .graph import _MAX_NODES, Graph, NodeCountError, build_graph
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
        if self.n > _MAX_NODES:  # build_graph's cap, checked before any label is made
            raise NodeCountError(f"node count {self.n} is too large")
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
    observed_mrg: float
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


# Gaps that one geometric draw of _bernoulli_runs takes, unless a single
# chunk is larger.
_GROUP_GAPS = 1 << 16


def _bernoulli_runs(spaces, p: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Indices of Bernoulli(p) successes over range(space) for each space in
    turn, by geometric skips: the hits of every block, concatenated in block
    order, and the number of hits in each block.

    The blocks read one stream of geometric gaps. Each block takes a chunk
    sized for the cells it has left, and another while a chunk ends inside
    it. The chunks that come next in the stream, up to _GROUP_GAPS gaps, are
    drawn in one call and split by one cumulative sum; numpy's geometric
    draws the same values in one call as in several, and a call never draws
    more than the blocks it serves read. The sums are taken modulo 2**64:
    a block's sum is below 2**63 until a gap leaves the block, and a gap is
    below 2**63, so the sum is exact up to that gap, which ends the block.
    """
    spaces = np.asarray(spaces, dtype=np.int64)
    counts = np.zeros(len(spaces), dtype=np.int64)
    if p <= 0.0:
        return np.empty(0, dtype=np.int64), counts
    if p >= 1.0:
        counts[:] = np.maximum(spaces, 0)
        return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts), counts

    def chunk(block: int, at: int) -> tuple[int, int, int]:
        """A segment: the block, the position before its first gap, and
        the gaps it draws, sized for the cells after that position."""
        return block, at, int((spaces[block] - at - 1) * p * 1.2) + 16

    pieces = []
    buffer = np.empty(0, dtype=np.int64)  # gaps drawn and not yet read
    carry = None  # (block, position of its last hit), when its last chunk ended inside it
    following = 0  # the next block to take its first chunk
    while True:
        segments = [] if carry is None else [chunk(*carry)]
        total = sum(size for *_, size in segments)
        while following < len(spaces):
            segment = chunk(following, -1)
            if segments and total >= len(buffer) and total + segment[2] > _GROUP_GAPS:
                break
            if spaces[following] > 0:
                segments.append(segment)
                total += segment[2]
            following += 1
        if not segments:
            break
        gaps = rng.geometric(p, size=total - len(buffer)) if total > len(buffer) else buffer[:0]
        if len(buffer):
            gaps = np.concatenate((buffer, gaps))
        block, at, size = (np.array(column, dtype=np.int64) for column in zip(*segments))
        room = spaces[block] - at  # cells after `at`
        end = np.cumsum(size)
        begin = end - size
        run = np.cumsum(gaps.view(np.uint64))
        offset = run[begin - 1]
        offset[0] = 0
        run -= np.repeat(offset, size)  # each segment's own sum
        left = np.append(np.flatnonzero(run >= np.repeat(room, size).view(np.uint64)), len(run))
        stop = np.minimum(left[np.searchsorted(left, begin)], end)  # each segment's first gap outside
        # A chunk that ends inside its block, before its last cell, is followed by another.
        short = np.flatnonzero((stop == end) & (run[end - 1] + 1 < room.view(np.uint64)))
        kept = short[0] + 1 if short.size else len(segments)
        found = stop[:kept] - begin[:kept]
        inside = np.arange(end[kept - 1]) < np.repeat(stop[:kept], size[:kept])
        hits = run[: end[kept - 1]][inside].view(np.int64)
        hits += np.repeat(at[:kept], found)
        pieces.append(hits)
        counts[block[:kept]] += found
        if short.size:  # its chunk was all hits; the gaps after it are its next chunk's
            carry = (int(block[kept - 1]), int(hits[-1]))
            buffer = gaps[end[kept - 1] :]
            following = carry[0] + 1
        else:
            carry, buffer = None, gaps[:0]
    return (np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)), counts


def generate_planted(spec: PlantedSpec) -> tuple[Graph, list[int]]:
    """Sample a planted-partition graph; returns it with the ground-truth
    community label of each node.

    Every intra-community pair is linked independently with probability
    p_in, inter-community pairs with p_out; edges are unweighted.
    """
    sizes = planted_sizes(spec.n, spec.k)
    labels = np.repeat(np.arange(spec.k), sizes).tolist()
    intra_pairs, inter_pairs = _pair_counts(sizes)
    expected = spec.p_in * intra_pairs + spec.p_out * inter_pairs
    if expected < 1.0:
        raise ValueError(f"expected edge count {expected:.3g} is below 1; spec would be empty")

    runs = _planted_runs(spec, sizes)
    us = np.concatenate([u for u, _v in runs])
    vs = np.concatenate([v for _u, v in runs])
    del runs  # before build_graph makes its own arrays
    return build_graph(spec.n, us, vs, np.ones(len(us))), labels


def _pair_counts(sizes: list[int]) -> tuple[int, int]:
    """The numbers of node pairs inside one community and across two, for
    communities of these sizes: the pairs that are not inside one of them
    are half of n^2 less the sum of the squares."""
    n = sum(sizes)
    return sum(s * (s - 1) // 2 for s in sizes), (n * n - sum(s * s for s in sizes)) // 2


def _planted_runs(spec: PlantedSpec, sizes: list[int]) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (u, v) arrays of the pairs the intra blocks draw, then those of
    the inter blocks, each block in turn from the spec's seeded stream."""
    rng = make_rng(spec.seed)
    # Intra blocks: sample the full s*s rectangle and keep cells above the
    # diagonal, so each unordered pair is hit with probability exactly p_in.
    size = np.array(sizes, dtype=np.int64)
    start = np.cumsum(size) - size
    intra = np.flatnonzero(size >= 2)
    hits, counts = _bernoulli_runs(size[intra] ** 2, spec.p_in, rng)
    s = np.repeat(size[intra], counts)
    i, j = np.divmod(hits, s, out=(hits, s))
    keep = i < j
    first = np.repeat(start[intra], counts)[keep]
    runs = [(i[keep] + first, j[keep] + first)]
    del hits, i, j, s, keep, first
    if spec.p_out > 0.0:
        # Inter blocks: (a, b) for a < b, in row order.
        a, b = np.triu_indices(spec.k, 1)
        hits, counts = _bernoulli_runs(size[a] * size[b], spec.p_out, rng)
        s = np.repeat(size[b], counts)
        i, j = np.divmod(hits, s, out=(hits, s))
        runs.append((i + np.repeat(start[a], counts), j + np.repeat(start[b], counts)))
    return runs


def spec_for_ratio(n: int, k: int, ratio: float, avg_degree: float, seed: int = 0) -> PlantedSpec:
    """Planted spec with mean degree avg_degree and mixing ratio p_out/p_in."""
    s_mean = n / k
    p_in = avg_degree / ((s_mean - 1.0) + ratio * (n - s_mean))
    p_in = min(p_in, 1.0)
    p_out = min(ratio * p_in, p_in)
    return PlantedSpec(n, k, p_in, p_out, seed)


# Bisection steps calibrate_planted takes before it gives up, and the
# seeded graphs whose mean Leiden Q it reads at each step.
CALIBRATION_STEPS = 30
CALIBRATION_RUNS = 3


def calibrate_planted(
    n: int, k: int, target_q: float, tolerance: float = 0.01, *, avg_degree: float = 20.0, seed: int = 0
) -> tuple[PlantedSpec, float]:
    """Find a planted spec whose mean Leiden Q hits target_q.

    Holds the average degree fixed and bisects the mixing ratio p_out/p_in
    (ratio 1 is ER-like, ratio 0 fully separated), evaluating the mean
    Leiden Q of CALIBRATION_RUNS seeded graphs at each step. Raises when
    the target cannot be bracketed or reached within CALIBRATION_STEPS.
    """
    if not 1 <= k < n:  # k = n leaves no intra pair, and its spec divides by zero
        raise ValueError(f"k must satisfy 1 <= k < n, got k={k} with n={n}")
    if not 0.0 < target_q < 0.9:
        raise ValueError("target_q must be in (0, 0.9)")
    for name, value in (("tolerance", tolerance), ("avg_degree", avg_degree)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {value}")

    def mean_q(ratio: float) -> float:
        qs = []
        for i in range(CALIBRATION_RUNS):
            spec = spec_for_ratio(n, k, ratio, avg_degree, seed=mix(seed, i))
            graph, _truth = generate_planted(spec)
            part = leiden(graph, mix(seed, 1000 + i))
            qs.append(modularity(graph, part))
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
    # The pairs i < j of one clique in row order; every clique lists them
    # from its first node, then the bridges follow, one clique to the next.
    i, j = np.triu_indices(size, 1)
    base = np.arange(cliques) * size
    us = np.append(np.add.outer(base, i), base + size - 1)
    vs = np.append(np.add.outer(base, j), np.roll(base, -1))
    return build_graph(cliques * size, us, vs, np.ones(len(us)))


def clique_ring_truth(cliques: int, size: int) -> list[int]:
    return [c for c in range(cliques) for _ in range(size)]


# Swaps that degree_preserving_rewire tries per edge.
SWAP_FACTOR = 10


def degree_preserving_rewire(graph: Graph, *, seed: int = 0) -> Graph:
    """Randomize a graph by double-edge swaps, preserving every degree.

    Tries SWAP_FACTOR * m swaps in rounds. Each round draws up to
    m // 2 disjoint edge pairs; a swap replaces edges (a, b) and (c, d)
    with (a, c) and (b, d), where a random flip may first exchange c and d.
    All pairs of a round are checked against the edge set at the start of
    the round, so the rejection is conservative: a swap is refused if it
    would make a self-loop, if its two new edges coincide, if either new
    edge is already present (even one that another swap of the round
    removes), or if either is proposed twice in the round. Each weight
    stays with its edge slot and so travels with the rewired edge.
    """
    us, vs, ws = graph.edge_arrays()
    m = len(us)
    if m < 2:
        raise ValueError("rewiring needs at least 2 edges")
    n = graph.node_count
    attempts = SWAP_FACTOR * m
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
    return build_graph(n, us, vs, ws)


# Method labels: the classical optimizers plus every perturbation flavor
# layered on each of them, e.g. "leiden" and "leiden-haar-hu".
METHODS: dict[str, tuple[str, str | None]] = {
    base + (f"-{kind}" if kind else ""): (base, kind) for base in BASE_METHODS for kind in (None, *KIND_NAMES)
}


def method_q(name: str, graph: Graph, seed: int, cfg: QicdConfig = QicdConfig()) -> float:
    """Run one method of METHODS once; returns the modularity of its result.

    The method name sets the base optimizer and the proposal kind;
    everything else comes from cfg, reseeded with `seed`.
    """
    base, kind = METHODS[name]
    if kind is None:
        part = louvain(graph, seed) if base == "louvain" else leiden(graph, seed)
        return modularity(graph, part)
    return run_qicd(graph, replace(cfg, kind=kind, base=base, seed=seed)).q_star


def run_experiment(graph: Graph, runs: dict[str, int], *, cfg: QicdConfig = QicdConfig()) -> list[TrialSample]:
    """Run each method of `runs` on `graph` as many times as it maps to,
    in the mapping's order, with per-run seeds derived from cfg.seed, through
    run_seeded: each result depends only on its seed, and a run's exception
    reaches the caller as raised.
    """
    if not isinstance(graph, Graph):
        raise ValueError(f"graph must be a Graph, got {type(graph).__name__}")
    unknown = [m for m in runs if m not in METHODS]
    if unknown:
        raise ValueError(f"unknown method names: {', '.join(unknown)}")
    for m, count in runs.items():
        if count < 1:
            raise ValueError(f"method {m!r} needs at least 1 run")

    seeds = {name: tuple(mix(cfg.seed, mi, ri) for ri in range(count))
             for mi, (name, count) in enumerate(runs.items())}
    results = run_seeded([
        partial(method_q, name, graph, seed, cfg) for name, method_seeds in seeds.items() for seed in method_seeds
    ])
    return [TrialSample(name, tuple(islice(results, len(s))), s) for name, s in seeds.items()]


def _null_mrg(graph: Graph, cfg: QicdConfig, seed: int, i: int) -> float:
    null_graph = degree_preserving_rewire(graph, seed=mix(seed, 1, i))
    return run_qicd(null_graph, replace(cfg, seed=mix(seed, 3, i))).mrg


def mrg_significance(graph: Graph, cfg: QicdConfig, null_count: int = 20) -> MrgReport:
    """Compare the observed MRG against degree-preserving null graphs.

    Rewires the graph null_count times, runs the same QICD configuration on
    each null (with seeds derived from mix(cfg.seed, 2)), and reports where
    the observed gap falls in the null distribution (mid-rank percentile).
    The nulls and then the observed run go through run_seeded.
    """
    if null_count < 5:
        raise ValueError("null_count must be >= 5")
    if graph.total_weight <= 0.0:
        raise ValueError("modularity undefined: graph has no edges")
    seed = mix(cfg.seed, 2)
    nulls = (partial(_null_mrg, graph, cfg, seed, i) for i in range(null_count))
    # The observed run goes last, so no null runs while the graph's move-loop view is live.
    *gaps, observed = run_seeded([*nulls, lambda: run_qicd(graph, cfg).mrg])
    count = len(gaps)
    null_mean = sum(gaps) / count
    null_var = sum((g - null_mean) ** 2 for g in gaps) / (count - 1)
    below = sum(1 for g in gaps if g < observed)
    equal = sum(1 for g in gaps if g == observed)
    percentile = 100.0 * (below + 0.5 * equal) / count
    return MrgReport(observed, tuple(gaps), null_mean, math.sqrt(null_var), percentile)
