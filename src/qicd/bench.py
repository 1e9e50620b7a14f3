"""Synthetic benchmarks, null models, and experiment orchestration.

Provides planted-partition generators (with a calibration loop that targets
a requested baseline modularity), a high-modularity clique-ring control,
degree-preserving rewiring for null models, the multi-run experiment
driver, and the MRG significance report against rewired nulls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .detect import DetectorConfig, leiden, louvain
from .engine import QicdConfig, run_qicd
from .graph import Graph, build_graph
from .partition import Partition, modularity
from .rng import make_rng, mix
from .sampling import PerturbationKind


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


def generate_planted(spec: PlantedSpec) -> tuple[Graph, Partition]:
    """Sample a planted-partition graph; returns it with the ground truth.

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
    return graph, Partition(graph, labels)


def spec_for_ratio(n: int, k: int, ratio: float, avg_degree: float, seed: int = 0) -> PlantedSpec:
    """Planted spec with mean degree avg_degree and mixing ratio p_out/p_in."""
    s_mean = n / k
    p_in = avg_degree / ((s_mean - 1.0) + ratio * (n - s_mean))
    p_in = min(p_in, 1.0)
    p_out = min(ratio * p_in, p_in)
    return PlantedSpec(n, k, p_in, p_out, seed)


def calibrate_planted(
    n: int,
    k: int,
    target_q: float,
    tolerance: float = 0.01,
    *,
    avg_degree: float = 20.0,
    seed: int = 0,
    runs: int = 3,
    max_steps: int = 30,
    detector: DetectorConfig | None = None,
) -> tuple[PlantedSpec, float]:
    """Find a planted spec whose mean Leiden Q hits target_q.

    Holds the average degree fixed and bisects the mixing ratio p_out/p_in
    (ratio 1 is ER-like, ratio 0 fully separated), evaluating the mean
    Leiden modularity over `runs` seeded graphs at each step. Raises when
    the target cannot be bracketed or reached within max_steps.
    """
    if not 0.0 < target_q < 0.9:
        raise ValueError("target_q must be in (0, 0.9)")
    for name, value in (("tolerance", tolerance), ("avg_degree", avg_degree)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    if runs < 1:
        raise ValueError(f"runs must be at least 1, got {runs}")

    det = detector or DetectorConfig()

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
    for _ in range(max_steps):
        mid = 0.5 * (lo + hi)
        q_mid = mean_q(mid)
        if abs(q_mid - target_q) <= tolerance:
            return spec_for_ratio(n, k, mid, avg_degree, seed), q_mid
        if q_mid > target_q:
            lo = mid
        else:
            hi = mid
    raise ValueError(f"calibration did not reach target_q={target_q} within {max_steps} steps")


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
# layered on each of them.
METHODS: dict[str, tuple[str, str | None]] = {
    "louvain": ("louvain", None),
    "louvain-hu": ("louvain", "hu"),
    "louvain-pt": ("louvain", "pt"),
    "louvain-haar": ("louvain", "haar"),
    "louvain-pt-hu": ("louvain", "pt-hu"),
    "louvain-haar-hu": ("louvain", "haar-hu"),
    "leiden": ("leiden", None),
    "leiden-hu": ("leiden", "hu"),
    "leiden-pt": ("leiden", "pt"),
    "leiden-haar": ("leiden", "haar"),
    "leiden-pt-hu": ("leiden", "pt-hu"),
    "leiden-haar-hu": ("leiden", "haar-hu"),
}


def method_q(name: str, graph: Graph, seed: int, cfg: QicdConfig | None = None) -> float:
    """Run one method once; returns the modularity of its result.

    The method name sets the base optimizer and the proposal kind (keeping
    cfg's proposal seed count); everything else comes from cfg, reseeded
    from `seed`.
    """
    if name not in METHODS:
        raise ValueError(f"unknown method {name!r}")
    cfg = cfg or QicdConfig()
    base, kind = METHODS[name]
    det = replace(cfg.detector, seed=seed)
    if kind is None:
        part = louvain(graph, det) if base == "louvain" else leiden(graph, det)
        return modularity(graph, part, det.resolution)
    run_cfg = replace(
        cfg,
        kind=PerturbationKind(kind, cfg.kind.seed_count),
        base=base,
        detector=det,
        seed=mix(seed, 1),
    )
    return run_qicd(graph, run_cfg).q_star


def run_experiment(
    graph: Graph | None,
    methods: list[str],
    runs_per_method: int | dict[str, int],
    base_seed: int,
    *,
    cfg: QicdConfig | None = None,
    graph_factory=None,
) -> list[TrialSample]:
    """Run each method several times with decoupled per-run seeds.

    runs_per_method is a single count or a per-method mapping. Runs execute
    one after another; each result depends only on its seed.
    graph_factory(seed) may supply a fresh graph per run instead of the
    shared one.
    """
    if graph is None and graph_factory is None:
        raise ValueError("either a graph or a graph_factory is required")
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ValueError(f"unknown method names: {', '.join(unknown)}")
    if isinstance(runs_per_method, int):
        runs = {m: runs_per_method for m in methods}
    else:
        runs = dict(runs_per_method)
    for m in methods:
        if runs.get(m, 0) < 1:
            raise ValueError(f"method {m!r} needs at least 1 run")

    samples = []
    for mi, name in enumerate(methods):
        seeds = tuple(mix(base_seed, mi, ri) for ri in range(runs[name]))
        qs = []
        for ri, seed in enumerate(seeds):
            try:
                g = graph_factory(mix(seed, 0xF)) if graph_factory is not None else graph
                qs.append(method_q(name, g, seed, cfg))
            except Exception as exc:
                raise RuntimeError(f"method {name!r} run {ri} failed: {exc}") from exc
        samples.append(TrialSample(name, tuple(qs), seeds))
    return samples


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
    in the null distribution (mid-rank percentile).
    """
    if null_count < 5:
        raise ValueError("null_count must be >= 5")
    _check_swap_factor(swap_factor)
    observed = run_qicd(graph, cfg).mrg
    gaps = []
    for i in range(null_count):
        null_graph = degree_preserving_rewire(graph, swap_factor, seed=mix(seed, 1, i))
        cfg_i = replace(
            cfg,
            seed=mix(seed, 2, i),
            detector=replace(cfg.detector, seed=mix(seed, 3, i)),
        )
        gaps.append(run_qicd(null_graph, cfg_i).mrg)
    count = len(gaps)
    null_mean = sum(gaps) / count
    null_var = sum((g - null_mean) ** 2 for g in gaps) / (count - 1)
    below = sum(1 for g in gaps if g < observed)
    equal = sum(1 for g in gaps if g == observed)
    percentile = 100.0 * (below + 0.5 * equal) / count
    return MrgReport(observed, tuple(gaps), null_mean, math.sqrt(null_var), percentile)
