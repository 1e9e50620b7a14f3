import math
import os
import signal
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import numpy as np
import pytest

import qicd.bench
import qicd.cli
import qicd.detect
import qicd.rng

from qicd import (
    Partition,
    PlantedSpec,
    QicdConfig,
    build_graph,
    calibrate_planted,
    degree_preserving_rewire,
    generate_planted,
    leiden,
    mix,
    modularity,
    mrg_significance,
    ring_of_cliques,
    run_experiment,
    run_qicd,
)
from qicd.bench import METHODS, clique_ring_truth, planted_sizes, run_seeded, spec_for_ratio
from qicd.graph import NodeCountError

from conftest import edge_columns


def _pin_cpus(monkeypatch, cpus: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def test_planted_spec_validation():
    with pytest.raises(ValueError):
        PlantedSpec(10, 0, 0.5, 0.1)
    with pytest.raises(ValueError):
        PlantedSpec(10, 11, 0.5, 0.1)
    with pytest.raises(ValueError):
        PlantedSpec(10, 2, 0.1, 0.5)  # p_out > p_in
    with pytest.raises(ValueError):
        PlantedSpec(10, 2, 1.5, 0.1)
    # build_graph's node cap, isqrt(2**63 - 1), checked before anything is allocated
    PlantedSpec(3_037_000_499, 1, 1e-20, 0.0)
    with pytest.raises(NodeCountError, match="^node count 3037000500 is too large$"):
        PlantedSpec(3_037_000_500, 1, 1e-20, 0.0)


def test_planted_sizes_spread_remainder():
    assert planted_sizes(10, 3) == [4, 3, 3]
    assert planted_sizes(9, 3) == [3, 3, 3]
    assert planted_sizes(5, 5) == [1, 1, 1, 1, 1]


def test_two_disjoint_cliques_exact():
    g, truth = generate_planted(PlantedSpec(6, 2, 1.0, 0.0, seed=1))
    assert g.total_weight == 6.0
    assert modularity(g, Partition(g, truth)) == 0.5


def test_planted_er_truth_q_near_zero():
    total = 0.0
    for i in range(20):
        g, truth = generate_planted(PlantedSpec(1000, 10, 0.02, 0.02, seed=mix(3, i)))
        total += modularity(g, Partition(g, truth))
    assert abs(total / 20) <= 0.01


def test_planted_truth_matches_analytic_expectation():
    # expected Q of the planted labels: w_in/(w_in + w_out) - 1/k
    spec = PlantedSpec(1000, 10, 0.06, 0.02, seed=42)
    sizes = planted_sizes(spec.n, spec.k)
    intra_pairs = sum(s * (s - 1) // 2 for s in sizes)
    inter_pairs = sum(
        sizes[a] * sizes[b] for a in range(spec.k) for b in range(a + 1, spec.k)
    )
    w_in = spec.p_in * intra_pairs
    w_out = spec.p_out * inter_pairs
    expected = w_in / (w_in + w_out) - 1.0 / spec.k
    g, truth = generate_planted(spec)
    assert abs(modularity(g, Partition(g, truth)) - expected) <= 0.02


class CountingRng:
    """A seeded generator that records the size of each geometric draw."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.sizes = []

    def geometric(self, p, size):
        self.sizes.append(size)
        return self.rng.geometric(p, size=size)


def test_bernoulli_hits_across_chunks():
    # Every geometric gap is 1, so each draw's estimate falls short of the
    # range and the skips run on into further chunks; the draw sizes are the
    # stream that one block of generate_planted consumes.
    class AllOnes:
        def __init__(self):
            self.sizes = []

        def geometric(self, p, size):
            self.sizes.append(size)
            return np.ones(size, dtype=np.int64)

    rng = AllOnes()
    hits, counts = qicd.bench._bernoulli_runs([1000], 0.5, rng)
    assert np.array_equal(hits, np.arange(1000)) and counts.tolist() == [1000]
    assert rng.sizes == [616, 246, 98, 40]


def _reference_hits(space: int, p: float, rng) -> np.ndarray:
    """One block's hits, drawn chunk by chunk on its own: the per-block loop
    that _bernoulli_runs batches."""
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


def _assert_runs_match_reference(spaces, p, seed):
    """_bernoulli_runs gives the hits the per-block loop gives, and leaves
    the generator where that loop leaves it; returns the loop's draw count."""
    reference = CountingRng(seed)
    blocks = [_reference_hits(s, p, reference) for s in spaces]
    rng = np.random.default_rng(seed)
    hits, counts = qicd.bench._bernoulli_runs(spaces, p, rng)
    assert counts.tolist() == [len(b) for b in blocks]
    assert np.array_equal(hits, np.concatenate(blocks) if blocks else np.empty(0))
    assert rng.random() == reference.rng.random()
    return len(reference.sizes)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bernoulli_runs_match_the_per_block_loop(seed):
    # At p = 0.1 a 1,000-cell block's first chunk of 136 gaps now and then
    # ends inside it, and the block draws a second chunk.
    draws = _assert_runs_match_reference([1000] * 20_000, 0.1, seed)
    assert draws > 20_000


@pytest.mark.parametrize("blocks", range(1, 25))
def test_bernoulli_runs_group_boundary_next_to_a_second_chunk(monkeypatch, blocks):
    # Seed 5's block 22 draws a second chunk. Groups of `blocks` first
    # chunks of 136 gaps, one gap short or over, put a group's edge before,
    # at and after it.
    draws = _assert_runs_match_reference([1000] * 100, 0.1, 5)
    assert draws == 101
    for limit in (136 * blocks - 1, 136 * blocks, 136 * blocks + 1):
        monkeypatch.setattr(qicd.bench, "_GROUP_GAPS", limit)
        _assert_runs_match_reference([1000] * 100, 0.1, 5)


@pytest.mark.parametrize(
    "spaces, p",
    [
        ([1000] * 50, 1.0),
        ([1000] * 50, 0.0),
        ([1], 0.5),
        ([1, 1000, 1, 1, 4], 0.3),
        ([], 0.5),
        ([2500] * 1770, 0.4),
        ([10**6] * 40, 1.2e-4),
        ([10**5] * 3, 0.9),
    ],
)
def test_bernoulli_runs_edge_cases_match_the_per_block_loop(spaces, p):
    _assert_runs_match_reference(spaces, p, 3)


def _reference_pairs(spec: PlantedSpec) -> tuple[np.ndarray, np.ndarray]:
    """The planted pairs drawn block by block with _reference_hits."""
    sizes = planted_sizes(spec.n, spec.k)
    starts = np.cumsum([0] + sizes[:-1]).tolist()
    rng = qicd.rng.make_rng(spec.seed)
    us, vs = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for c, s in enumerate(sizes):
        if s >= 2:
            hits = _reference_hits(s * s, spec.p_in, rng)
            keep = hits // s < hits % s
            us.append(hits[keep] // s + starts[c])
            vs.append(hits[keep] % s + starts[c])
    for a in range(spec.k):
        for b in range(a + 1, spec.k):
            hits = _reference_hits(sizes[a] * sizes[b], spec.p_out, rng)
            us.append(hits // sizes[b] + starts[a])
            vs.append(hits % sizes[b] + starts[b])
    return np.concatenate(us), np.concatenate(vs)


@pytest.mark.parametrize(
    "spec",
    [
        PlantedSpec(300, 5, 0.1, 0.02, seed=9),
        PlantedSpec(500, 1, 0.05, 0.0, seed=2),  # k = 1: no inter block
        PlantedSpec(6, 2, 1.0, 0.0, seed=1),
        PlantedSpec(7, 3, 1.0, 1.0, seed=1),
        PlantedSpec(7, 4, 0.5, 0.5, seed=3),  # a size-1 community
        PlantedSpec(20, 20, 0.3, 0.3, seed=4),  # only size-1 communities: no intra block
        PlantedSpec(1000, 40, 0.2, 0.0, seed=5),
    ],
)
def test_planted_runs_match_the_per_block_loop(spec):
    sizes = planted_sizes(spec.n, spec.k)
    runs = qicd.bench._planted_runs(spec, sizes)
    u, v = _reference_pairs(spec)
    assert np.array_equal(np.concatenate([u for u, _v in runs]), u)
    assert np.array_equal(np.concatenate([v for _u, v in runs]), v)


def test_bernoulli_runs_gap_near_2_63_after_a_hit_ends_the_block():
    # The sum 3 + (2**63 - 1) does not fit int64; the block still ends at it.
    class HugeAfterFirst:
        def geometric(self, p, size):
            return np.array([3] + [2**63 - 1] * (size - 1), dtype=np.int64)

    hits, counts = qicd.bench._bernoulli_runs([10, 10], 0.5, HugeAfterFirst())
    assert hits.tolist() == [2] and counts.tolist() == [1, 0]


@pytest.mark.parametrize("p_out", [1e-18, 1e-300, 5e-324])
def test_tiny_p_out_draws_no_inter_pair(tmp_path, p_out):
    # Gaps near 2**63 once wrapped a block's running position to negative
    # "hits". The intra blocks draw first, so the graph is the p_out = 0 one.
    graph, truth = generate_planted(PlantedSpec(3000, 3, 0.01, p_out, seed=1))
    alone, alone_truth = generate_planted(PlantedSpec(3000, 3, 0.01, 0.0, seed=1))
    assert truth == alone_truth
    for name in ("indptr", "indices", "weights", "strengths"):
        assert np.array_equal(getattr(graph, name), getattr(alone, name))
    argv = ["generate", "planted", "--n", "3000", "--k", "3", "--p-in", "0.01", "--p-out", str(p_out),
            "--seed", "1", "--out", str(tmp_path / "g.el")]
    assert qicd.cli.main(argv) == 0


def test_planted_reproducible():
    a, _ = generate_planted(PlantedSpec(300, 5, 0.1, 0.02, seed=9))
    b, _ = generate_planted(PlantedSpec(300, 5, 0.1, 0.02, seed=9))
    for name in ("indptr", "indices", "weights"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_planted_expected_empty_rejected():
    with pytest.raises(ValueError, match="below 1"):
        generate_planted(PlantedSpec(10, 2, 0.0, 0.0, seed=1))
    # sizes 4, 3, 3: 12 intra and 33 inter pairs, 0.12 + 0.33 expected edges
    with pytest.raises(ValueError, match=r"^expected edge count 0\.45 is below 1; spec would be empty$"):
        generate_planted(PlantedSpec(10, 3, 0.01, 0.01, seed=1))


@pytest.mark.parametrize("n,k", [(1, 1), (7, 1), (7, 7), (10, 3), (50, 50), (997, 40), (1000, 7)])
def test_pair_counts_match_the_pair_loop(n, k):
    sizes = planted_sizes(n, k)
    inter = sum(sizes[a] * sizes[b] for a in range(k) for b in range(a + 1, k))
    assert qicd.bench._pair_counts(sizes) == (sum(s * (s - 1) // 2 for s in sizes), inter)


def test_planted_is_unweighted():
    g, _ = generate_planted(PlantedSpec(100, 4, 0.2, 0.05, seed=2))
    assert (g.edge_arrays()[2] == 1.0).all()


def test_calibrate_limits():
    # near the mixing limit the best ratio is ~1; near separation it is small
    spec, achieved = calibrate_planted(300, 2, 0.30, 0.06, avg_degree=8.0, seed=4)
    assert spec.p_out / spec.p_in > 0.6
    assert abs(achieved - 0.30) <= 0.06
    spec, achieved = calibrate_planted(300, 2, 0.46, 0.03, avg_degree=8.0, seed=4)
    assert spec.p_out / spec.p_in < 0.25
    assert abs(achieved - 0.46) <= 0.03


def test_calibrate_validation_and_bracket_failure():
    with pytest.raises(ValueError):
        calibrate_planted(100, 4, 0.95, 0.01)
    # k = n would divide by zero in the ratio-0 spec
    with pytest.raises(ValueError, match="k must satisfy 1 <= k < n, got k=10 with n=10"):
        calibrate_planted(10, 10, 0.3)
    # a target below anything reachable at this scale cannot be bracketed
    with pytest.raises(ValueError, match="bracket|steps"):
        calibrate_planted(200, 4, 0.01, 0.001, avg_degree=8.0, seed=1)


def test_ring_of_cliques_structure():
    g = ring_of_cliques(10, 5)
    assert g.node_count == 50
    assert g.total_weight == 110.0
    us, vs, _ws = g.edge_arrays()
    assert (us // 5 != vs // 5).sum() == 10
    truth = clique_ring_truth(10, 5)
    from qicd import Partition

    assert abs(modularity(g, Partition(g, truth)) - (10 / 11 - 0.1)) < 1e-12


def test_ring_of_cliques_small_example():
    g = ring_of_cliques(3, 3)
    assert g.node_count == 9
    assert g.total_weight == 12.0
    from qicd import Partition

    q = modularity(g, Partition(g, clique_ring_truth(3, 3)))
    assert abs(q - 3 * (3 / 12 - (8 / 24) ** 2)) < 1e-12


def _ring_of_cliques_loop(cliques, size):
    """ring_of_cliques as a Python list of (u, v, 1.0) triples: each
    clique's pairs i < j in row order, then one bridge per clique."""
    edges = []
    for c in range(cliques):
        base = c * size
        for i in range(size):
            for j in range(i + 1, size):
                edges.append((base + i, base + j, 1.0))
    for c in range(cliques):
        edges.append((c * size + size - 1, ((c + 1) % cliques) * size, 1.0))
    return build_graph(cliques * size, *edge_columns(edges))


@pytest.mark.parametrize("cliques, size", [(3, 3), (4, 5), (10, 7), (3, 300), (3, 1000)])
def test_ring_of_cliques_matches_the_triple_loop(cliques, size):
    got, expected = ring_of_cliques(cliques, size), _ring_of_cliques_loop(cliques, size)
    for name in ("indptr", "indices", "weights", "strengths"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.total_weight == expected.total_weight


def test_ring_of_cliques_validation():
    with pytest.raises(ValueError):
        ring_of_cliques(2, 5)
    with pytest.raises(ValueError):
        ring_of_cliques(5, 2)


def test_rewire_preserves_degree_multiset():
    for seed in range(5):
        g, _ = generate_planted(PlantedSpec(120, 4, 0.3, 0.05, seed=seed))
        rewired = degree_preserving_rewire(g, seed=seed)
        assert sorted(np.diff(rewired.indptr)) == sorted(np.diff(g.indptr))
        assert rewired.node_count == g.node_count
        assert rewired.edge_count == g.edge_count


def test_rewire_star_is_fixed_point():
    star = build_graph(6, *edge_columns([(0, i, 1.0) for i in range(1, 6)]))
    rewired = degree_preserving_rewire(star, seed=3)
    for name in ("indptr", "indices", "weights"):
        assert np.array_equal(getattr(rewired, name), getattr(star, name))


def test_rewire_validation():
    g = build_graph(2, *edge_columns([(0, 1, 1.0)]))
    with pytest.raises(ValueError):
        degree_preserving_rewire(g, seed=1)


def test_rewire_destroys_clique_ring_structure():
    g = ring_of_cliques(10, 5)
    for i in range(5):
        null = degree_preserving_rewire(g, seed=mix(77, i))
        q = modularity(null, leiden(null, i))
        assert q < 0.65


def test_method_registry_covers_expected_grid():
    expected = {
        "louvain", "louvain-hu", "louvain-pt", "louvain-haar", "louvain-pt-hu", "louvain-haar-hu",
        "leiden", "leiden-hu", "leiden-pt", "leiden-haar", "leiden-pt-hu", "leiden-haar-hu",
    }
    assert set(METHODS) == expected


def test_run_experiment_grid_and_determinism():
    g, _ = generate_planted(PlantedSpec(80, 4, 0.4, 0.05, seed=6))
    runs = {"leiden": 2, "leiden-haar": 2, "louvain": 3}
    cfg = QicdConfig(iterations=2, stall_limit=2, seed=42)
    samples_a = run_experiment(g, runs, cfg=cfg)
    samples_b = run_experiment(g, runs, cfg=cfg)
    assert samples_a == samples_b
    assert [s.method for s in samples_a] == list(runs)
    assert len(samples_a[2].q_values) == 3
    for s in samples_a:
        assert all(-1.0 <= q <= 1.0 for q in s.q_values)
        assert len(s.seeds) == len(s.q_values)


def test_run_experiment_samples_follow_cfg_seed():
    """Run r of the m-th method is seeded with mix(cfg.seed, m, r), so another
    cfg.seed draws other runs."""
    g, _ = generate_planted(PlantedSpec(120, 4, 0.2, 0.06, seed=3))
    runs = {"leiden": 4, "louvain": 4}
    samples = {seed: run_experiment(g, runs, cfg=QicdConfig(seed=seed)) for seed in (1, 2)}
    for seed, drawn in samples.items():
        assert [s.seeds for s in drawn] == [tuple(mix(seed, mi, ri) for ri in range(4)) for mi in range(2)]
    assert [s.q_values for s in samples[1]] != [s.q_values for s in samples[2]]


@pytest.mark.parametrize("name", ["leiden-haar", "louvain-hu"])
def test_a_qicd_method_runs_cfg_reseeded_with_its_run_seed(name):
    """A QICD method's run at seed s is run_qicd on cfg with its method's
    base and kind and seed s; the rest of cfg, its seed aside, is kept."""
    g, _ = generate_planted(PlantedSpec(120, 4, 0.2, 0.06, seed=3))
    cfg = QicdConfig(iterations=3, stall_limit=3, refine_before_accept=True, seed=99)
    (sample,) = run_experiment(g, {name: 3}, cfg=cfg)
    base, kind = METHODS[name]
    expected = [run_qicd(g, replace(cfg, kind=kind, base=base, seed=s)).q_star for s in sample.seeds]
    assert list(sample.q_values) == expected


def test_run_experiment_validation():
    g, _ = generate_planted(PlantedSpec(40, 2, 0.4, 0.1, seed=2))
    with pytest.raises(ValueError, match="unknown method"):
        run_experiment(g, {"bogus": 2})
    with pytest.raises(ValueError, match="at least 1 run"):
        run_experiment(g, {"leiden": 0})
    for graph in (None, [g]):
        with pytest.raises(ValueError, match="graph must be a Graph, got "):
            run_experiment(graph, {"leiden": 2})


@pytest.mark.parametrize("cpus", [1, 2], ids=["inline", "pool"])
def test_run_experiment_raises_a_runs_own_exception(monkeypatch, cpus):
    """A failed run's exception reaches the caller as the method raised it,
    in this process or in a worker."""
    _pin_cpus(monkeypatch, cpus)
    g = build_graph(4, *edge_columns([]))  # edgeless: every run fails
    with pytest.raises(ValueError) as expected:
        leiden(g, 0)
    with pytest.raises(ValueError) as info:
        run_experiment(g, {"leiden": 2})
    assert str(info.value) == str(expected.value) == "modularity undefined: graph has no edges"


def test_run_seeded_yields_in_task_order(monkeypatch):
    for cpus in (1, 2):
        _pin_cpus(monkeypatch, cpus)
        # A task need not pickle: workers get the tasks by fork.
        assert list(run_seeded([lambda i=i: i * i for i in range(7)])) == [i * i for i in range(7)]


def test_run_seeded_forks_one_worker_per_cpu(monkeypatch):
    parent = os.getpid()
    _pin_cpus(monkeypatch, 1)
    assert list(run_seeded([os.getpid] * 3)) == [parent] * 3
    _pin_cpus(monkeypatch, 2)
    pids = list(run_seeded([os.getpid] * 3))
    assert parent not in pids and len(set(pids)) <= 2
    # A worker runs nested tasks inline, so they do not multiply the workers.
    nested = list(run_seeded([lambda: (os.getpid(), list(run_seeded([os.getpid] * 2)))] * 2))
    for worker, inner in nested:
        assert worker != parent and inner == [worker] * 2


def test_run_seeded_raises_when_a_worker_dies(monkeypatch):
    _pin_cpus(monkeypatch, 2)
    parent = os.getpid()

    def die():
        if os.getpid() != parent:  # never kill the test run itself
            os.kill(os.getpid(), signal.SIGKILL)

    with pytest.raises(BrokenProcessPool):
        list(run_seeded([os.getpid, die, os.getpid]))


def test_run_experiment_lets_a_dead_worker_through(monkeypatch):
    """A killed worker names no run, so run_experiment does not wrap it."""
    _pin_cpus(monkeypatch, 2)
    parent = os.getpid()
    real_method_q = qicd.bench.method_q

    def method_q(name, graph, seed, cfg):
        if name == "louvain" and os.getpid() != parent:  # never kill the test run itself
            os.kill(os.getpid(), signal.SIGKILL)
        return real_method_q(name, graph, seed, cfg)

    monkeypatch.setattr(qicd.bench, "method_q", method_q)
    g = ring_of_cliques(4, 4)
    with pytest.raises(BrokenProcessPool) as info:
        run_experiment(g, {"leiden": 2, "louvain": 2})
    assert "failed" not in str(info.value)


def test_mrg_significance_mechanics():
    g, _ = generate_planted(PlantedSpec(100, 4, 0.35, 0.05, seed=8))
    cfg = QicdConfig(
        kind="haar",
        iterations=2,
        stall_limit=2,
        seed=5,
    )
    with pytest.raises(ValueError, match=">= 5"):
        mrg_significance(g, cfg, null_count=4)
    report = mrg_significance(g, cfg, null_count=5)
    assert len(report.null_gaps) == 5
    assert 0.0 <= report.percentile <= 100.0
    assert report.null_std >= 0.0
    assert math.isfinite(report.observed_mrg)


def test_mrg_significance_is_seeded_by_cfg_alone():
    """The observed gap is run_qicd's on cfg itself; equal configs give equal
    reports, and another cfg.seed rewires and runs other nulls."""
    g, _ = generate_planted(PlantedSpec(100, 4, 0.2, 0.08, seed=8))
    cfg = QicdConfig(kind="haar", iterations=3, stall_limit=3, seed=5)
    report = mrg_significance(g, cfg, null_count=5)
    assert report.observed_mrg == run_qicd(g, cfg).mrg
    assert mrg_significance(g, QicdConfig(kind="haar", iterations=3, stall_limit=3, seed=5), null_count=5) == report
    assert mrg_significance(g, replace(cfg, seed=6), null_count=5).null_gaps != report.null_gaps


def test_mrg_runs_no_null_while_the_observed_graph_has_a_view(monkeypatch):
    """The observed run goes last, so run inline its graph's move-loop view
    is not built, and not live, when any null starts."""
    _pin_cpus(monkeypatch, 1)
    graph = generate_planted(PlantedSpec(200, 5, 0.2, 0.03, seed=11))[0]
    live = []
    null_mrg = qicd.bench._null_mrg

    def recorded_null_mrg(*args):
        live.append(graph in qicd.detect._VIEWS)
        return null_mrg(*args)

    monkeypatch.setattr(qicd.bench, "_null_mrg", recorded_null_mrg)
    report = mrg_significance(graph, QicdConfig(kind="haar", iterations=2, stall_limit=2, seed=3), null_count=5)
    assert live == [False] * 5
    assert graph in qicd.detect._VIEWS  # the observed run did build it, last
    assert len(report.null_gaps) == 5


def test_mrg_percentile_is_the_mid_rank(monkeypatch):
    """The observed gap's percentile among the nulls counts each null below
    it as 1 and each null equal to it as 1/2."""
    gaps = [0.0, 0.01, 0.01, 0.02, 0.03, 0.01]  # the nulls', then the observed gap
    monkeypatch.setattr(qicd.bench, "run_seeded", lambda tasks: iter(gaps[: len(tasks)]))
    report = mrg_significance(ring_of_cliques(3, 4), QicdConfig(), null_count=5)
    assert (report.observed_mrg, report.null_gaps) == (0.01, (0.0, 0.01, 0.01, 0.02, 0.03))
    assert report.percentile == 40.0


def test_mrg_percentile_low_on_er_graph():
    """A null-like input does not stand out against its own rewires. On an
    ER graph the observed gap's rank among the nulls is a uniform draw, so
    one seed's percentile says little; over 12 seeds the mean percentile
    of exchangeable nulls is 50, and it reaches 75 with chance below 0.4%."""
    er = spec_for_ratio(400, 1, 1.0, 12.0, seed=5)
    g, _ = generate_planted(er)
    cfg = QicdConfig(kind="haar", iterations=4, stall_limit=4, refine_before_accept=True)
    percentiles = [mrg_significance(g, replace(cfg, seed=seed), null_count=8).percentile for seed in range(12)]
    assert sum(percentiles) / len(percentiles) < 75.0, percentiles
