import math
import os
import signal
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import qicd.bench

from qicd import (
    DetectorConfig,
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
)
from qicd.bench import METHODS, clique_ring_truth, planted_sizes, run_seeded, spec_for_ratio


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


def test_planted_reproducible():
    a, _ = generate_planted(PlantedSpec(300, 5, 0.1, 0.02, seed=9))
    b, _ = generate_planted(PlantedSpec(300, 5, 0.1, 0.02, seed=9))
    for name in ("indptr", "indices", "weights"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_planted_expected_empty_rejected():
    with pytest.raises(ValueError, match="below 1"):
        generate_planted(PlantedSpec(10, 2, 0.0, 0.0, seed=1))


def test_planted_is_unweighted():
    g, _ = generate_planted(PlantedSpec(100, 4, 0.2, 0.05, seed=2))
    assert (g.edge_arrays()[2] == 1.0).all()


def test_calibrate_limits():
    # near the mixing limit the best ratio is ~1; near separation it is small
    spec, achieved = calibrate_planted(300, 2, 0.30, 0.06, avg_degree=8.0, seed=4, runs=2)
    assert spec.p_out / spec.p_in > 0.6
    assert abs(achieved - 0.30) <= 0.06
    spec, achieved = calibrate_planted(300, 2, 0.46, 0.03, avg_degree=8.0, seed=4, runs=2)
    assert spec.p_out / spec.p_in < 0.25
    assert abs(achieved - 0.46) <= 0.03


def test_calibrate_validation_and_bracket_failure():
    with pytest.raises(ValueError):
        calibrate_planted(100, 4, 0.95, 0.01)
    # a target below anything reachable at this scale cannot be bracketed
    with pytest.raises(ValueError, match="bracket|steps"):
        calibrate_planted(200, 4, 0.01, 0.001, avg_degree=8.0, seed=1, runs=2)


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


def test_ring_of_cliques_validation():
    with pytest.raises(ValueError):
        ring_of_cliques(2, 5)
    with pytest.raises(ValueError):
        ring_of_cliques(5, 2)


def test_rewire_preserves_degree_multiset():
    for seed in range(5):
        g, _ = generate_planted(PlantedSpec(120, 4, 0.3, 0.05, seed=seed))
        rewired = degree_preserving_rewire(g, 10.0, seed=seed)
        assert sorted(np.diff(rewired.indptr)) == sorted(np.diff(g.indptr))
        assert rewired.node_count == g.node_count
        assert rewired.edge_count == g.edge_count


def test_rewire_star_is_fixed_point():
    star = build_graph(6, [(0, i, 1.0) for i in range(1, 6)])
    rewired = degree_preserving_rewire(star, 20.0, seed=3)
    for name in ("indptr", "indices", "weights"):
        assert np.array_equal(getattr(rewired, name), getattr(star, name))


def test_rewire_validation():
    g = build_graph(2, [(0, 1, 1.0)])
    with pytest.raises(ValueError):
        degree_preserving_rewire(g, 10.0, seed=1)
    g2 = build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    with pytest.raises(ValueError):
        degree_preserving_rewire(g2, 0.0, seed=1)


def test_rewire_destroys_clique_ring_structure():
    g = ring_of_cliques(10, 5)
    for i in range(5):
        null = degree_preserving_rewire(g, 10.0, seed=mix(77, i))
        q = modularity(null, leiden(null, DetectorConfig(seed=i)))
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
    cfg = QicdConfig(iterations=2, stall_limit=2)
    samples_a = run_experiment(g, runs, 42, cfg=cfg)
    samples_b = run_experiment(g, runs, 42, cfg=cfg)
    assert samples_a == samples_b
    assert [s.method for s in samples_a] == list(runs)
    assert len(samples_a[2].q_values) == 3
    for s in samples_a:
        assert all(-1.0 <= q <= 1.0 for q in s.q_values)
        assert len(s.seeds) == len(s.q_values)


def test_run_experiment_validation():
    g, _ = generate_planted(PlantedSpec(40, 2, 0.4, 0.1, seed=2))
    with pytest.raises(ValueError, match="unknown method"):
        run_experiment(g, {"bogus": 2}, 1)
    with pytest.raises(ValueError, match="at least 1 run"):
        run_experiment(g, {"leiden": 0}, 1)
    for source in (None, [g]):
        with pytest.raises(ValueError, match="source must be a Graph or a function"):
            run_experiment(source, {"leiden": 2}, 1)


def test_run_experiment_failure_identifies_run():
    g = build_graph(4, [])  # edgeless: every run fails
    with pytest.raises(RuntimeError, match="method 'leiden' run 0"):
        run_experiment(g, {"leiden": 2}, 1)


def test_run_experiment_failure_in_a_worker_keeps_its_cause(monkeypatch):
    _pin_cpus(monkeypatch, 2)
    g = build_graph(4, [])
    with pytest.raises(RuntimeError, match="method 'louvain' run 0 failed: modularity undefined") as info:
        run_experiment(g, {"louvain": 2}, 1)
    assert type(info.value.__cause__) is ValueError


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

    def method_q(name, graph, seed, cfg=None):
        if name == "louvain" and os.getpid() != parent:  # never kill the test run itself
            os.kill(os.getpid(), signal.SIGKILL)
        return real_method_q(name, graph, seed, cfg)

    monkeypatch.setattr(qicd.bench, "method_q", method_q)
    g = ring_of_cliques(4, 4)
    with pytest.raises(BrokenProcessPool) as info:
        run_experiment(g, {"leiden": 2, "louvain": 2}, 1)
    assert "failed" not in str(info.value)


def test_run_experiment_graph_factory():
    cfg = QicdConfig(iterations=1, stall_limit=1)
    factory = lambda seed: generate_planted(PlantedSpec(50, 2, 0.5, 0.05, seed=seed))[0]
    samples = run_experiment(factory, {"leiden": 2}, 3, cfg=cfg)
    assert len(samples[0].q_values) == 2


def test_run_experiment_reads_a_graph_as_a_constant_source():
    """A graph source is the same as a function that returns it for every
    seed."""
    g, _ = generate_planted(PlantedSpec(60, 3, 0.4, 0.05, seed=7))
    runs = {"leiden": 2, "louvain-hu": 2}
    cfg = QicdConfig(iterations=2, stall_limit=2)
    assert run_experiment(g, runs, 5, cfg=cfg) == run_experiment(lambda _seed: g, runs, 5, cfg=cfg)


def test_mrg_significance_mechanics():
    g, _ = generate_planted(PlantedSpec(100, 4, 0.35, 0.05, seed=8))
    cfg = QicdConfig(
        kind="haar",
        iterations=2,
        stall_limit=2,
        detector=DetectorConfig(seed=5),
        seed=11,
    )
    with pytest.raises(ValueError, match=">= 5"):
        mrg_significance(g, cfg, null_count=4, seed=1)
    report = mrg_significance(g, cfg, null_count=5, seed=1)
    assert len(report.null_gaps) == 5
    assert 0.0 <= report.percentile <= 100.0
    assert report.null_std >= 0.0
    assert math.isfinite(report.observed)


def test_mrg_percentile_low_on_er_graph():
    # a null-like input should not stand out against its own rewires
    er = spec_for_ratio(400, 1, 1.0, 12.0, seed=5)
    g, _ = generate_planted(er)
    cfg = QicdConfig(
        kind="haar",
        iterations=4,
        stall_limit=4,
        detector=DetectorConfig(seed=11),
        refine_before_accept=True,
        seed=13,
    )
    report = mrg_significance(g, cfg, null_count=8, seed=21)
    assert report.percentile < 95.0
