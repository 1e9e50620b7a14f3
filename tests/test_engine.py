import random

import pytest

from qicd import (
    DetectorConfig,
    HyperuniformParams,
    PlantedSpec,
    QicdConfig,
    build_graph,
    generate_planted,
    louvain,
    mix,
    modularity,
    ring_of_cliques,
    run_qicd,
)
import qicd.engine
from qicd.engine import result_to_json, trace_to_csv

from conftest import make_random_graph

ALL_KINDS = ("pt", "haar", "hu", "pt-hu", "haar-hu")


def _cfg(seed=0, **kw):
    kw.setdefault("kind", "haar")
    kw.setdefault("detector", DetectorConfig(seed=mix(seed, 9)))
    return QicdConfig(seed=seed, **kw)


def test_config_validation():
    with pytest.raises(ValueError, match="unknown perturbation kind 'bogus'"):
        QicdConfig(kind="bogus")
    with pytest.raises(ValueError, match="proposal_seeds must be >= 1"):
        QicdConfig(proposal_seeds=0)
    with pytest.raises(ValueError):
        QicdConfig(iterations=-1)
    with pytest.raises(ValueError):
        QicdConfig(stall_limit=0)
    with pytest.raises(ValueError):
        QicdConfig(init_mode="bogus")
    with pytest.raises(ValueError):
        QicdConfig(base="bogus")
    QicdConfig(iterations=0)  # proposals disabled is legal


def test_two_triangles_reaches_optimum(two_triangles):
    for kind in ALL_KINDS:
        result = run_qicd(two_triangles, _cfg(seed=3, kind=kind))
        assert result.q_star == 0.5
        assert result.q_baseline == 0.5
        assert result.mrg == 0.0


def test_clique_ring_control():
    g = ring_of_cliques(10, 5)
    result = run_qicd(g, _cfg(seed=5))
    assert abs(result.q_star - (10.0 / 11.0 - 0.1)) < 1e-9
    assert result.mrg <= 0.005


def test_edgeless_graph_rejected():
    g = build_graph(3, [])
    with pytest.raises(ValueError, match="no edges"):
        run_qicd(g, _cfg())


def test_zero_iterations_returns_initial():
    g = ring_of_cliques(3, 4)
    result = run_qicd(g, _cfg(seed=1, iterations=0))
    assert result.trace == []
    assert result.q_star == result.q_baseline
    assert result.mrg == 0.0


def test_acceptance_is_strict_and_recorded():
    rnd = random.Random(50)
    for _ in range(25):
        g = make_random_graph(rnd, n_max=24)
        if g.total_weight == 0:
            continue
        kind = rnd.choice(ALL_KINDS)
        cfg = _cfg(seed=rnd.randrange(2**32), kind=kind, iterations=6, stall_limit=6)
        result = run_qicd(g, cfg)
        for record in result.trace:
            assert record.accepted == (record.q_quant > record.q_ref)
            assert record.communities >= 1
            assert record.millis >= 0.0


def test_best_trace_monotone_and_covers_initial():
    rnd = random.Random(60)
    for _ in range(25):
        g = make_random_graph(rnd, n_max=20)
        if g.total_weight == 0:
            continue
        cfg = _cfg(seed=rnd.randrange(2**32), iterations=8, stall_limit=8)
        result = run_qicd(g, cfg)
        running = result.q_baseline  # quick init starts at the baseline partition
        best_seen = running
        for record in result.trace:
            step = record.q_quant if record.accepted else record.q_ref
            best_seen = max(best_seen, step)
        assert abs(result.q_star - best_seen) < 1e-12
        assert result.q_star >= result.trace[0].q_ref - 1e-12


def test_quick_init_never_below_baseline():
    rnd = random.Random(70)
    for _ in range(20):
        g = make_random_graph(rnd, n_max=20)
        if g.total_weight == 0:
            continue
        result = run_qicd(g, _cfg(seed=rnd.randrange(2**32)))
        assert result.mrg >= -1e-12


def test_singleton_init_mode():
    g = ring_of_cliques(4, 4)
    result = run_qicd(g, _cfg(seed=2, init_mode="singleton", iterations=4, stall_limit=4))
    assert result.q_star >= result.trace[0].q_ref - 1e-12


def test_louvain_base():
    g = ring_of_cliques(5, 4)
    result = run_qicd(g, _cfg(seed=4, base="louvain"))
    baseline = louvain(g, DetectorConfig(seed=mix(4, 9)))
    assert result.q_baseline == pytest.approx(modularity(g, baseline))


def _trace_key(result):
    return [(r.t, r.q_ref, r.q_quant, r.accepted, r.communities) for r in result.trace]


def test_determinism():
    g = ring_of_cliques(4, 5)
    cfg = _cfg(seed=8, iterations=5, stall_limit=5)
    a = run_qicd(g, cfg)
    b = run_qicd(g, cfg)
    assert _trace_key(a) == _trace_key(b)
    assert a.best_partition.labels == b.best_partition.labels
    assert a.q_star == b.q_star


def test_stall_limit_stops_early():
    g = ring_of_cliques(6, 4)
    result = run_qicd(g, _cfg(seed=3, iterations=50, stall_limit=3))
    assert len(result.trace) <= 50
    # baseline is optimal here, so nothing improves and the loop stalls out
    assert len(result.trace) == 3


def test_hu_zero_fraction_matches_refined_trace():
    g = ring_of_cliques(4, 4)
    cfg = _cfg(
        seed=6,
        kind="hu",
        hu=HyperuniformParams(2.0, 0.0),
        iterations=6,
        stall_limit=6,
    )
    result = run_qicd(g, cfg)
    # empty perturbations: Q* equals the best refined value in its own trace
    assert result.q_star == max(r.q_ref for r in result.trace)
    assert all(not r.accepted for r in result.trace)


def test_proposal_seed_count_resolution():
    g = ring_of_cliques(4, 4)  # n = 16 -> default K = 4
    result = run_qicd(g, _cfg(seed=1, iterations=1, stall_limit=1))
    assert result.proposal_seed_count == 4
    result = run_qicd(g, _cfg(seed=1, kind="pt", proposal_seeds=7, iterations=1, stall_limit=1))
    assert result.proposal_seed_count == 7
    result = run_qicd(g, _cfg(seed=1, kind="hu", iterations=1, stall_limit=1))
    assert result.proposal_seed_count is None


@pytest.mark.parametrize(
    "kind, expected",
    [
        ("pt", ["sample_pt_weights", "propose_partition"]),
        ("haar", ["sample_haar_weights", "propose_partition"]),
        ("hu", ["hu_noise"]),
        ("pt-hu", ["sample_pt_weights", "propose_partition", "hyperuniform_adjust"]),
        ("haar-hu", ["sample_haar_weights", "propose_partition", "hyperuniform_adjust"]),
    ],
)
def test_each_kind_calls_its_samplers(monkeypatch, kind, expected):
    """One iteration of each kind calls exactly its sampling steps, in
    order, through the engine's own names."""
    calls = []

    def spy(name, real):
        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return call

    for name in ("sample_pt_weights", "sample_haar_weights", "propose_partition", "hyperuniform_adjust", "hu_noise"):
        monkeypatch.setattr(qicd.engine, name, spy(name, getattr(qicd.engine, name)))
    run_qicd(ring_of_cliques(4, 4), _cfg(seed=1, kind=kind, iterations=1, stall_limit=1))
    assert calls == expected


@pytest.mark.parametrize("polished", [True, False], ids=["polished", "raw"])
def test_incumbent_is_refined_at_start_and_after_each_acceptance(monkeypatch, polished):
    """The incumbent is refined at t = 1 and after each accepted proposal,
    and nowhere else: Q_ref is the Q of the latest refinement."""
    refined = []
    real = qicd.engine.leiden_refine

    def spy(graph, partition):
        out = real(graph, partition)
        refined.append(modularity(graph, out))
        return out

    monkeypatch.setattr(qicd.engine, "leiden_refine", spy)
    g, _ = generate_planted(PlantedSpec(120, 6, 0.12, 0.05, seed=4))
    cfg = _cfg(seed=4, refine_before_accept=polished, iterations=8, stall_limit=8)
    trace = run_qicd(g, cfg).trace
    accepted = sum(r.accepted for r in trace[:-1])
    assert accepted >= 1 if polished else accepted == 0
    assert len(refined) == 1 + accepted
    latest = iter(refined)
    for i, record in enumerate(trace):
        if i == 0 or trace[i - 1].accepted:
            q_ref = next(latest)
        assert record.q_ref == q_ref


def test_refine_before_accept_runs():
    g = ring_of_cliques(5, 4)
    result = run_qicd(g, _cfg(seed=9, refine_before_accept=True, iterations=4, stall_limit=4))
    assert result.q_star >= result.q_baseline


def test_trace_csv_shape():
    g = ring_of_cliques(4, 4)
    result = run_qicd(g, _cfg(seed=2, iterations=3, stall_limit=3))
    text = trace_to_csv(result.trace)
    lines = text.strip().split("\n")
    assert lines[0] == "t,Q_ref,Q_quant,accepted,communities,millis"
    assert len(lines) == len(result.trace) + 1
    first = lines[1].split(",")
    assert first[0] == "1"
    assert first[3] in ("0", "1")


def test_result_json_envelope():
    g = ring_of_cliques(4, 4)
    cfg = _cfg(seed=2, iterations=3, stall_limit=3)
    result = run_qicd(g, cfg)
    payload = result_to_json(result, cfg)
    assert payload["Q_baseline"] == result.q_baseline
    assert payload["Q_star"] == result.q_star
    assert payload["mrg"] == result.mrg
    assert payload["config"]["kind"] == "haar"
    assert payload["config"]["detector"]["seed"] == cfg.detector.seed
    assert payload["iterations_run"] == len(result.trace)
