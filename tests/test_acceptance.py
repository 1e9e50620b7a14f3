"""Acceptance gate: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines
inline. Criteria with wall-clock budgets assert them.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager

import numpy as np

from qicd import (
    DetectorConfig,
    NEW_COMMUNITY,
    Partition,
    PerturbationKind,
    QicdConfig,
    build_graph,
    delta_q_move,
    leiden,
    louvain,
    make_rng,
    mix,
    modularity,
    ring_of_cliques,
    run_qicd,
    sample_haar_weights,
    sample_pt_weights,
    summarize_moments,
    welch_from_moments,
    welch_t_test,
)
from qicd.bench import generate_planted, spec_for_ratio
from qicd.cli import main as cli_main

from conftest import (
    TWO_TRIANGLES_EDGES,
    communities_connected,
    iter_set_partitions,
    make_random_graph,
    modularity_double_sum,
)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL: {name}")
        raise
    print(f"ACCEPTANCE PASS: {name}")


# --------------------------------------------------------------------------
# 1. Modularity oracle equivalence


def test_modularity_oracle_equivalence():
    with criterion("modularity oracle equivalence (200 graphs, all partitions, 1e-12)"):
        started = time.perf_counter()
        rnd = random.Random(2024)
        graphs = 0
        while graphs < 200:
            g = make_random_graph(rnd, n_max=8, weighted=True)
            if g.total_weight == 0:
                continue
            graphs += 1
            n = g.node_count
            for labels in iter_set_partitions(n):
                p = Partition(g, labels)
                assert abs(modularity(g, p) - modularity_double_sum(g, labels)) < 1e-12
            for _ in range(30):
                labels = [rnd.randrange(max(1, n - 1)) for _ in range(n)]
                p = Partition(g, labels)
                node = rnd.randrange(n)
                target = rnd.choice([NEW_COMMUNITY] + list(range(p.community_count)))
                d = delta_q_move(g, p, node, target)
                moved = p.copy()
                moved.apply_move(g, node, target)
                moved.compact()
                assert abs(d - (modularity(g, moved) - modularity(g, p))) < 1e-12
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"


# --------------------------------------------------------------------------
# 2. Null identities


def test_null_identities():
    with criterion("null identities (single community Q=0; two triangles Q=0.5)"):
        rnd = random.Random(99)
        for _ in range(100):
            g = make_random_graph(rnd, n_max=10)
            if g.total_weight == 0:
                continue
            q = modularity(g, Partition(g, [0] * g.node_count))
            assert abs(q) <= 1e-12
        tri = build_graph(6, TWO_TRIANGLES_EDGES)
        assert modularity(tri, Partition(tri, [0, 0, 0, 1, 1, 1])) == 0.5


# --------------------------------------------------------------------------
# 3. Baseline sanity


def test_baseline_sanity():
    with criterion("baseline sanity (clique ring recovery; leiden connectivity)"):
        g = ring_of_cliques(10, 5)
        expected = 10.0 / 11.0 - 0.1
        for detector in (louvain, leiden):
            p = detector(g, DetectorConfig(seed=17))
            assert p.community_count == 10
            assert abs(modularity(g, p) - expected) < 1e-9
            for clique in range(10):
                members = {p.labels[u] for u in range(clique * 5, clique * 5 + 5)}
                assert len(members) == 1
        rnd = random.Random(4)
        checked = 0
        while checked < 100:
            graph = make_random_graph(rnd, n_max=30)
            if graph.total_weight == 0:
                continue
            part = leiden(graph, DetectorConfig(seed=rnd.randrange(2**32)))
            assert communities_connected(graph, part.labels)
            checked += 1


# --------------------------------------------------------------------------
# 4. Statistics reproduction from published table values


PUBLISHED_ROWS = [
    # label, runs, mean, std, ci_low, ci_high, p (None for the baseline row)
    ("ldn-haar", 6, 0.1816, 0.0171, 0.1636, 0.1996, 0.0026),
    ("ldn-haar-hu", 6, 0.1745, 0.0165, 0.1572, 0.1918, 0.0052),
    ("ldn-hu", 6, 0.1718, 0.0195, 0.1514, 0.1923, 0.0147),
    ("ldn-pt", 6, 0.1698, 0.0126, 0.1566, 0.1830, 0.0032),
    ("ldn-pt-hu", 6, 0.1605, 0.0114, 0.1486, 0.1724, 0.0120),
    ("leiden-base", 6, 0.1428, 0.0011, 0.1416, 0.1439, None),
    ("lvn-pt", 6, 0.1435, 0.0089, 0.1341, 0.1529, 0.8564),
    ("louvain-base", 12, 0.1421, 0.0016, 0.1411, 0.1432, 0.3403),
    ("lvn-haar", 6, 0.1331, 0.0180, 0.1142, 0.1520, 0.2440),
    ("lvn-haar-hu", 6, 0.1287, 0.0152, 0.1128, 0.1446, 0.0723),
    ("lvn-pt-hu", 6, 0.1275, 0.0099, 0.1171, 0.1379, 0.0126),
    ("lvn-hu", 6, 0.1265, 0.0098, 0.1162, 0.1369, 0.0096),
]
BASELINE = (0.1428, 0.0011, 6)

# Every mean and std in PUBLISHED_ROWS and BASELINE is printed to four
# decimals, so its true value lies within half a unit of the fourth decimal
# of the printed one.
ROUNDING_HALF_UNIT = 5e-5


def welch_p_range(mean, std, n, base_mean, base_std, base_n):
    """Smallest and largest Welch p over the rounding box of the four moments.

    The counts are exact. p is evaluated at the 16 corners of the box; no
    row's mean difference crosses zero inside its box, and a 5-point grid on
    each coordinate gives the same extremes for every row.
    """
    h = ROUNDING_HALF_UNIT
    ps = [
        welch_from_moments(mean + da, std + ds, n, base_mean + db, base_std + dt, base_n).p
        for da, ds, db, dt in itertools.product((-h, h), repeat=4)
    ]
    return min(ps), max(ps)


def test_statistics_reproduction():
    # The table's moments are rounded to four decimals, so a p-value is only
    # determined up to the interval its rounding box allows; each published p
    # must lie in that interval, widened by the tolerance that covers the
    # rounding of the published p itself. Most intervals are narrow (ldn-haar
    # [0.0025, 0.0026]). The louvain-base row is not: its stds are 0.0016 and
    # 0.0011 while its mean difference is 0.0007 +- 0.0001, so p spans
    # [0.2173, 0.3849], which holds both the published 0.3403 and the 0.2955
    # of the printed values. The CIs are checked at the printed values.
    with criterion("statistics reproduction (12 CIs, 11 Welch p-values)"):
        started = time.perf_counter()
        failures = []
        for label, n, mean, std, lo, hi, p_expected in PUBLISHED_ROWS:
            s = summarize_moments(mean, std, n)
            if abs(s.ci_low - lo) > 5e-4 or abs(s.ci_high - hi) > 5e-4:
                failures.append(f"{label}: CI ({s.ci_low:.5f}, {s.ci_high:.5f}) vs ({lo}, {hi})")
            if p_expected is None:
                continue
            p_min, p_max = welch_p_range(mean, std, n, *BASELINE)
            tol = 5e-4 if p_expected < 0.05 else 1e-3
            if not p_min - tol <= p_expected <= p_max + tol:
                failures.append(
                    f"{label}: p in [{p_min:.4f}, {p_max:.4f}] vs published {p_expected} (tol {tol})"
                )
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"statistics run took {elapsed:.2f}s"
        assert not failures, "; ".join(failures)


# --------------------------------------------------------------------------
# 5. Directional uplift at desk scale


def test_directional_uplift(weak_planted_graph):
    with criterion("directional uplift (leiden-haar vs leiden, p < 0.05, MRG > 0.005)"):
        started = time.perf_counter()
        graph, _truth, achieved = weak_planted_graph
        assert 0.12 <= achieved <= 0.16, f"calibration landed at {achieved}"
        base_qs, star_qs, gaps = [], [], []
        for i in range(6):
            seed = mix(777, i)
            det = DetectorConfig(seed=seed)
            base_qs.append(modularity(graph, leiden(graph, det)))
            cfg = QicdConfig(
                kind=PerturbationKind("haar"),
                iterations=10,
                stall_limit=10,
                detector=det,
                refine_before_accept=True,
                seed=mix(seed, 1),
            )
            result = run_qicd(graph, cfg)
            star_qs.append(result.q_star)
            gaps.append(result.mrg)
        mean_star = sum(star_qs) / len(star_qs)
        mean_base = sum(base_qs) / len(base_qs)
        welch = welch_t_test(star_qs, base_qs)
        mean_gap = sum(gaps) / len(gaps)
        assert mean_star > mean_base, (mean_star, mean_base)
        assert welch.p < 0.05, f"p={welch.p}"
        assert mean_gap > 0.005, f"mean MRG={mean_gap}"
        elapsed = time.perf_counter() - started
        assert elapsed < 600.0, f"uplift protocol took {elapsed:.0f}s"


# --------------------------------------------------------------------------
# 6. High-Q no-inflation control


def test_high_q_no_inflation(strong_planted_graph):
    with criterion("high-Q no-inflation (every variant MRG <= 0.005 over 6 seeds)"):
        control, achieved = strong_planted_graph
        assert achieved >= 0.6
        graphs = [ring_of_cliques(10, 5), control]
        for graph in graphs:
            for kind in ("pt", "haar", "hu", "pt-hu", "haar-hu"):
                gaps = []
                for i in range(6):
                    seed = mix(555, i)
                    cfg = QicdConfig(
                        kind=PerturbationKind(kind),
                        iterations=10,
                        stall_limit=10,
                        detector=DetectorConfig(seed=seed),
                        refine_before_accept=True,
                        seed=mix(seed, 1),
                    )
                    gaps.append(run_qicd(graph, cfg).mrg)
                assert sum(gaps) / len(gaps) <= 0.005, (kind, gaps)


# --------------------------------------------------------------------------
# 7. Monotone best trace


def test_monotone_best_trace():
    with criterion("monotone best trace (50 randomized configs)"):
        rnd = random.Random(31337)
        kinds = ("pt", "haar", "hu", "pt-hu", "haar-hu")
        done = 0
        while done < 50:
            g = make_random_graph(rnd, n_max=28)
            if g.total_weight == 0:
                continue
            cfg = QicdConfig(
                kind=PerturbationKind(rnd.choice(kinds)),
                iterations=rnd.randint(1, 8),
                stall_limit=rnd.randint(1, 8),
                detector=DetectorConfig(seed=rnd.randrange(2**32)),
                init_mode=rnd.choice(("singleton", "quick-leiden")),
                refine_before_accept=rnd.random() < 0.5,
                seed=rnd.randrange(2**32),
            )
            result = run_qicd(g, cfg)
            q_init = result.q_baseline if cfg.init_mode == "quick-leiden" else None
            running = -math.inf
            best_values = []
            for record in result.trace:
                step = record.q_quant if record.accepted else record.q_ref
                running = max(running, step)
                best_values.append(running)
            assert best_values == sorted(best_values)
            if result.trace:
                assert result.q_star >= result.trace[0].q_ref - 1e-12
            if q_init is not None:
                assert result.q_star >= q_init - 1e-12
            done += 1


# --------------------------------------------------------------------------
# 8. Sampler distribution checks


def test_sampler_distributions():
    with criterion("sampler distributions (KS vs Exp(1); Haar sums and marginals)"):
        n = 10**5
        w = np.sort(sample_pt_weights(n, make_rng(123)).weights)
        cdf = 1.0 - np.exp(-w)
        grid = np.arange(1, n + 1) / n
        ks = max(float(np.max(grid - cdf)), float(np.max(cdf - (grid - 1.0 / n))))
        assert ks < 0.006, f"KS statistic {ks}"
        for size in (1, 10, 10**4):
            total = float(sample_haar_weights(size, make_rng(size)).weights.sum())
            assert abs(total - 1.0) <= 1e-12
        rng = make_rng(321)
        draws = np.stack([sample_haar_weights(4, rng).weights for _ in range(10**5)])
        means = draws.mean(axis=0)
        assert np.all(means >= 0.245) and np.all(means <= 0.255), means


# --------------------------------------------------------------------------
# 9. Scaling


def test_scaling_subquadratic():
    with criterion("scaling (time ratio 20k/10k nodes <= 3.0 at T=10)"):
        started = time.perf_counter()
        times = {}
        for n in (10000, 20000):
            spec = spec_for_ratio(n, 1, 1.0, 20.0, seed=mix(42, n))
            graph, _ = generate_planted(spec)
            cfg = QicdConfig(
                kind=PerturbationKind("haar"),
                iterations=10,
                detector=DetectorConfig(seed=3),
                seed=7,
            )
            # minimum of two runs per size filters scheduler noise out of
            # the wall-clock samples; both sizes get identical treatment
            samples = []
            for _rep in range(2):
                t0 = time.perf_counter()
                run_qicd(graph, cfg)
                samples.append(time.perf_counter() - t0)
            times[n] = min(samples)
        ratio = times[20000] / times[10000]
        assert ratio <= 3.0, f"scaling ratio {ratio:.2f} (times {times})"
        elapsed = time.perf_counter() - started
        assert elapsed < 300.0, f"scaling check took {elapsed:.0f}s"


# --------------------------------------------------------------------------
# 10. Determinism: every command reruns byte-identically from its manifest


def _snapshot(paths):
    return {p.name: p.read_bytes() for p in paths if p.exists()}


def _strip_millis(data: bytes) -> bytes:
    rows = data.decode().splitlines()
    return "\n".join(",".join(r.split(",")[:5]) for r in rows).encode()


def test_determinism_manifest_rerun(tmp_path, monkeypatch, capsys):
    with criterion("determinism (manifest reruns reproduce output files)"):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("QICD_SEED", raising=False)

        commands = [
            ["generate", "planted", "--n", "120", "--k", "4", "--p-in", "0.3",
             "--p-out", "0.04", "--seed", "7", "--out", "g.el"],
            ["generate", "clique-ring", "--cliques", "6", "--size", "4", "--out", "ring.el"],
            ["generate", "rewire", "--input", "g.el", "--swap-factor", "4", "--seed", "3", "--out", "null.el"],
            ["generate", "calibrated", "--n", "150", "--k", "3", "--target-q", "0.5",
             "--tolerance", "0.08", "--avg-degree", "10", "--calibration-runs", "2",
             "--seed", "5", "--out", "cal.el"],
            ["detect", "--graph", "g.el", "--method", "leiden", "--seed", "3", "--out", "part.csv"],
            ["qicd", "--graph", "g.el", "--kind", "haar-hu", "--iterations", "3",
             "--seed", "11", "--out", "run"],
            ["benchmark", "--graph", "g.el", "--methods", "leiden,leiden-haar",
             "--runs", "2", "--iterations", "2", "--seed", "13", "--out", "bench"],
            ["mrg", "--graph", "g.el", "--nulls", "5", "--iterations", "2",
             "--seed", "17", "--out", "sig"],
        ]
        manifests = {
            "g": ("generate", ["g.el", "g.truth.csv"]),
            "ring": ("generate", ["ring.el", "ring.truth.csv"]),
            "null": ("generate", ["null.el"]),
            "cal": ("generate", ["cal.el", "cal.truth.csv"]),
            "part": ("detect", ["part.csv"]),
            "run": ("qicd", ["run.partition.csv", "run.json"]),
            "bench": ("benchmark", ["bench.runs.csv", "bench.summary.json", "bench.table.txt"]),
            "sig": ("mrg", ["sig.mrg.json"]),
        }
        for argv in commands:
            assert cli_main(argv) == 0, argv

        before = {}
        for stem, (_cmd, outputs) in manifests.items():
            before[stem] = _snapshot([tmp_path / name for name in outputs])
            before[stem]["__trace__"] = (
                _strip_millis((tmp_path / "run.trace.csv").read_bytes()) if stem == "run" else b""
            )

        for stem, (_cmd, outputs) in manifests.items():
            assert cli_main(["--from-manifest", f"{stem}.manifest.json"]) == 0
            after = _snapshot([tmp_path / name for name in outputs])
            assert after == {k: v for k, v in before[stem].items() if k != "__trace__"}, stem
            if stem == "run":
                # trace timing column is wall clock; every other column must match
                assert _strip_millis((tmp_path / "run.trace.csv").read_bytes()) == before[stem]["__trace__"]
