import argparse
import csv
import functools
import json
import os
import signal
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

import qicd
from qicd import PlantedSpec
from qicd.cli import UsageError, _parse_generate_spec, build_parser, main
from qicd.rng import mix


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("QICD_SEED", raising=False)
    return tmp_path


def _make_graph(workdir, name="g.el", n=120, k=4, p_in=0.3, p_out=0.03, seed=7):
    code = main(
        [
            "generate", "planted",
            "--n", str(n), "--k", str(k),
            "--p-in", str(p_in), "--p-out", str(p_out),
            "--seed", str(seed), "--out", name,
        ]
    )
    assert code == 0
    return workdir / name


def test_generate_planted_outputs(workdir, capsys):
    _make_graph(workdir)
    assert (workdir / "g.el").exists()
    assert (workdir / "g.truth.csv").exists()
    manifest = json.loads((workdir / "g.manifest.json").read_text())
    assert manifest["command"] == "generate-planted"
    assert manifest["config"]["n"] == 120
    assert manifest["rng"] == "pcg64"
    truth = (workdir / "g.truth.csv").read_text().splitlines()
    assert truth[0] == "node_id,community_id"
    assert len(truth) == 121


def test_generate_clique_ring(workdir):
    assert main(["generate", "clique-ring", "--cliques", "10", "--size", "5", "--out", "ring.el"]) == 0
    text = (workdir / "ring.el").read_text()
    assert text.startswith("# nodes: 50")
    assert sum(1 for line in text.splitlines() if not line.startswith("#")) == 110


def test_generate_rewire(workdir):
    _make_graph(workdir)
    assert main(["generate", "rewire", "--input", "g.el", "--swap-factor", "5", "--seed", "3", "--out", "null.el"]) == 0
    assert (workdir / "null.el").exists()
    assert not (workdir / "null.truth.csv").exists()
    manifest = json.loads((workdir / "null.manifest.json").read_text())
    assert manifest["inputs"] == {"graph": "g.el"}


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "rewire", "--input", "g.el", "--swap-factor", "nan", "--out", "null.el"],
        ["generate", "rewire", "--input", "g.el", "--swap-factor", "inf", "--out", "null.el"],
        ["mrg", "--graph", "g.el", "--nulls", "5", "--swap-factor", "nan", "--out", "sig"],
    ],
)
def test_swap_factor_must_be_finite(workdir, capsys, monkeypatch, argv):
    _make_graph(workdir)
    before = sorted(workdir.iterdir())

    def observed_run(*_args, **_kwargs):
        raise AssertionError("swap_factor must be checked before the observed run")

    monkeypatch.setattr("qicd.bench.run_qicd", observed_run)
    capsys.readouterr()
    assert main(argv) == 2
    assert "swap_factor must be finite and > 0" in capsys.readouterr().err
    assert sorted(workdir.iterdir()) == before


@pytest.mark.parametrize(
    "argv, field",
    [
        (["detect", "--method", "leiden", "--resolution", "nan"], "resolution"),
        (["detect", "--method", "louvain", "--resolution", "inf"], "resolution"),
        (["detect", "--method", "leiden", "--min-gain", "nan"], "min_gain"),
        (["qicd", "--alpha", "nan"], "skew_factor"),
    ],
    ids=["resolution-nan", "resolution-inf", "min-gain-nan", "alpha-nan"],
)
def test_non_finite_settings_are_data_errors(workdir, capsys, argv, field):
    _make_graph(workdir)
    before = sorted(workdir.iterdir())
    capsys.readouterr()
    assert main([*argv, "--graph", "g.el", "--out", "x"]) == 2
    captured = capsys.readouterr()
    assert f"{field} must be finite" in captured.err
    assert captured.out == ""
    assert sorted(workdir.iterdir()) == before


def test_generate_calibrated_small(workdir, capsys):
    code = main(
        [
            "generate", "calibrated",
            "--n", "150", "--k", "3", "--target-q", "0.5", "--tolerance", "0.08",
            "--avg-degree", "10", "--calibration-runs", "2",
            "--seed", "5", "--out", "cal.el",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "achieved Q=" in out
    manifest = json.loads((workdir / "cal.manifest.json").read_text())
    assert "p_in" in manifest["config"]


_CALIBRATED = ["generate", "calibrated", "--n", "60", "--k", "3", "--target-q", "0.3", "--out", "cal.el"]


@pytest.mark.parametrize(
    "argv, message",
    [
        ([*_CALIBRATED, "--tolerance", "nan"], "tolerance must be finite and > 0"),
        ([*_CALIBRATED, "--tolerance", "-1"], "tolerance must be finite and > 0"),
        ([*_CALIBRATED, "--avg-degree", "nan"], "avg_degree must be finite and > 0"),
        ([*_CALIBRATED, "--avg-degree", "inf"], "avg_degree must be finite and > 0"),
        ([*_CALIBRATED, "--calibration-runs", "0"], "runs must be at least 1"),
        (["benchmark", "--generate-spec", "calibrated:n=60,k=3,target_q=0.3,tolerance=nan",
          "--methods", "leiden", "--out", "b"], "tolerance must be finite and > 0"),
    ],
    ids=["tolerance-nan", "tolerance-negative", "avg-degree-nan", "avg-degree-inf", "runs-zero", "spec-tolerance-nan"],
)
def test_calibration_settings_are_checked_before_any_leiden_run(workdir, capsys, monkeypatch, argv, message):
    def leiden(*_args, **_kwargs):
        raise AssertionError("calibration settings must be checked before any Leiden run")

    monkeypatch.setattr("qicd.bench.leiden", leiden)
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert list(workdir.iterdir()) == []


def test_detect_prints_q(workdir, capsys):
    assert main(["generate", "clique-ring", "--cliques", "10", "--size", "5", "--out", "ring.el"]) == 0
    capsys.readouterr()
    assert main(["detect", "--graph", "ring.el", "--method", "leiden", "--seed", "3", "--out", "p.csv"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "Q=0.809091"
    rows = (workdir / "p.csv").read_text().splitlines()
    assert rows[0] == "node_id,community_id"
    assert len(rows) == 51


def test_detect_two_triangles_q(workdir, capsys):
    (workdir / "tri.el").write_text("0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n")
    assert main(["detect", "--graph", "tri.el", "--method", "leiden", "--seed", "1", "--out", "t.csv"]) == 0
    assert capsys.readouterr().out.strip() == "Q=0.500000"


@pytest.mark.parametrize("weight", ["1e200", "1e-200"])
def test_detect_finds_the_cliques_at_any_weight_scale(workdir, capsys, weight):
    # Q does not change when every weight is multiplied by one constant.
    assert main(["generate", "clique-ring", "--cliques", "4", "--size", "4", "--out", "ring.el"]) == 0
    edges = [line.split()[:2] for line in (workdir / "ring.el").read_text().splitlines() if line[0] != "#"]
    (workdir / "w.el").write_text("".join(f"{u} {v} {weight}\n" for u, v in edges))
    capsys.readouterr()
    assert main(["detect", "--graph", "w.el", "--method", "leiden", "--out", "p.csv"]) == 0
    assert capsys.readouterr().out.strip() == "Q=0.607143"
    rows = (workdir / "p.csv").read_text().splitlines()[1:]
    assert len({row.split(",")[1] for row in rows}) == 4


def test_detect_deterministic_bytes(workdir):
    _make_graph(workdir)
    main(["detect", "--graph", "g.el", "--method", "louvain", "--seed", "5", "--out", "a.csv"])
    main(["detect", "--graph", "g.el", "--method", "louvain", "--seed", "5", "--out", "b.csv"])
    assert (workdir / "a.csv").read_bytes() == (workdir / "b.csv").read_bytes()


def test_detect_edgeless_is_data_error(workdir, capsys):
    (workdir / "empty.el").write_text("# nodes: 4\n")
    code = main(["detect", "--graph", "empty.el", "--method", "leiden", "--out", "x.csv"])
    assert code == 2
    assert "modularity undefined: graph has no edges" in capsys.readouterr().err


def test_detect_names_the_line_of_a_byte_that_is_not_utf8(workdir, capsys):
    (workdir / "bad.el").write_bytes(b"# nodes: 3\n0 1\n1 2 \xff\n")
    assert main(["detect", "--graph", "bad.el", "--method", "leiden", "--out", "x.csv"]) == 2
    assert capsys.readouterr().err.startswith("line 3: 'utf-8' codec can't decode byte 0xff")


def test_detect_rejects_a_node_count_past_the_pair_key_range(workdir, capsys):
    (workdir / "huge.el").write_text("# nodes: 3037000500\n0 1\n")
    assert main(["detect", "--graph", "huge.el", "--method", "leiden", "--out", "x.csv"]) == 2
    assert capsys.readouterr().err.strip() == "line 1: node count 3037000500 is too large"
    assert not (workdir / "x.csv").exists()


def test_usage_errors_exit_1(workdir, capsys):
    assert main(["detect", "--graph", "g.el", "--method", "bogus", "--out", "x.csv"]) == 1
    assert main(["mrg", "--graph", "g.el", "--nulls", "4", "--out", "x"]) == 1
    assert main(["benchmark", "--methods", "leiden", "--out", "x"]) == 1  # no graph and no spec
    assert main([]) == 1


def test_qicd_outputs(workdir, capsys):
    _make_graph(workdir)
    capsys.readouterr()
    code = main(["qicd", "--graph", "g.el", "--kind", "haar", "--iterations", "4", "--seed", "3", "--out", "run"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("Q*=") and "baseline=" in out and "MRG=" in out
    envelope = json.loads((workdir / "run.json").read_text())
    assert set(envelope) >= {"config", "Q_baseline", "Q_star", "mrg", "iterations_run"}
    trace = (workdir / "run.trace.csv").read_text().splitlines()
    assert trace[0] == "t,Q_ref,Q_quant,accepted,communities,millis"
    assert (workdir / "run.partition.csv").exists()


def test_qicd_hu_fraction_zero(workdir, capsys):
    _make_graph(workdir)
    capsys.readouterr()
    code = main(
        ["qicd", "--graph", "g.el", "--kind", "hu", "--fraction", "0", "--iterations", "3", "--seed", "3", "--out", "hu"]
    )
    assert code == 0
    envelope = json.loads((workdir / "hu.json").read_text())
    assert envelope["accepted_count"] == 0


def test_benchmark_full_grid_structure(workdir, capsys):
    _make_graph(workdir, n=60, k=3, p_in=0.4, p_out=0.05)
    capsys.readouterr()
    methods = ",".join(
        [
            "louvain", "louvain-hu", "louvain-pt", "louvain-haar", "louvain-pt-hu", "louvain-haar-hu",
            "leiden", "leiden-hu", "leiden-pt", "leiden-haar", "leiden-pt-hu", "leiden-haar-hu",
        ]
    )
    code = main(
        [
            "benchmark", "--graph", "g.el", "--methods", methods,
            "--runs", "2,louvain=3", "--baseline", "leiden",
            "--iterations", "2", "--seed", "9", "--out", "bench",
        ]
    )
    assert code == 0
    table = (workdir / "bench.table.txt").read_text().splitlines()
    assert len([l for l in table if l and not l.startswith(("Method", "-", "baseline"))]) == 12
    runs = (workdir / "bench.runs.csv").read_text().splitlines()
    assert runs[0] == "method,run,seed,Q"
    assert len(runs) == 1 + 11 * 2 + 3
    for row in runs[1:]:
        q = float(row.split(",")[3])
        assert -1.0 <= q <= 1.0
    summary = json.loads((workdir / "bench.summary.json").read_text())
    assert summary["baseline"] == "leiden"
    assert summary["methods"]["leiden"]["p_vs_baseline"] is None
    assert len(summary["methods"]) == 12


def test_benchmark_single_method_omits_p(workdir, capsys):
    _make_graph(workdir, n=50, k=2, p_in=0.4, p_out=0.05)
    capsys.readouterr()
    code = main(["benchmark", "--graph", "g.el", "--methods", "leiden", "--runs", "2", "--seed", "3", "--out", "solo"])
    assert code == 0
    summary = json.loads((workdir / "solo.summary.json").read_text())
    assert summary["methods"]["leiden"]["p_vs_baseline"] is None
    table = (workdir / "solo.table.txt").read_text()
    assert "--" in table


def test_benchmark_default_baseline(workdir, capsys):
    """Without --baseline the baseline is leiden, or, when a method list
    omits leiden, the first plain method it lists; the manifest records it."""
    _make_graph(workdir, n=60, k=3, p_in=0.4, p_out=0.05)
    for methods, expected in (("louvain-pt-hu,louvain,leiden-hu", "louvain"), ("louvain,leiden-hu,leiden", "leiden")):
        argv = ["benchmark", "--graph", "g.el", "--methods", methods, "--runs", "2",
                "--iterations", "2", "--seed", "3", "--out", "b"]
        assert main(argv) == 0, methods
        summary = json.loads((workdir / "b.summary.json").read_text())
        assert summary["baseline"] == expected
        assert summary["methods"][expected]["p_vs_baseline"] is None
        assert json.loads((workdir / "b.manifest.json").read_text())["config"]["baseline"] == expected
    # no plain method to fall back on: leiden is still required
    assert main(["benchmark", "--graph", "g.el", "--methods", "louvain-hu,louvain-pt", "--out", "x"]) == 1
    assert "baseline 'leiden' must be one of --methods" in capsys.readouterr().err


def test_benchmark_usage_errors(workdir, capsys):
    _make_graph(workdir)
    assert main(["benchmark", "--graph", "g.el", "--methods", "nope", "--out", "x"]) == 1
    assert main(["benchmark", "--graph", "g.el", "--methods", "leiden", "--runs", "1", "--out", "x"]) == 1
    assert (
        main(["benchmark", "--graph", "g.el", "--methods", "louvain", "--baseline", "leiden", "--runs", "2",
              "--out", "x", "--generate-spec", "planted:n=10,k=2,p_in=0.5,p_out=0.1"]) == 1
    )
    assert main(["benchmark", "--methods", "louvain,leiden", "--baseline", "bogus-name", "--graph", "g.el",
                 "--runs", "2", "--out", "x"]) == 1


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--generate-spec", "planted:n=10"], "--generate-spec is missing 'k'; planted takes n, k, p_in, p_out"),
        (["--generate-spec", "planted:n=10,k=2,p_in=0.5,p_out=0.1,zzz=1"],
         "unknown --generate-spec key 'zzz'; planted takes n, k, p_in, p_out"),
        (["--generate-spec", "calibrated:n=60,k=3,target_q=0.3,avg_deg=30"],
         "unknown --generate-spec key 'avg_deg'; calibrated takes n, k, target_q, tolerance, avg_degree"),
        (["--generate-spec", "clique-ring:cliques=4,size=x"], "bad --generate-spec entry 'size=x'"),
        (["--generate-spec", "ring:cliques=4,size=3"], "unknown --generate-spec type 'ring'"),
        (["--generate-spec", "planted:n=60.9,k=3,p_in=0.4,p_out=0.05"], "bad --generate-spec entry 'n=60.9'"),
        (["--graph", "g.el", "--runs", "leiden=x"], "bad --runs entry 'leiden=x'"),
        (["--graph", "g.el", "--runs", "two"], "bad --runs entry 'two'"),
    ],
    ids=["missing-key", "unknown-key", "calibrated-unknown-key", "bad-value", "unknown-type", "non-integer",
         "runs-count", "runs-default"],
)
def test_benchmark_spec_errors_name_the_entry(workdir, capsys, flags, message):
    _make_graph(workdir)
    capsys.readouterr()
    assert main(["benchmark", "--methods", "leiden", "--out", "x", *flags]) == 1
    assert message in capsys.readouterr().err
    assert not (workdir / "x.manifest.json").exists()


def _subcommands(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


_GENERATE = _subcommands(_subcommands(build_parser(0))["generate"])


@pytest.mark.parametrize("kind", sorted(set(_GENERATE) - {"rewire"}))
def test_generate_spec_keys_are_the_generate_flags(kind):
    """A spec takes the destinations of `generate <kind>` but seed and out,
    typed and required as the flags are."""
    flags = [a for a in _GENERATE[kind]._actions if a.dest not in ("help", "seed", "out")]
    keys = [a.dest for a in flags]
    name, params = _parse_generate_spec(f"{kind}:" + ",".join(f"{key}=1" for key in keys))
    assert name == kind
    assert {key: type(value) for key, value in params.items()} == {a.dest: a.type for a in flags}
    for flag in flags:
        rest = f"{kind}:" + ",".join(f"{key}=1" for key in keys if key != flag.dest)
        if flag.required:
            with pytest.raises(UsageError, match=f"missing '{flag.dest}'; {kind} takes {', '.join(keys)}$"):
                _parse_generate_spec(rest)
        else:
            assert flag.dest not in _parse_generate_spec(rest)[1]


def test_calibrated_spec_takes_calibration_runs(workdir, monkeypatch):
    calls = []

    @functools.wraps(qicd.cli.calibrate_planted)  # the parser reads its defaults
    def calibrate_planted(n, k, target_q, **kwargs):
        calls.append((n, k, target_q, kwargs))
        return PlantedSpec(n, k, 0.4, 0.05, kwargs["seed"]), target_q

    monkeypatch.setattr("qicd.cli.calibrate_planted", calibrate_planted)
    spec = "calibrated:n=60,k=3,target_q=0.3,calibration_runs=1"
    assert main(["benchmark", "--generate-spec", spec, "--methods", "leiden", "--runs", "2", "--seed", "4",
                 "--out", "b"]) == 0
    assert calls == [(60, 3, 0.3, {"seed": mix(4, 71), "runs": 1})]


def test_benchmark_edgeless_is_data_error(workdir, capsys):
    (workdir / "empty.el").write_text("# nodes: 4\n")
    code = main(["benchmark", "--graph", "empty.el", "--methods", "leiden", "--runs", "2", "--out", "x"])
    assert code == 2
    err = capsys.readouterr().err
    assert "method 'leiden' run 0 failed: modularity undefined: graph has no edges" in err
    assert "Traceback" not in err


def test_benchmark_passes_init_mode_and_method_kind_base(workdir, capsys, monkeypatch):
    # The spy can see only runs made in this process.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    _make_graph(workdir, n=60, k=3, p_in=0.4, p_out=0.05)
    calls = []
    real_run_qicd = qicd.bench.run_qicd

    def spy(graph, cfg):
        calls.append((cfg.init_mode, cfg.kind, cfg.base))
        return real_run_qicd(graph, cfg)

    monkeypatch.setattr(qicd.bench, "run_qicd", spy)
    code = main(
        [
            "benchmark", "--graph", "g.el", "--methods", "leiden-haar,leiden-hu", "--baseline", "leiden-haar",
            "--runs", "2", "--iterations", "2", "--init-mode", "singleton", "--seed", "3", "--out", "b",
        ]
    )
    assert code == 0
    assert calls == [("singleton", "haar", "leiden")] * 2 + [("singleton", "hu", "leiden")] * 2
    for flags in (["--kind", "pt"], ["--base", "louvain"], ["--jobs", "2"]):
        argv = ["benchmark", "--graph", "g.el", "--methods", "leiden", "--runs", "2", "--out", "x", *flags]
        assert main(argv) == 1, flags


def test_benchmark_replays_manifest_with_retired_keys(workdir, capsys):
    """A benchmark manifest written before --kind, --base and --jobs left
    `benchmark` (it holds those keys and no detector keys) still replays,
    whatever those keys hold: keys that no flag defines are not read."""
    _make_graph(workdir, n=60, k=3, p_in=0.4, p_out=0.05)
    argv = ["benchmark", "--graph", "g.el", "--methods", "leiden,leiden-haar", "--runs", "2",
            "--iterations", "2", "--seed", "13", "--out", "fresh"]
    assert main(argv) == 0
    manifest = json.loads((workdir / "fresh.manifest.json").read_text())
    config = manifest["config"]
    assert not {"max_levels", "max_sweeps", "min_gain", "resolution", "random_ties"} & set(config)
    config.update({"jobs": 2, "kind": "bogus", "base": "louvain", "out": "old"})
    (workdir / "old.manifest.json").write_text(json.dumps(manifest))
    assert main(["--from-manifest", "old.manifest.json"]) == 0
    assert (workdir / "old.runs.csv").read_bytes() == (workdir / "fresh.runs.csv").read_bytes()


@pytest.mark.parametrize("sources", ["neither", "both"])
def test_replayed_benchmark_needs_exactly_one_graph_source(workdir, capsys, sources):
    _make_graph(workdir, n=60, k=3, p_in=0.4, p_out=0.05)
    assert main(["benchmark", "--graph", "g.el", "--methods", "leiden", "--runs", "2", "--out", "a"]) == 0
    manifest = json.loads((workdir / "a.manifest.json").read_text())
    assert manifest["config"]["generate_spec"] is None
    if sources == "neither":
        manifest["config"]["graph"] = None
    else:
        manifest["config"]["generate_spec"] = "planted:n=60,k=3,p_in=0.4,p_out=0.05"
    manifest["config"]["out"] = "b"
    (workdir / "old.manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["--from-manifest", "old.manifest.json"]) == 1
    assert capsys.readouterr().err == "usage error: benchmark needs exactly one of --graph or --generate-spec\n"
    assert not list(workdir.glob("b.*"))


_SPEC = "planted:n=60,k=3,p_in=0.4,p_out=0.05"


@pytest.mark.parametrize(
    "settings, message",
    [
        ({"methods": ""}, "--methods lists no method names"),
        ({"methods": ","}, "--methods lists no method names"),
        ({"methods": "leiden,leiden-hu,leiden"}, "--methods lists 'leiden' more than once"),
        ({"runs": "2,louvain=5"}, "--runs sets a count for 'louvain', which --methods does not list"),
        ({"graph": None, "generate_spec": _SPEC, "relabel": True},
         "--relabel applies to --graph, not to --generate-spec"),
        ({"graph": None, "generate_spec": _SPEC, "merge_duplicates": True},
         "--merge-duplicates applies to --graph, not to --generate-spec"),
    ],
    ids=["empty-methods", "comma-methods", "repeated-method", "runs-for-unlisted-method", "relabel-with-spec",
         "merge-with-spec"],
)
def test_benchmark_refuses_input_it_would_ignore(workdir, capsys, settings, message):
    """Settings that would have no effect, a method list that names no
    method, or a repeated method whose rows the summary would fold into
    one, are usage errors, also on replay."""
    _make_graph(workdir, n=60, k=3, p_in=0.4, p_out=0.05)
    assert main(["benchmark", "--graph", "g.el", "--methods", "leiden,leiden-hu", "--runs", "2", "--out", "a"]) == 0
    manifest = json.loads((workdir / "a.manifest.json").read_text())
    config = {**manifest["config"], **settings}
    argv = ["benchmark", "--methods", config["methods"], "--runs", config["runs"], "--out", "b"]
    argv += ["--graph", config["graph"]] if config["graph"] else ["--generate-spec", config["generate_spec"]]
    argv += [f"--{key.replace('_', '-')}" for key in ("relabel", "merge_duplicates") if config[key]]
    manifest["config"] = {**config, "out": "b"}
    (workdir / "old.manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    for run in (argv, ["--from-manifest", "old.manifest.json"]):
        assert main(run) == 1, run
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not list(workdir.glob("b.*"))


_HU_SEEDS = "--seeds has no effect with --kind hu, which draws no weights"


@pytest.mark.parametrize("source", ["flags", "manifest"])
@pytest.mark.parametrize(
    "argv, message",
    [
        (["qicd", "--kind", "hu"], _HU_SEEDS),
        (["mrg", "--kind", "hu", "--nulls", "5"], _HU_SEEDS),
        (["benchmark", "--methods", "leiden,leiden-hu,louvain-hu", "--runs", "2"],
         "--seeds has no effect: --methods lists only plain and hu methods, which draw no weights"),
        # One method that draws weights is enough.
        (["benchmark", "--methods", "leiden-haar,leiden-hu", "--baseline", "leiden-haar", "--runs", "2"], None),
    ],
    ids=["qicd", "mrg", "benchmark", "benchmark-with-haar"],
)
def test_seeds_with_hu_is_a_usage_error(workdir, capsys, argv, message, source):
    """--seeds sets how many weights a proposal draws; where no proposal
    draws any, it is refused, also on replay."""
    _make_graph(workdir, n=60, k=3, p_in=0.4, p_out=0.05)
    argv = [*argv, "--graph", "g.el", "--iterations", "1"]
    if source == "flags":
        run = [*argv, "--seeds", "7", "--out", "b"]
    else:
        assert main([*argv, "--out", "a"]) == 0
        manifest = json.loads((workdir / "a.manifest.json").read_text())
        manifest["config"].update(proposal_seeds=7, out="b")
        (workdir / "old.manifest.json").write_text(json.dumps(manifest))
        run = ["--from-manifest", "old.manifest.json"]
    capsys.readouterr()
    if message is None:
        assert main(run) == 0
        return
    assert main(run) == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not list(workdir.glob("b*"))


def test_fresh_graphs_with_graph_is_a_usage_error(workdir, capsys):
    """--fresh-graphs needs a generator that draws a new graph from each
    seed: a graph file or a clique ring would give the same graph."""
    _make_graph(workdir, n=60, k=3, p_in=0.4, p_out=0.05)
    capsys.readouterr()
    for source in (["--graph", "g.el"], ["--generate-spec", "clique-ring:cliques=4,size=3"]):
        argv = ["benchmark", *source, "--fresh-graphs", "--methods", "leiden", "--runs", "2", "--out", "x"]
        assert main(argv) == 1, source
        assert capsys.readouterr().err == "usage error: --fresh-graphs needs a randomized generator spec\n"
        assert not list(workdir.glob("x.*"))


def test_benchmark_generate_spec(workdir, capsys):
    code = main(
        [
            "benchmark", "--generate-spec", "planted:n=60,k=3,p_in=0.4,p_out=0.05",
            "--methods", "leiden", "--runs", "2", "--seed", "4", "--out", "spec",
        ]
    )
    assert code == 0
    assert (workdir / "spec.runs.csv").exists()


def test_benchmark_fresh_graphs(workdir):
    code = main(
        [
            "benchmark", "--generate-spec", "planted:n=60,k=3,p_in=0.4,p_out=0.05",
            "--fresh-graphs", "--methods", "leiden", "--runs", "2", "--seed", "4", "--out", "fresh",
        ]
    )
    assert code == 0


_CALIBRATED_SPEC = "calibrated:n=60,k=3,target_q=0.3,tolerance=0.05,calibration_runs=2"


@pytest.mark.parametrize(
    "argv, outputs",
    [
        (["benchmark", "--graph", "g.el", "--methods", "leiden,louvain-hu,leiden-haar", "--runs", "3",
          "--iterations", "2"], ["runs.csv", "summary.json", "table.txt"]),
        (["benchmark", "--generate-spec", "planted:n=60,k=3,p_in=0.4,p_out=0.05", "--fresh-graphs",
          "--methods", "leiden,leiden-pt", "--runs", "2", "--iterations", "2"], ["runs.csv", "summary.json", "table.txt"]),
        # Each run calibrates its graph inside a pool worker.
        (["benchmark", "--generate-spec", _CALIBRATED_SPEC, "--fresh-graphs", "--methods", "leiden", "--runs", "2"],
         ["runs.csv", "summary.json", "table.txt"]),
        (["mrg", "--graph", "g.el", "--nulls", "5", "--iterations", "2"], ["mrg.json"]),
    ],
    ids=["grid", "fresh-planted", "fresh-calibrated", "mrg"],
)
def test_outputs_do_not_depend_on_cpu_count(workdir, monkeypatch, argv, outputs):
    """Seeded runs and nulls go to one forked worker per usable CPU, and
    write the same bytes as with one CPU, where they run in this process."""
    _make_graph(workdir, n=60, k=3, p_in=0.4, p_out=0.05)
    pools = []
    real_init = ProcessPoolExecutor.__init__

    def spy(self, max_workers, mp_context, **kwargs):
        pools.append((max_workers, mp_context.get_start_method()))
        real_init(self, max_workers, mp_context=mp_context, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "__init__", spy)
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
        pools.clear()
        (workdir / f"cpus{cpus}").mkdir()
        assert main([*argv, "--seed", "5", "--out", f"cpus{cpus}/out"]) == 0
        assert pools == ([] if cpus == 1 else [(2, "fork")])
    for name in outputs:
        assert (workdir / f"cpus1/out.{name}").read_bytes() == (workdir / f"cpus2/out.{name}").read_bytes(), name


@pytest.mark.parametrize(
    "argv",
    [["benchmark", "--graph", "g.el", "--methods", "leiden-haar", "--runs", "2"], ["mrg", "--graph", "g.el", "--nulls", "5"]],
    ids=["benchmark", "mrg"],
)
def test_worker_death_is_a_data_error(workdir, capsys, monkeypatch, argv):
    _make_graph(workdir, n=60, k=3, p_in=0.4, p_out=0.05)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    parent = os.getpid()

    def run_qicd(graph, cfg):
        if os.getpid() != parent:  # never kill the test run itself
            os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(qicd.bench, "run_qicd", run_qicd)
    capsys.readouterr()
    assert main([*argv, "--iterations", "1", "--out", "out"]) == 2
    assert capsys.readouterr().err == "a worker process died before the runs finished; no output was written\n"
    assert not list(workdir.glob("out.*"))


def test_mrg_report(workdir, capsys):
    _make_graph(workdir, n=80, k=4, p_in=0.35, p_out=0.05)
    capsys.readouterr()
    code = main(
        ["mrg", "--graph", "g.el", "--nulls", "5", "--iterations", "2", "--seed", "3", "--out", "sig"]
    )
    assert code == 0
    report = json.loads((workdir / "sig.mrg.json").read_text())
    assert set(report) >= {"observed_mrg", "null_mean", "null_std", "percentile", "null_gaps"}
    assert len(report["null_gaps"]) == 5
    out = capsys.readouterr().out
    assert out.startswith("MRG=")


def test_manifest_rerun_reproduces_outputs(workdir):
    _make_graph(workdir)
    main(["qicd", "--graph", "g.el", "--kind", "pt-hu", "--iterations", "3", "--seed", "11", "--out", "run"])
    saved_partition = (workdir / "run.partition.csv").read_bytes()
    saved_json = (workdir / "run.json").read_bytes()
    saved_trace = (workdir / "run.trace.csv").read_text()
    code = main(["--from-manifest", "run.manifest.json"])
    assert code == 0
    assert (workdir / "run.partition.csv").read_bytes() == saved_partition
    assert (workdir / "run.json").read_bytes() == saved_json
    # the millis column carries wall time; all other trace columns reproduce
    old_rows = [",".join(r.split(",")[:5]) for r in saved_trace.splitlines()]
    new_rows = [",".join(r.split(",")[:5]) for r in (workdir / "run.trace.csv").read_text().splitlines()]
    assert old_rows == new_rows


def test_random_ties_is_retired(workdir, capsys):
    """Ties always go to the lowest community id: the flag is gone, a
    manifest that broke ties at random is refused, and one that did not
    replays unchanged."""
    _make_graph(workdir)
    for argv in (
        ["detect", "--method", "leiden"],
        ["qicd", "--iterations", "1"],
        ["mrg", "--nulls", "5", "--iterations", "1"],
    ):
        assert main(argv + ["--graph", "g.el", "--random-ties", "--out", "r"]) == 1
    assert main(["detect", "--graph", "g.el", "--method", "leiden", "--seed", "3", "--out", "p.csv"]) == 0
    manifest = json.loads((workdir / "p.manifest.json").read_text())
    assert "random_ties" not in manifest["config"]
    for flag, out, code in ((True, "t.csv", 1), (False, "f.csv", 0)):
        manifest["config"].update(random_ties=flag, out=out)
        (workdir / "old.manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["--from-manifest", "old.manifest.json"]) == code
        assert ("random_ties" in capsys.readouterr().err) == flag
    assert not (workdir / "t.csv").exists()
    assert (workdir / "f.csv").read_bytes() == (workdir / "p.csv").read_bytes()


@pytest.mark.parametrize(
    "fault, message",
    [
        ("config-lacks-graph", "config of manifest old.manifest.json lacks 'graph'"),
        ("lacks-command", "manifest old.manifest.json lacks 'command'"),
        ("json-list", "manifest old.manifest.json is not a JSON object"),
    ],
    ids=["config-lacks-graph", "lacks-command", "json-list"],
)
def test_malformed_manifest_is_a_usage_error(workdir, capsys, fault, message):
    _make_graph(workdir)
    assert main(["detect", "--graph", "g.el", "--method", "leiden", "--out", "p.csv"]) == 0
    manifest = json.loads((workdir / "p.manifest.json").read_text())
    manifest["config"]["out"] = "q.csv"
    if fault == "config-lacks-graph":
        del manifest["config"]["graph"]
    elif fault == "lacks-command":
        del manifest["command"]
    else:
        manifest = [manifest]
    (workdir / "old.manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["--from-manifest", "old.manifest.json"]) == 1
    assert f"usage error: {message}" in capsys.readouterr().err
    assert not (workdir / "q.csv").exists()


_PLANTED = ["generate", "planted", "--n", "60", "--k", "3", "--p-in", "0.4", "--p-out", "0.05"]
_BENCHMARK = ["benchmark", "--graph", "g.el", "--methods", "leiden", "--runs", "2"]


@pytest.mark.parametrize(
    "argv, key, value, expected",
    [
        (_PLANTED, "n", 60.9, "an int"),
        (_PLANTED, "n", "60", "an int"),
        (_PLANTED, "n", True, "an int"),
        (["generate", "clique-ring", "--cliques", "4", "--size", "3"], "cliques", 4.5, "an int"),
        (["detect", "--graph", "g.el", "--method", "leiden"], "method", "bogus", "one of leiden, louvain"),
        (["detect", "--graph", "g.el", "--method", "leiden"], "graph", None, "a string"),
        (["qicd", "--graph", "g.el", "--iterations", "1"], "refine_before_accept", 1, "true or false"),
        (_BENCHMARK, "runs", 2, "a string"),
        # --runs takes a string, so a string replays.
        (_BENCHMARK, "runs", "2", None),
        (_PLANTED, "p_in", 1, None),
    ],
    ids=["planted-float-n", "planted-string-n", "planted-bool-n", "clique-ring-float", "detect-choice",
         "detect-null-graph", "qicd-int-flag", "benchmark-int-runs", "benchmark-string-runs", "planted-int-p-in"],
)
def test_replayed_values_must_fit_their_flags(workdir, capsys, argv, key, value, expected):
    _make_graph(workdir)
    assert main([*argv, "--out", "a.txt"]) == 0
    manifest = json.loads((workdir / "a.manifest.json").read_text())
    manifest["config"].update({key: value, "out": "b.txt"})
    (workdir / "old.manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    if expected is None:
        assert main(["--from-manifest", "old.manifest.json"]) == 0
        return
    assert main(["--from-manifest", "old.manifest.json"]) == 1
    assert capsys.readouterr().err == (
        f"usage error: config of manifest old.manifest.json sets {key!r} to {json.dumps(value)}; expected {expected}\n"
    )
    assert not list(workdir.glob("b.*"))


def test_key_error_inside_a_replayed_run_stays_a_data_error(workdir, capsys, monkeypatch):
    _make_graph(workdir)
    assert main(["detect", "--graph", "g.el", "--method", "leiden", "--out", "p.csv"]) == 0

    def leiden(*_args, **_kwargs):
        raise KeyError("deep")

    monkeypatch.setattr("qicd.cli.leiden", leiden)
    capsys.readouterr()
    assert main(["--from-manifest", "p.manifest.json"]) == 2
    assert capsys.readouterr().err == "'deep'\n"


def test_config_file_defaults(workdir, capsys):
    _make_graph(workdir)
    (workdir / "conf.txt").write_text("method=leiden\nseed=9\n")
    capsys.readouterr()
    assert main(["detect", "--config", "conf.txt", "--graph", "g.el", "--out", "c1.csv"]) == 0
    q1 = capsys.readouterr().out
    assert main(["detect", "--graph", "g.el", "--method", "leiden", "--seed", "9", "--out", "c2.csv"]) == 0
    q2 = capsys.readouterr().out
    assert q1 == q2
    assert (workdir / "c1.csv").read_bytes() == (workdir / "c2.csv").read_bytes()


def test_config_file_flag_override(workdir, capsys):
    _make_graph(workdir)
    (workdir / "conf.txt").write_text("method=louvain\nseed=1\n")
    assert main(["detect", "--config", "conf.txt", "--graph", "g.el", "--method", "leiden", "--seed", "9",
                 "--out", "c3.csv"]) == 0
    manifest = json.loads((workdir / "c3.manifest.json").read_text())
    assert manifest["config"]["method"] == "leiden"
    assert manifest["config"]["seed"] == 9


_CONF_RUN = ["--graph", "g.el", "--out", "c.csv"]


@pytest.mark.parametrize(
    "argv, lines, error",
    [
        (["detect", "--config=conf.txt", *_CONF_RUN], "method=leiden\nseed=9\n", None),
        (["--config", "conf.txt", "detect", *_CONF_RUN], "method=leiden\nseed=9\n", None),
        (["detect", "--config", "conf.txt", *_CONF_RUN], "# a comment\n\nmethod=leiden\nseed=9\nrelabel=false\n", None),
        (["detect", "--config", "conf.txt", *_CONF_RUN], "method=leiden\n seed \n", "bad config line: 'seed'"),
        (["detect", "--config", "conf.txt", *_CONF_RUN], "method=leiden\nseed=false\n",
         "argument --seed: invalid int value: 'false'"),
    ],
    ids=["equals-form", "before-command", "flag-false", "malformed-line", "value-false"],
)
def test_config_file_forms(workdir, capsys, argv, lines, error):
    """Wherever --config stands, its lines act as the flags they name; a
    false on/off flag is left unset, a line without a value is refused,
    and argparse checks every other value as it checks the flag's."""
    _make_graph(workdir)
    assert main(["detect", "--graph", "g.el", "--method", "leiden", "--seed", "9", "--out", "d.csv"]) == 0
    (workdir / "conf.txt").write_text(lines)
    capsys.readouterr()
    if error is not None:
        assert main(argv) == 1
        assert capsys.readouterr().err == f"usage error: {error}\n"
        assert not list(workdir.glob("c.*"))
        return
    assert main(argv) == 0
    assert (workdir / "c.csv").read_bytes() == (workdir / "d.csv").read_bytes()
    config = json.loads((workdir / "c.manifest.json").read_text())["config"]
    assert config == {**json.loads((workdir / "d.manifest.json").read_text())["config"], "out": "c.csv"}


def test_env_seed_default(workdir, monkeypatch, capsys):
    _make_graph(workdir)
    monkeypatch.setenv("QICD_SEED", "9")
    assert main(["detect", "--graph", "g.el", "--method", "leiden", "--out", "e1.csv"]) == 0
    monkeypatch.delenv("QICD_SEED")
    assert main(["detect", "--graph", "g.el", "--method", "leiden", "--seed", "9", "--out", "e2.csv"]) == 0
    assert (workdir / "e1.csv").read_bytes() == (workdir / "e2.csv").read_bytes()


def test_relabel_sidecar(workdir, capsys):
    (workdir / "named.el").write_text("alice bob\nbob carol\ncarol alice\ndan erin\nerin frank\nfrank dan\n")
    assert main(["detect", "--graph", "named.el", "--relabel", "--method", "leiden", "--seed", "1",
                 "--out", "named.csv"]) == 0
    labels = (workdir / "named.labels.csv").read_text().splitlines()
    assert labels[0] == "node_id,label"
    assert labels[1] == "0,alice"
    assert capsys.readouterr().out.strip() == "Q=0.500000"


def test_relabel_sidecar_quotes_labels_that_need_it(workdir, capsys):
    (workdir / "quoted.el").write_text('a,b c\nc "d"\n"d" a,b\ne"f,g a,b\n')
    assert main(["detect", "--graph", "quoted.el", "--relabel", "--method", "leiden", "--out", "quoted.csv"]) == 0
    with open(workdir / "quoted.labels.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["node_id", "label"], ["0", "a,b"], ["1", "c"], ["2", '"d"'], ["3", 'e"f,g']]
    assert (workdir / "quoted.labels.csv").read_bytes().count(b"\r") == 0


@pytest.mark.parametrize(
    "argv",
    [["detect", "--graph", "empty.el", "--method", "leiden"],
     ["mrg", "--graph", "g.el", "--nulls", "5", "--iterations", "1"]],
    ids=["edgeless", "worker-death"],
)
def test_failed_relabel_run_writes_no_sidecar(workdir, capsys, monkeypatch, argv):
    _make_graph(workdir, n=60, k=3, p_in=0.4, p_out=0.05)
    (workdir / "empty.el").write_text("# nothing\n")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    parent = os.getpid()

    def run_qicd(graph, cfg):
        if os.getpid() != parent:  # never kill the test run itself
            os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(qicd.bench, "run_qicd", run_qicd)
    assert main([*argv, "--relabel", "--out", "e.csv"]) == 2
    assert not list(workdir.glob("e.*"))


@pytest.mark.parametrize(
    "argv",
    [
        [*_PLANTED, "--out", "planted.el"],
        ["generate", "calibrated", "--n", "150", "--k", "3", "--target-q", "0.5", "--tolerance", "0.08",
         "--avg-degree", "10", "--calibration-runs", "2", "--out", "calibrated.el"],
        ["generate", "clique-ring", "--cliques", "4", "--size", "3", "--out", "ring.el"],
        ["generate", "rewire", "--input", "g.el", "--swap-factor", "5", "--out", "rewired.el"],
        ["detect", "--graph", "g.el", "--relabel", "--method", "leiden", "--out", "labelled.csv"],
        ["qicd", "--graph", "g.el", "--iterations", "2", "--out", "refined"],
        [*_BENCHMARK, "--out", "bench"],
        ["mrg", "--graph", "g.el", "--nulls", "5", "--iterations", "2", "--out", "sig"],
    ],
    ids=["planted", "calibrated", "clique-ring", "rewire", "detect-relabel", "qicd", "benchmark", "mrg"],
)
def test_manifest_lists_every_file(workdir, capsys, argv):
    _make_graph(workdir, n=60, k=3, p_in=0.4, p_out=0.05)
    assert main(argv) == 0
    stem = Path(argv[-1]).stem
    manifest = json.loads((workdir / f"{stem}.manifest.json").read_text())
    files = {path for key, path in manifest["outputs"].items() if key != "achieved_q"}
    assert {p.name for p in workdir.glob(f"{stem}.*")} == files | {f"{stem}.manifest.json"}


def test_merge_duplicates_flag(workdir, capsys):
    (workdir / "dup.el").write_text("0 1 1.0\n1 0 2.0\n1 2 1.0\n")
    assert main(["detect", "--graph", "dup.el", "--method", "leiden", "--out", "d.csv"]) == 2
    assert main(["detect", "--graph", "dup.el", "--merge-duplicates", "--method", "leiden", "--out", "d.csv"]) == 0


def test_console_script_entry_point(workdir):
    # The child runs in workdir, where a relative PYTHONPATH entry such as
    # `src` no longer resolves. Put the directory holding the qicd imported
    # here first, so the child runs the same qicd from a checkout or an install.
    package_root = str(Path(qicd.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "qicd", "--version"], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0
    assert "qicd" in result.stdout
