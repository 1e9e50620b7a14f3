import argparse
import csv
import errno
import json
import os
import re
import signal
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from pathlib import Path

import pytest

import qicd
from qicd.cli import _RETIRED, _Parser, _qicd_config, build_parser, main


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
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


def test_generate_clique_ring_takes_no_seed(workdir, capsys):
    """The ring draws nothing, so --seed is an unrecognized argument and the
    manifest records no seed; a ring manifest that records one, as older
    ones do, replays to the same files."""
    argv = ["generate", "clique-ring", "--cliques", "4", "--size", "3"]
    assert main([*argv, "--seed", "99", "--out", "x.el"]) == 1
    assert capsys.readouterr().err == "usage error: unrecognized arguments: --seed 99\n"
    assert list(workdir.iterdir()) == []
    assert main([*argv, "--out", "ring.el"]) == 0
    manifest = json.loads((workdir / "ring.manifest.json").read_text())
    assert "seed" not in manifest["config"] and "base_seed" not in manifest
    old = {**manifest, "base_seed": 99, "config": {**manifest["config"], "seed": 99, "out": "old.el"}}
    (workdir / "old.json").write_text(json.dumps(old))
    assert main(["--from-manifest", "old.json"]) == 0
    for suffix in (".el", ".truth.csv"):
        assert (workdir / f"old{suffix}").read_bytes() == (workdir / f"ring{suffix}").read_bytes()


def test_generate_rewire(workdir):
    _make_graph(workdir)
    assert main(["generate", "rewire", "--input", "g.el", "--seed", "3", "--out", "null.el"]) == 0
    assert (workdir / "null.el").exists()
    assert not (workdir / "null.truth.csv").exists()
    manifest = json.loads((workdir / "null.manifest.json").read_text())
    assert manifest["inputs"] == {"graph": "g.el"}


@pytest.mark.parametrize(
    "argv, graph, output",
    [
        (["detect", "--graph", "g.el", "--method", "leiden", "--out", "g.el"], "g.el", "g.el"),
        (["generate", "rewire", "--input", "h.el", "--out", "h.el"], "h.el", "h.el"),
        (["qicd", "--graph", "run.partition.csv", "--iterations", "1", "--out", "run"], "run.partition.csv",
         "run.partition.csv"),
        (["detect", "--graph", "d.manifest.json", "--method", "leiden", "--out", "d.csv"], "d.manifest.json",
         "d.manifest.json"),
        (["detect", "--graph", "g.el", "--method", "leiden", "--out", "sub/../g.el"], "g.el", "sub/../g.el"),
    ],
    ids=["detect", "rewire", "qicd-partition", "manifest", "other-spelling"],
)
def test_an_output_may_not_overwrite_the_input_graph(workdir, capsys, monkeypatch, argv, graph, output):
    """A command whose output file or manifest is its own input graph is a
    usage error, refused before the command computes, that writes nothing;
    otherwise its manifest could not be replayed from the input it names."""
    _make_graph(workdir, n=60, k=3, p_in=0.4, p_out=0.05)
    (workdir / "sub").mkdir()
    (workdir / graph).write_bytes((workdir / "g.el").read_bytes())
    _refuse_to_compute(monkeypatch)
    before = {path.name: path.read_bytes() for path in workdir.iterdir() if path.is_file()}
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"usage error: output {output} would overwrite the input graph {graph}\n"
    assert {path.name: path.read_bytes() for path in workdir.iterdir() if path.is_file()} == before


def _refuse_to_compute(monkeypatch):
    def compute(*_args, **_kwargs):
        raise AssertionError("a bad output path must be refused before the command computes")

    for name in ("leiden", "run_qicd", "degree_preserving_rewire"):
        monkeypatch.setattr(qicd.cli, name, compute)


@pytest.mark.parametrize(
    "out, message",
    [("nodir/x.csv", "output nodir/x.csv is in a directory that does not exist"), ("d", "output d is a directory")],
    ids=["missing-directory", "directory"],
)
def test_an_output_that_cannot_be_written_is_refused_before_computing(workdir, capsys, monkeypatch, out, message):
    """An output whose directory is missing, or that is a directory, is a
    data error that names the path, found before the command computes."""
    _make_graph(workdir, n=60, k=3, p_in=0.4, p_out=0.05)
    (workdir / "d").mkdir()
    _refuse_to_compute(monkeypatch)
    before = {path: path.is_file() and path.read_bytes() for path in workdir.rglob("*")}
    capsys.readouterr()
    assert main(["detect", "--graph", "g.el", "--method", "leiden", "--out", out]) == 2
    assert capsys.readouterr().err == message + "\n"
    assert {path: path.is_file() and path.read_bytes() for path in workdir.rglob("*")} == before


def test_generate_calibrated_small(workdir, capsys):
    code = main(
        [
            "generate", "calibrated",
            "--n", "150", "--k", "3", "--target-q", "0.5", "--tolerance", "0.08",
            "--avg-degree", "10",
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
        (["generate", "calibrated", "--n", "10", "--k", "10", "--target-q", "0.3", "--out", "cal.el"],
         "k must satisfy 1 <= k < n, got k=10 with n=10"),
        (["generate", "calibrated", "--n", "10", "--k", "0", "--target-q", "0.3", "--out", "cal.el"],
         "k must satisfy 1 <= k < n, got k=0 with n=10"),
    ],
    ids=["tolerance-nan", "tolerance-negative", "avg-degree-nan", "avg-degree-inf", "k-equals-n", "k-zero"],
)
def test_calibration_settings_are_checked_before_any_leiden_run(workdir, capsys, monkeypatch, argv, message):
    def leiden(*_args, **_kwargs):
        raise AssertionError("calibration settings must be checked before any Leiden run")

    monkeypatch.setattr("qicd.bench.leiden", leiden)
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert list(workdir.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "planted", "--n", "10000000000000", "--k", "1", "--p-in", "1e-20", "--p-out", "0",
         "--out", "g.el"],
        ["generate", "calibrated", "--n", "10000000000000", "--k", "1", "--target-q", "0.3", "--out", "g.el"],
    ],
    ids=["planted", "calibrated"],
)
def test_planted_node_count_past_the_graph_cap_is_a_data_error(workdir, capsys, monkeypatch, argv):
    """A planted node count that build_graph would refuse is refused before
    any node's label is made."""

    def generate_planted(_spec):
        raise AssertionError("the node count must be checked before generating")

    monkeypatch.setattr("qicd.cli.generate_planted", generate_planted)
    monkeypatch.setattr("qicd.bench.generate_planted", generate_planted)
    assert main(argv) == 2
    assert capsys.readouterr().err == "node count 10000000000000 is too large\n"
    assert list(workdir.iterdir()) == []


def test_out_of_memory_is_a_data_error(workdir, capsys, monkeypatch):
    """A command that runs out of memory exits 2 naming the command, and
    writes nothing. The allocation is patched to fail, not made."""

    def generate_planted(_spec):
        raise MemoryError

    monkeypatch.setattr("qicd.cli.generate_planted", generate_planted)
    argv = ["generate", "planted", "--n", "3000000000", "--k", "1", "--p-in", "1e-20", "--p-out", "0", "--out", "g.el"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "generate-planted: out of memory; no output was written\n"
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


def test_detect_names_the_line_of_a_bad_id_after_an_id_past_the_header(workdir, capsys):
    (workdir / "bad.el").write_text("# nodes: 5\n12 x\n")
    assert main(["detect", "--graph", "bad.el", "--method", "leiden", "--out", "x.csv"]) == 2
    assert capsys.readouterr().err == "line 2: node ids must be integers: '12 x'\n"
    assert [path.name for path in workdir.iterdir()] == ["bad.el"]


def test_detect_rejects_a_node_count_past_the_pair_key_range(workdir, capsys):
    (workdir / "huge.el").write_text("# nodes: 3037000500\n0 1\n")
    assert main(["detect", "--graph", "huge.el", "--method", "leiden", "--out", "x.csv"]) == 2
    assert capsys.readouterr().err.strip() == "line 1: node count 3037000500 is too large"
    assert not (workdir / "x.csv").exists()


def test_usage_errors_exit_1(workdir, capsys):
    assert main(["detect", "--graph", "g.el", "--method", "bogus", "--out", "x.csv"]) == 1
    assert main(["mrg", "--graph", "g.el", "--nulls", "4", "--out", "x"]) == 1
    assert main(["benchmark", "--methods", "leiden", "--out", "x"]) == 1  # no --graph
    assert main([]) == 1
    capsys.readouterr()
    assert main(["generate"]) == 1
    assert capsys.readouterr().err == (
        "usage error: generate requires a subcommand: planted | calibrated | clique-ring | rewire\n"
    )


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


def test_benchmark_table_and_summary_agree(workdir, capsys):
    """Each table row prints its method's summary values at four decimals,
    the rows run by descending mean, and the footer names the baseline."""
    _make_graph(workdir, n=60, k=3, p_in=0.4, p_out=0.05)
    argv = ["benchmark", "--graph", "g.el", "--methods", "leiden,louvain-hu,leiden-haar", "--runs", "3",
            "--iterations", "2", "--seed", "5", "--out", "b"]
    assert main(argv) == 0
    summary = json.loads((workdir / "b.summary.json").read_text())
    lines = (workdir / "b.table.txt").read_text().splitlines()
    assert lines[-1] == "baseline: leiden; * marks p < 0.05"
    body = lines[2:-2]
    assert len(body) == len(summary["methods"]) == 3
    row_re = re.compile(r"(\S+) +(\d+)  (\S+)±(\S+)   \[(\S+), (\S+)\] +(\S+)( \*)? *")
    means = []
    for line in body:
        method, n, mean, std, ci_low, ci_high, p_text, star = row_re.fullmatch(line).groups()
        row = summary["methods"][method]
        assert int(n) == row["n"] == 3
        for text, key in ((mean, "mean"), (std, "std"), (ci_low, "ci_low"), (ci_high, "ci_high")):
            assert text == f"{row[key]:.4f}", (method, key)
        p = row["p_vs_baseline"]
        assert p_text == ("--" if p is None else f"{p:.4f}")
        assert (star is not None) == (p is not None and p < 0.05)
        means.append(row["mean"])
    assert means == sorted(means, reverse=True)
    assert summary["methods"]["leiden"]["p_vs_baseline"] is None


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


def test_benchmark_baseline_is_a_method_that_ran(workdir, capsys):
    """A lone method is its own baseline, and a --baseline that --methods
    does not list is refused at any method count."""
    _make_graph(workdir, n=60, k=3, p_in=0.4, p_out=0.05)
    argv = ["benchmark", "--graph", "g.el", "--runs", "2", "--iterations", "2", "--seed", "3"]
    assert main([*argv, "--methods", "leiden-haar", "--out", "solo"]) == 0
    summary = json.loads((workdir / "solo.summary.json").read_text())
    assert summary["baseline"] == "leiden-haar"
    assert summary["methods"]["leiden-haar"]["p_vs_baseline"] is None
    assert (workdir / "solo.table.txt").read_text().endswith("baseline: leiden-haar; * marks p < 0.05\n")
    assert json.loads((workdir / "solo.manifest.json").read_text())["config"]["baseline"] == "leiden-haar"
    capsys.readouterr()
    assert main([*argv, "--methods", "leiden", "--baseline", "louvain", "--out", "x"]) == 1
    assert capsys.readouterr().err == "usage error: baseline 'louvain' must be one of --methods\n"
    assert not list(workdir.glob("x.*"))


def test_benchmark_usage_errors(workdir, capsys):
    _make_graph(workdir)
    assert main(["benchmark", "--graph", "g.el", "--methods", "nope", "--out", "x"]) == 1
    assert main(["benchmark", "--graph", "g.el", "--methods", "leiden", "--runs", "1", "--out", "x"]) == 1
    assert main(["benchmark", "--graph", "g.el", "--methods", "louvain", "--baseline", "leiden", "--runs", "2",
                 "--out", "x"]) == 1
    assert main(["benchmark", "--methods", "louvain,leiden", "--baseline", "bogus-name", "--graph", "g.el",
                 "--runs", "2", "--out", "x"]) == 1


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--runs", "leiden=x"], "bad --runs entry 'leiden=x'"),
        (["--runs", "two"], "bad --runs entry 'two'"),
        (["--runs", "zzz=3"], "unknown method in --runs: 'zzz'"),
        (["--runs", "2,3"], "--runs gives more than one default count; the second is '3'"),
        (["--runs", "leiden=2,leiden=4"], "--runs sets a count for 'leiden' more than once"),
    ],
    ids=["runs-count", "runs-default", "runs-unknown-method", "runs-second-default", "runs-repeated-method"],
)
def test_benchmark_spec_errors_name_the_entry(workdir, capsys, flags, message):
    _make_graph(workdir)
    capsys.readouterr()
    assert main(["benchmark", "--graph", "g.el", "--methods", "leiden", "--out", "x", *flags]) == 1
    assert message in capsys.readouterr().err
    assert not (workdir / "x.manifest.json").exists()


def _subcommands(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


_GENERATE = _subcommands(_subcommands(build_parser())["generate"])


def test_benchmark_edgeless_is_data_error(workdir, capsys):
    (workdir / "empty.el").write_text("# nodes: 4\n")
    code = main(["benchmark", "--graph", "empty.el", "--methods", "leiden", "--runs", "2", "--out", "x"])
    assert code == 2
    assert capsys.readouterr().err == "modularity undefined: graph has no edges\n"


@pytest.mark.parametrize("cpus", [1, 2], ids=["inline", "pool"])
def test_seeded_commands_fail_alike_on_an_edgeless_graph(workdir, capsys, monkeypatch, cpus):
    """`benchmark`, `mrg` and `qicd` print the library's own message, exit 2
    and write nothing, whether the runs go inline or to workers."""
    (workdir / "empty.el").write_text("# nodes: 4\n")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    errors = []
    for argv in (["benchmark", "--methods", "leiden,leiden-haar", "--runs", "2"], ["mrg", "--nulls", "5"], ["qicd"]):
        assert main([*argv, "--graph", "empty.el", "--iterations", "1", "--out", "out"]) == 2
        errors.append(capsys.readouterr().err)
    assert errors == ["modularity undefined: graph has no edges\n"] * 3
    assert [p.name for p in workdir.iterdir()] == ["empty.el"]


def test_benchmark_passes_method_kind_and_base(workdir, capsys, monkeypatch):
    # The spy can see only runs made in this process.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    _make_graph(workdir, n=60, k=3, p_in=0.4, p_out=0.05)
    calls = []
    real_run_qicd = qicd.bench.run_qicd

    def spy(graph, cfg):
        calls.append((cfg.kind, cfg.base))
        return real_run_qicd(graph, cfg)

    monkeypatch.setattr(qicd.bench, "run_qicd", spy)
    code = main(
        [
            "benchmark", "--graph", "g.el", "--methods", "leiden-haar,leiden-hu", "--baseline", "leiden-haar",
            "--runs", "2", "--iterations", "2", "--seed", "3", "--out", "b",
        ]
    )
    assert code == 0
    assert calls == [("haar", "leiden")] * 2 + [("hu", "leiden")] * 2
    for flags in (["--kind", "pt"], ["--base", "louvain"], ["--jobs", "2"], ["--init-mode", "singleton"]):
        argv = ["benchmark", "--graph", "g.el", "--methods", "leiden", "--runs", "2", "--out", "x", *flags]
        assert main(argv) == 1, flags


def test_benchmark_replays_manifest_with_retired_keys(workdir, capsys):
    """A benchmark manifest written before --kind, --base, --jobs and
    --init-mode left `benchmark` (it holds those keys and no detector keys)
    still replays: keys that no flag defines are not read."""
    _make_graph(workdir, n=60, k=3, p_in=0.4, p_out=0.05)
    argv = ["benchmark", "--graph", "g.el", "--methods", "leiden,leiden-haar", "--runs", "2",
            "--iterations", "2", "--seed", "13", "--out", "fresh"]
    assert main(argv) == 0
    manifest = json.loads((workdir / "fresh.manifest.json").read_text())
    config = manifest["config"]
    assert not {"max_levels", "max_sweeps", "min_gain", "resolution", "random_ties", "alpha", "fraction"} & set(config)
    config.update({"jobs": 2, "kind": "bogus", "base": "louvain", "init_mode": "quick-leiden", "out": "old"})
    (workdir / "old.manifest.json").write_text(json.dumps(manifest))
    assert main(["--from-manifest", "old.manifest.json"]) == 0
    assert (workdir / "old.runs.csv").read_bytes() == (workdir / "fresh.runs.csv").read_bytes()


@pytest.mark.parametrize("sources", ["neither", "both"])
def test_replayed_benchmark_needs_exactly_one_graph_source(workdir, capsys, sources):
    """A replayed benchmark reads its graph from --graph alone: a manifest
    without one lacks a required flag, and one that also records a
    generator spec records a run that can no longer be made."""
    _make_graph(workdir, n=60, k=3, p_in=0.4, p_out=0.05)
    assert main(["benchmark", "--graph", "g.el", "--methods", "leiden", "--runs", "2", "--out", "a"]) == 0
    manifest = json.loads((workdir / "a.manifest.json").read_text())
    assert not {"generate_spec", "fresh_graphs"} & set(manifest["config"])
    if sources == "neither":
        manifest["config"]["graph"] = None
        error = "config of manifest old.manifest.json: the following arguments are required: --graph"
    else:
        manifest["config"]["generate_spec"] = "planted:n=60,k=3,p_in=0.4,p_out=0.05"
        error = ('manifest sets generate_spec to "planted:n=60,k=3,p_in=0.4,p_out=0.05", which is no longer '
                 "supported; it cannot be replayed")
    manifest["config"]["out"] = "b"
    (workdir / "old.manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["--from-manifest", "old.manifest.json"]) == 1
    assert capsys.readouterr().err == f"usage error: {error}\n"
    assert not list(workdir.glob("b.*"))


def _assert_unrecognized(workdir, capsys, flags):
    _make_graph(workdir, n=60, k=3, p_in=0.4, p_out=0.05)
    capsys.readouterr()
    assert main(["benchmark", "--graph", "g.el", *flags, "--methods", "leiden", "--runs", "2", "--out", "x"]) == 1
    assert capsys.readouterr().err == f"usage error: unrecognized arguments: {' '.join(flags)}\n"
    assert not list(workdir.glob("x.*"))


def test_benchmark_generate_spec(workdir, capsys):
    """`benchmark` reads its graph from --graph; it draws none from a
    generator spec."""
    _assert_unrecognized(workdir, capsys, ["--generate-spec", "planted:n=60,k=3,p_in=0.4,p_out=0.05"])


def test_benchmark_fresh_graphs(workdir, capsys):
    """`benchmark` runs every method on its one --graph; it draws no new
    graph per run."""
    _assert_unrecognized(workdir, capsys, ["--fresh-graphs"])


def test_config_file(workdir, capsys):
    """Flag values come from the command line or a replayed manifest; no
    option reads them from a file. Before the command, argparse takes the
    file's name for the command."""
    (workdir / "c.conf").write_text("runs=2\n")
    for flags in (["--config", "c.conf"], ["--config=c.conf"]):
        _assert_unrecognized(workdir, capsys, flags)
    assert main(["--config", "c.conf", "benchmark", "--graph", "g.el", "--methods", "leiden", "--out", "x"]) == 1
    assert capsys.readouterr().err.startswith("usage error: argument command: invalid choice: 'c.conf'")
    assert not list(workdir.glob("x.*"))


@pytest.mark.parametrize(
    "settings, message",
    [
        ({"methods": ""}, "--methods lists no method names"),
        ({"methods": ","}, "--methods lists no method names"),
        ({"methods": "leiden,leiden-hu,leiden"}, "--methods lists 'leiden' more than once"),
        ({"runs": "2,louvain=5"}, "--runs sets a count for 'louvain', which --methods does not list"),
    ],
    ids=["empty-methods", "comma-methods", "repeated-method", "runs-for-unlisted-method"],
)
def test_benchmark_refuses_input_it_would_ignore(workdir, capsys, settings, message):
    """A run count that would have no effect, a method list that names no
    method, or a repeated method whose rows the summary would fold into
    one, are usage errors, also on replay."""
    _make_graph(workdir, n=60, k=3, p_in=0.4, p_out=0.05)
    assert main(["benchmark", "--graph", "g.el", "--methods", "leiden,leiden-hu", "--runs", "2", "--out", "a"]) == 0
    manifest = json.loads((workdir / "a.manifest.json").read_text())
    config = {**manifest["config"], **settings}
    argv = ["benchmark", "--graph", "g.el", "--methods", config["methods"], "--runs", config["runs"], "--out", "b"]
    manifest["config"] = {**config, "out": "b"}
    (workdir / "old.manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    for run in (argv, ["--from-manifest", "old.manifest.json"]):
        assert main(run) == 1, run
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not list(workdir.glob("b.*"))


@pytest.mark.parametrize(
    "argv, outputs",
    [
        (["benchmark", "--graph", "g.el", "--methods", "leiden,louvain-hu,leiden-haar", "--runs", "3",
          "--iterations", "2"], ["runs.csv", "summary.json", "table.txt"]),
        (["mrg", "--graph", "g.el", "--nulls", "5", "--iterations", "2"], ["mrg.json"]),
    ],
    ids=["grid", "mrg"],
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


@pytest.mark.parametrize("cpus", [1, 2], ids=["inline", "pool"])
def test_benchmark_out_of_memory_is_a_data_error(workdir, capsys, monkeypatch, cpus):
    """A benchmark run that runs out of memory, in this process or in a
    worker, exits 2 like any other command and writes nothing. The
    allocation is patched to fail, not made."""
    _make_graph(workdir, n=60, k=3, p_in=0.4, p_out=0.05)
    before = sorted(workdir.iterdir())
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))

    def method_q(*_args, **_kwargs):
        raise MemoryError

    monkeypatch.setattr(qicd.bench, "method_q", method_q)
    capsys.readouterr()
    assert main(["benchmark", "--graph", "g.el", "--methods", "leiden,leiden-haar", "--runs", "2", "--out", "b"]) == 2
    assert capsys.readouterr().err == "benchmark: out of memory; no output was written\n"
    assert sorted(workdir.iterdir()) == before


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


def test_from_manifest_with_a_command_is_a_usage_error(workdir, capsys):
    """A replay runs its manifest's own command, so a command given beside
    --from-manifest is refused before anything is read or written."""
    _make_graph(workdir)
    assert main(["detect", "--graph", "g.el", "--method", "leiden", "--out", "d.csv"]) == 0
    before = {name: ((workdir / name).read_bytes(), (workdir / name).stat().st_mtime_ns)
              for name in ("d.csv", "d.manifest.json")}
    capsys.readouterr()
    argv = ["--from-manifest", "d.manifest.json", "detect", "--graph", "missing.el", "--method", "leiden",
            "--out", "zz.csv"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "--from-manifest" in err
    assert not list(workdir.glob("zz*"))
    assert before == {name: ((workdir / name).read_bytes(), (workdir / name).stat().st_mtime_ns) for name in before}


# Each retired config key: a value the code no longer runs, the commands
# that once had its flag, and that flag as it was spelled.
_RETIRED_RUNS = {
    "random_ties": (True, ["detect", "qicd", "mrg"], "--random-ties"),
    "init_mode": ("singleton", ["qicd", "benchmark", "mrg"], "--init-mode"),
    "max_levels": (5, ["detect", "qicd", "mrg"], "--max-levels"),
    "max_sweeps": (3, ["detect", "qicd", "mrg"], "--max-sweeps"),
    "min_gain": (1e-5, ["detect", "qicd", "mrg"], "--min-gain"),
    "resolution": (0.7, ["detect", "qicd", "mrg"], "--resolution"),
    "alpha": (1.5, ["qicd", "benchmark", "mrg"], "--alpha"),
    "fraction": (0.3, ["qicd", "benchmark", "mrg"], "--fraction"),
    "proposal_seeds": (7, ["qicd", "benchmark", "mrg"], "--seeds"),
    "swap_factor": (5.0, ["generate-rewire", "mrg"], "--swap-factor"),
    "calibration_runs": (2, ["generate-calibrated"], "--calibration-runs"),
    "generate_spec": ("planted:n=60,k=3,p_in=0.4,p_out=0.05", ["benchmark"], "--generate-spec"),
    "fresh_graphs": (True, ["benchmark"], "--fresh-graphs"),
}
_RETIRED_ARGV = {
    "generate-calibrated": ["generate", "calibrated", "--n", "150", "--k", "3", "--target-q", "0.5",
                            "--tolerance", "0.08", "--avg-degree", "10"],
    "generate-rewire": ["generate", "rewire", "--input", "g.el"],
    "detect": ["detect", "--graph", "g.el", "--method", "leiden"],
    "qicd": ["qicd", "--graph", "g.el", "--iterations", "2"],
    "benchmark": ["benchmark", "--graph", "g.el", "--methods", "leiden,leiden-haar", "--runs", "2",
                  "--iterations", "2"],
    "mrg": ["mrg", "--graph", "g.el", "--nulls", "5", "--iterations", "1"],
}


def _assert_retired(workdir, capsys, key, command):
    """`command` has no flag for the retired `key`, and a manifest of it
    that records the key is refused with nothing written unless it holds
    the one value the code now runs; then it replays unchanged."""
    other, _commands, flag = _RETIRED_RUNS[key]
    kept = _RETIRED[key]
    refused = (f"usage error: manifest sets {key} to {json.dumps(other)}, which is no longer supported; "
               "it cannot be replayed\n")
    if key == "init_mode":  # the message of older releases, byte for byte
        assert refused == ('usage error: manifest sets init_mode to "singleton", which is no longer supported; '
                           "it cannot be replayed\n")
    argv = _RETIRED_ARGV[command]
    for value in (other, kept):
        assert main([*argv, *([flag] if value is True else [flag, str(value)]), "--out", "r"]) == 1
    assert not list(workdir.glob("r.*"))
    assert main([*argv, "--seed", "3", "--out", "a"]) == 0
    manifest = json.loads((workdir / "a.manifest.json").read_text())
    assert key not in manifest["config"]
    for value, out, err in ((other, "s", refused), (kept, "q", "")):
        manifest["config"].update({key: value, "out": out})
        (workdir / "old.manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["--from-manifest", "old.manifest.json"]) == (1 if err else 0)
        assert capsys.readouterr().err == err
    assert not list(workdir.glob("s*"))
    for name, path in manifest["outputs"].items():
        if name != "achieved_q":  # calibrated records its Q beside its files
            assert _without_wall_clock(workdir / path) == _without_wall_clock(workdir / f"q{path[1:]}"), (command, name)


@pytest.mark.parametrize("key", [key for key in _RETIRED_RUNS if key != "init_mode"])
def test_retired_key(workdir, capsys, key):
    """A retired key's flag is gone from every command that had it, and its
    manifests replay only with the value the code now runs."""
    assert set(_RETIRED_RUNS) == set(_RETIRED)
    _make_graph(workdir, n=60, k=3, p_in=0.4, p_out=0.05)
    for command in _RETIRED_RUNS[key][1]:
        _assert_retired(workdir, capsys, key, command)


@pytest.mark.parametrize("command", _RETIRED_RUNS["init_mode"][1])
def test_init_mode_is_retired(workdir, capsys, command):
    """The loop always starts from its baseline partition: the flag is
    gone, a manifest whose loop started from singletons is refused with
    nothing written, and one whose loop started from its baseline replays
    unchanged."""
    assert _RETIRED_RUNS["init_mode"][0] == "singleton"
    assert _RETIRED["init_mode"] == "quick-leiden"
    _make_graph(workdir, n=60, k=3, p_in=0.4, p_out=0.05)
    _assert_retired(workdir, capsys, "init_mode", command)


def test_config_surface():
    """Every field of the configs that `qicd` runs is set by one of its
    flags, and no command has a flag for a retired key, which replay drops."""
    parser = build_parser()
    actions = [a for a in parser.commands["qicd"]._actions if a.default is not argparse.SUPPRESS]
    config = {a.dest: a.default for a in actions}
    fields = asdict(_qicd_config(config))
    assert sorted(fields) == ["base", "iterations", "kind", "refine_before_accept", "seed", "stall_limit"]
    set_by_flags = set()
    for a in actions:
        if a.nargs == 0:
            value = not a.default
        elif a.choices is not None:
            value = next(c for c in a.choices if c != a.default)
        elif a.type is int:
            value = 3 if a.default is None else a.default + 1
        elif a.type is float:
            value = a.default * 1.5
        else:
            continue  # --graph and --out name files
        changed = asdict(_qicd_config({**config, a.dest: value}))
        set_by_flags |= {key for key in fields if changed[key] != fields[key]}
    assert set_by_flags == set(fields)
    assert not {a.dest for p in parser.commands.values() for a in p._actions} & set(_RETIRED)
    # --seed s is the run's one seed, from which run_qicd derives the loop's.
    assert _qicd_config({**config, "seed": 5}).seed == 5


def _misspelled_flags(parser) -> list[str]:
    """`dest: flags` for each flag of `parser` but --help whose only
    spelling is not -- plus its destination with - for _."""
    return [f"{a.dest}: {', '.join(a.option_strings)}" for a in parser._actions
            if a.dest != "help" and a.option_strings != [f"--{a.dest.replace('_', '-')}"]]


def test_every_flag_is_spelled_from_its_destination():
    """A replayed manifest sets each flag by its destination, so every
    flag of every command is spelled from it; a flag with a custom
    destination breaks the rule."""
    for command, parser in build_parser().commands.items():
        assert _misspelled_flags(parser) == [], command
    custom = _Parser()
    custom.add_argument("--swaps", dest="swap_factor")
    custom.add_argument("-s", "--seed")
    assert _misspelled_flags(custom) == ["swap_factor: --swaps", "seed: -s, --seed"]


@pytest.mark.parametrize(
    "fault, message",
    [
        ("config-lacks-graph", "config of manifest old.manifest.json: the following arguments are required: --graph"),
        ("lacks-command", "manifest old.manifest.json lacks 'command'"),
        ("json-list", "manifest old.manifest.json is not a JSON object"),
        ("unknown-command", "manifest names unknown command 'cluster'"),
        ("not-json", "manifest old.manifest.json is not JSON: Expecting property name enclosed in double quotes"),
        ("not-utf8", "manifest old.manifest.json is not UTF-8: 'utf-8' codec can't decode byte 0xff"),
    ],
    ids=["config-lacks-graph", "lacks-command", "json-list", "unknown-command", "not-json", "not-utf8"],
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
    elif fault == "unknown-command":
        manifest["command"] = "cluster"
    elif fault == "json-list":
        manifest = [manifest]
    text = json.dumps(manifest).encode()
    if fault == "not-json":
        text = text.replace(b'"', b"'")
    elif fault == "not-utf8":
        text = b"\xff" + text
    (workdir / "old.manifest.json").write_bytes(text)
    capsys.readouterr()
    assert main(["--from-manifest", "old.manifest.json"]) == 1
    assert f"usage error: {message}" in capsys.readouterr().err
    assert not (workdir / "q.csv").exists()


_PLANTED = ["generate", "planted", "--n", "60", "--k", "3", "--p-in", "0.4", "--p-out", "0.05"]
_BENCHMARK = ["benchmark", "--graph", "g.el", "--methods", "leiden", "--runs", "2"]


@pytest.mark.parametrize(
    "argv, key, value, expected",
    [
        (_PLANTED, "n", 60.9, ": argument --n: invalid int value: '60.9'"),
        (_PLANTED, "n", "60", ' sets \'n\' to "60", which --n reads as 60'),
        (_PLANTED, "n", True, ": argument --n: invalid int value: 'true'"),
        (["generate", "clique-ring", "--cliques", "4", "--size", "3"], "cliques", 4.5,
         ": argument --cliques: invalid int value: '4.5'"),
        (["detect", "--graph", "g.el", "--method", "leiden"], "method", "bogus",
         ": argument --method: invalid choice: 'bogus'"),
        (["detect", "--graph", "g.el", "--method", "leiden"], "graph", None,
         ": the following arguments are required: --graph"),
        (["qicd", "--graph", "g.el", "--iterations", "1"], "refine_before_accept", 1,
         ": argument --refine-before-accept: ignored explicit argument '1'"),
        (_BENCHMARK, "runs", 2, ' sets \'runs\' to 2, which --runs reads as "2"'),
        (["detect", "--graph", "g.el", "--method", "leiden"], "relabel", "true",
         ' sets \'relabel\' to "true", which --relabel reads as true'),
        # NaN != NaN, and no float flag's consumer accepts one.
        (_PLANTED, "p_in", float("nan"), " sets 'p_in' to NaN, which --p-in reads as NaN"),
        # --runs takes a string, so a string replays.
        (_BENCHMARK, "runs", "2", None),
        (_PLANTED, "p_in", 1, None),
    ],
    ids=["planted-float-n", "planted-string-n", "planted-bool-n", "clique-ring-float", "detect-choice",
         "detect-null-graph", "qicd-int-flag", "benchmark-int-runs", "detect-string-relabel", "planted-nan-p-in",
         "benchmark-string-runs", "planted-int-p-in"],
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
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: config of manifest old.manifest.json{expected}") and err.count("\n") == 1
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


# One run of every command, writing every kind of output file.
_EVERY_COMMAND = pytest.mark.parametrize(
    "argv",
    [
        [*_PLANTED, "--out", "planted.el"],
        ["generate", "calibrated", "--n", "150", "--k", "3", "--target-q", "0.5", "--tolerance", "0.08",
         "--avg-degree", "10", "--out", "calibrated.el"],
        ["generate", "clique-ring", "--cliques", "4", "--size", "3", "--out", "ring.el"],
        ["generate", "rewire", "--input", "g.el", "--out", "rewired.el"],
        ["detect", "--graph", "g.el", "--relabel", "--method", "leiden", "--out", "labelled.csv"],
        ["qicd", "--graph", "g.el", "--iterations", "2", "--out", "refined"],
        [*_BENCHMARK, "--out", "bench"],
        ["mrg", "--graph", "g.el", "--nulls", "5", "--iterations", "2", "--out", "sig"],
    ],
    ids=["planted", "calibrated", "clique-ring", "rewire", "detect-relabel", "qicd", "benchmark", "mrg"],
)


@_EVERY_COMMAND
def test_manifest_lists_every_file(workdir, capsys, argv):
    _make_graph(workdir, n=60, k=3, p_in=0.4, p_out=0.05)
    assert main(argv) == 0
    stem = Path(argv[-1]).stem
    manifest = json.loads((workdir / f"{stem}.manifest.json").read_text())
    files = {path for key, path in manifest["outputs"].items() if key != "achieved_q"}
    assert {p.name for p in workdir.glob(f"{stem}.*")} == files | {f"{stem}.manifest.json"}


@_EVERY_COMMAND
def test_a_failed_write_leaves_every_older_file_as_it_was(workdir, capsys, monkeypatch, argv):
    """Each output, then the manifest, is written to a temporary file beside
    it, and none replaces its file until all are written. A write that
    fails at the k-th file, for every k, exits 2 naming that file, leaves no
    temporary file, and leaves the older files at those paths as they were."""
    _make_graph(workdir, n=60, k=3, p_in=0.4, p_out=0.05)
    assert main(argv) == 0
    stem = Path(argv[-1]).stem
    files = sorted(path.name for path in workdir.glob(f"{stem}.*"))
    for name in files:
        (workdir / name).write_text(f"older {name}\n")
    before = {path.name: path.read_bytes() for path in workdir.iterdir()}
    write_text = qicd.cli._write_text
    for k in range(1, len(files) + 1):
        calls = []

        def failing_write_text(path, text):
            calls.append(Path(path).name)
            if len(calls) == k:
                raise OSError(errno.EFBIG, os.strerror(errno.EFBIG))
            write_text(path, text)

        monkeypatch.setattr(qicd.cli, "_write_text", failing_write_text)
        capsys.readouterr()
        assert main(argv) == 2
        failed = max((name for name in files if calls[-1].startswith(name + ".")), key=len)
        assert capsys.readouterr().err == f"cannot write {failed}: {os.strerror(errno.EFBIG)}\n"
        assert {path.name: path.read_bytes() for path in workdir.iterdir()} == before
    assert len(calls) == len(files) and failed == f"{stem}.manifest.json"  # the manifest is written last


def _without_wall_clock(path: Path) -> str:
    """A file's text less its wall-clock fields: a manifest's
    duration_seconds line and a trace's millis column."""
    text = path.read_text()
    if path.name.endswith(".trace.csv"):
        return "\n".join(line.rsplit(",", 1)[0] for line in text.splitlines())
    return re.sub(r'\n *"duration_seconds": [^\n]*', "", text)


@_EVERY_COMMAND
def test_replay_is_a_fixed_point(workdir, capsys, argv):
    """Replaying a manifest rewrites it, wall clock aside. A replayed
    config lacking an optional key reads it as the command line does: the
    flag's default, which the new manifest records, and which writes the
    same files when the key held that default; a seedless one runs at seed
    0. Lacking a required key, it is a usage error."""
    _make_graph(workdir, n=60, k=3, p_in=0.4, p_out=0.05)
    assert main(argv) == 0
    stem = Path(argv[-1]).stem
    path = workdir / f"{stem}.manifest.json"
    written = _without_wall_clock(path)
    assert main(["--from-manifest", path.name]) == 0
    assert _without_wall_clock(path) == written
    manifest = json.loads(written)
    command, config = manifest["command"], manifest["config"]
    outputs = {name: file for name, file in manifest["outputs"].items() if name != "achieved_q"}
    for action in build_parser().commands[command]._actions:
        key = action.dest
        if key == "help":
            continue
        out = f"{stem}-{key}"
        lacking = {k: v for k, v in config.items() if k != key}
        if key != "out":
            lacking["out"] = out
        (workdir / "old.manifest.json").write_text(json.dumps({**manifest, "config": lacking}))
        before = sorted(workdir.iterdir())
        capsys.readouterr()
        error = None
        if action.required:
            (flag,) = action.option_strings
            error = f"config of manifest old.manifest.json: the following arguments are required: {flag}"
        if error is not None:
            assert main(["--from-manifest", "old.manifest.json"]) == 1, key
            assert capsys.readouterr().err == f"usage error: {error}\n"
            assert sorted(workdir.iterdir()) == before
            continue
        assert main(["--from-manifest", "old.manifest.json"]) == 0, key
        replayed = json.loads((workdir / f"{out}.manifest.json").read_text())
        # benchmark records the baseline it chose in place of None.
        assert replayed["config"][key] == (config[key] if key == "baseline" else action.default), key
        assert replayed["config"].get("seed") == (0 if key == "seed" else config.get("seed"))
        if config[key] == action.default:
            for name, old in outputs.items():
                new = replayed["outputs"][name]
                assert _without_wall_clock(workdir / new) == _without_wall_clock(workdir / old), (key, name)


@pytest.mark.parametrize(
    "argv",
    [[], ["generate"], *(["generate", kind] for kind in _GENERATE),
     *([command] for command in ("detect", "qicd", "benchmark", "mrg"))],
    ids=lambda argv: " ".join(argv) or "qicd",
)
def test_every_help_text_prints(capsys, argv):
    """Each parser's --help formats its help strings (a stray % would
    raise) and exits 0."""
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args([*argv, "--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: {' '.join(['qicd', *argv])} ")


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
