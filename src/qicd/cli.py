"""Command-line front end.

Subcommands: generate (planted | calibrated | clique-ring | rewire),
detect, qicd, benchmark, mrg. Every command writes a manifest with the
fully resolved configuration and every file it wrote; re-running with
--from-manifest reproduces the result files byte for byte. Exit status 0
on success, 1 for usage errors, 2 for data or domain errors; a command
that fails writes nothing.

A runner returns (inputs, files, recorded, message): `files` maps each
output key to (path, text), `recorded` holds outputs that are not files and
`message` is the stdout text; `main` writes the files, manifest and message.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import os
import sys
import time
from concurrent.futures import BrokenExecutor
from dataclasses import replace
from functools import partial
from itertools import takewhile
from pathlib import Path

from . import __version__
from .bench import (
    METHODS,
    PlantedSpec,
    calibrate_planted,
    clique_ring_truth,
    degree_preserving_rewire,
    generate_planted,
    mrg_significance,
    ring_of_cliques,
    run_experiment,
)
from .detect import DetectorConfig, leiden, louvain
from .engine import (
    BASE_METHODS, INIT_MODES, KIND_NAMES, QicdConfig, draws_weights, result_to_json, run_qicd, trace_to_csv,
)
from .graph import dump_edge_list, load_edge_list
from .partition import labels_to_csv, modularity, partition_to_csv
from .rng import RNG_NAME, mix
from .stats import summarize, welch_t_test

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
# Exceptions that mean bad data or a domain error: exit 2 with the message.
DATA_ERRORS = (ValueError, ArithmeticError, OSError, KeyError)

# Runs per benchmark method when --runs names no count for it.
BENCHMARK_RUNS = 6

# Flag defaults, and the values of keys that a manifest lacks, come from the
# config dataclasses and the library functions' own defaults; the CLI
# restates none of them. The maps below send manifest keys to field names.
_QICD = QicdConfig()
_DETECTOR_KEYS = {k: k for k in ("max_levels", "min_gain", "resolution")}
_DETECTOR_KEYS["max_sweeps"] = "max_sweeps_per_level"
_HU_KEYS = {"alpha": "skew_factor", "fraction": "reassign_fraction"}
_QICD_KEYS = {k: k for k in ("kind", "proposal_seeds", "iterations", "stall_limit", "init_mode", "base",
                             "refine_before_accept")}


class UsageError(Exception):
    pass


class _ManifestPart(dict):
    """A replayed manifest or its config: reading a key it lacks is a usage
    error naming the file, while KeyErrors from deeper code stay data errors."""

    def __init__(self, data, where: str):
        if not isinstance(data, dict):
            raise UsageError(f"{where} is not a JSON object")
        super().__init__(data)
        self.where = where

    def __missing__(self, key):
        raise UsageError(f"{self.where} lacks {key!r}")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # No prefix matching: a retired flag such as benchmark's --base must
        # be rejected, not read as --baseline.
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise UsageError(message)


def _check_replayed_types(config: _ManifestPart, command_parser: argparse.ArgumentParser) -> _ManifestPart:
    """The replayed config, less the keys that no flag of the command
    defines (older manifests hold retired ones), after refusing a value
    that the command's flag could not have given: its type (an int is not a
    bool, a float may be an int), a store_true flag's bool, and its
    choices. An optional flag whose default is None may be null."""
    actions = {a.dest: a for a in command_parser._actions}
    kept = _ManifestPart({key: value for key, value in config.items() if key in actions}, config.where)
    for key, value in kept.items():
        action = actions[key]
        if value is None and action.default is None and not action.required:
            continue
        if action.nargs == 0:
            expected, ok = "true or false", type(value) is bool
        elif action.type is int:
            expected, ok = "an int", type(value) is int
        elif action.type is float:
            expected, ok = "a number", type(value) in (int, float)
        else:
            expected, ok = "a string", type(value) is str
        if ok and action.choices is not None and value not in action.choices:
            expected, ok = f"one of {', '.join(action.choices)}", False
        if not ok:
            raise UsageError(f"{config.where} sets {key!r} to {json.dumps(value)}; expected {expected}")
    return kept


def _out(config: dict, suffix: str | None = None) -> str:
    """The path --out names, or, given a suffix, its stem with the suffix."""
    out = Path(config["out"])
    if suffix is None:
        return str(out)
    return str(out.with_suffix("") if out.suffix else out) + suffix


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _load_graph(config: dict, key: str = "graph"):
    """The graph that config[key] names (--graph by default), and the files
    that loading it adds: with --relabel, the .labels.csv sidecar."""
    relabel = config.get("relabel", False)
    with open(config[key], "rb") as fh:
        loaded = load_edge_list(fh, merge_duplicates=config.get("merge_duplicates", False), relabel=relabel)
    if not relabel:
        return loaded, {}
    graph, labels = loaded
    text = io.StringIO()  # csv quotes a label that holds "," or '"'
    csv.writer(text, lineterminator="\n").writerows([("node_id", "label"), *enumerate(labels)])
    return graph, {"labels": (_out(config, ".labels.csv"), text.getvalue())}


def _write_manifest(command: str, config: dict, inputs: dict, outputs: dict, started: float) -> None:
    manifest = {
        "command": command,
        "tool": "qicd",
        "version": __version__,
        "rng": RNG_NAME,
        "base_seed": config.get("seed"),
        "config": config,
        "inputs": inputs,
        "outputs": outputs,
        "duration_seconds": time.perf_counter() - started,
    }
    _write_text(_out(config, ".manifest.json"), json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _default(fn, name: str):
    """The default of fn's parameter `name`."""
    return inspect.signature(fn).parameters[name].default


def _pick(config: dict, keys: dict[str, str]) -> dict:
    """The fields or keyword arguments, named through `keys`, that config
    sets; a key that config lacks keeps its default."""
    return {field: config[key] for key, field in keys.items() if key in config}


def _detector_from(config: dict) -> DetectorConfig:
    return DetectorConfig(seed=config["seed"], **_pick(config, _DETECTOR_KEYS))


def _qicd_config(config: dict) -> QicdConfig:
    if config.get("proposal_seeds") is not None and not draws_weights(config.get("kind", _QICD.kind)):
        raise UsageError("--seeds has no effect with --kind hu, which draws no weights")
    return replace(
        _QICD,
        hu=replace(_QICD.hu, **_pick(config, _HU_KEYS)),
        detector=_detector_from(config),
        seed=mix(config["seed"], 1),
        **_pick(config, _QICD_KEYS),
    )


# ---------------------------------------------------------------- generate


# The generators that build a graph from numbers. `generate <kind>` and
# `benchmark --generate-spec kind:key=value,...` both read their flags here:
# help text, then each flag's destination and type. Every flag is required
# but calibrated's optional ones, which take calibrate_planted's defaults.
_GENERATORS = {
    "planted": ("planted-partition graph", {"n": int, "k": int, "p_in": float, "p_out": float}),
    "calibrated": (
        "planted graph calibrated to a target Leiden Q",
        {"n": int, "k": int, "target_q": float, "tolerance": float, "avg_degree": float, "calibration_runs": int},
    ),
    "clique-ring": ("ring of cliques control graph", {"cliques": int, "size": int}),
}
# Calibrated's optional flags, sent to calibrate_planted's parameters.
_CALIBRATION_KEYS = {"tolerance": "tolerance", "avg_degree": "avg_degree", "calibration_runs": "runs"}


def _generate(kind: str, params: dict, seed: int):
    """The graph of a `_GENERATORS` kind, its truth labels, and what the
    manifest records besides: calibrated's p_in, p_out and achieved Q."""
    if kind == "clique-ring":
        cliques, size = params["cliques"], params["size"]
        return ring_of_cliques(cliques, size), clique_ring_truth(cliques, size), {}
    if kind == "planted":
        spec, found = PlantedSpec(params["n"], params["k"], params["p_in"], params["p_out"], seed), {}
    else:
        spec, achieved = calibrate_planted(params["n"], params["k"], params["target_q"], seed=seed,
                                           **_pick(params, _CALIBRATION_KEYS))
        found = {"p_in": spec.p_in, "p_out": spec.p_out, "achieved_q": achieved}
    graph, truth = generate_planted(spec)
    return graph, truth, found


def _run_generate(kind: str, config: dict):
    graph, truth, found = _generate(kind, config, config["seed"])
    recorded = {"achieved_q": found.pop("achieved_q")} if "achieved_q" in found else {}
    config.update(found)  # the manifest records calibrated's p_in and p_out
    files = {"graph": (_out(config), dump_edge_list(graph)), "truth": (_out(config, ".truth.csv"), labels_to_csv(truth))}
    detail = (f"achieved Q={recorded['achieved_q']:.4f}, p_in={config['p_in']:.6g}, p_out={config['p_out']:.6g}"
              if recorded else f"n={graph.node_count}, m={graph.total_weight:g}")
    return {}, files, recorded, f"wrote {config['out']} ({detail})\n"


def _run_generate_rewire(config: dict):
    graph, _files = _load_graph(config, "input")
    swap_factor = config.get("swap_factor", _default(degree_preserving_rewire, "swap_factor"))
    rewired = degree_preserving_rewire(graph, swap_factor, config["seed"])
    message = f"wrote {config['out']} (n={rewired.node_count}, m={rewired.total_weight:g})\n"
    return {"graph": config["input"]}, {"graph": (_out(config), dump_edge_list(rewired))}, {}, message


# ------------------------------------------------------------------ detect


def _run_detect(config: dict):
    graph, files = _load_graph(config)
    det = _detector_from(config)
    part = louvain(graph, det) if config["method"] == "louvain" else leiden(graph, det)
    q = modularity(graph, part, det.resolution)
    files["partition"] = (_out(config), partition_to_csv(part))
    return {"graph": config["graph"]}, files, {}, f"Q={q:.6f}\n"


# ------------------------------------------------------------------- qicd


def _run_qicd_cmd(config: dict):
    cfg = _qicd_config(config)
    graph, files = _load_graph(config)
    result = run_qicd(graph, cfg)
    envelope = result_to_json(result, cfg)
    envelope["graph"] = config["graph"]
    files["partition"] = (_out(config, ".partition.csv"), partition_to_csv(result.best_partition))
    files["trace"] = (_out(config, ".trace.csv"), trace_to_csv(result.trace))
    files["result"] = (_out(config, ".json"), json.dumps(envelope, indent=2, sort_keys=True) + "\n")
    message = f"Q*={result.q_star:.6f} baseline={result.q_baseline:.6f} MRG={result.mrg:.6f}\n"
    return {"graph": config["graph"]}, files, {}, message


# -------------------------------------------------------------- benchmark


def _parse_runs_spec(spec: str, methods: list[str]) -> dict[str, int]:
    default = BENCHMARK_RUNS
    overrides: dict[str, int] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, eq, count = part.partition("=")
        if eq and name not in METHODS:
            raise UsageError(f"unknown method in --runs: {name!r}")
        if eq and name not in methods:
            raise UsageError(f"--runs sets a count for {name!r}, which --methods does not list")
        try:
            value = int(count if eq else part)
        except ValueError:
            raise UsageError(f"bad --runs entry {part!r}; expected a count or method=count") from None
        if eq:
            overrides[name] = value
        else:
            default = value
    return {m: overrides.get(m, default) for m in methods}


def _parse_generate_spec(text: str) -> tuple[str, dict]:
    """A `kind:key=value,...` spec: its keys are the `generate <kind>`
    destinations, and each value is converted with its flag's type."""
    head, _, rest = text.partition(":")
    head = head.strip()
    if head not in _GENERATORS:
        raise UsageError(f"unknown --generate-spec type {head!r}; expected one of {', '.join(_GENERATORS)}")
    flags = _GENERATORS[head][1]
    takes = f"{head} takes {', '.join(flags)}"
    params: dict = {}
    for item in rest.split(","):
        item = item.strip()
        if not item:
            continue
        key, _, value = item.partition("=")
        key = key.strip().replace("-", "_")
        if key not in flags:
            raise UsageError(f"unknown --generate-spec key {key!r}; {takes}")
        try:
            params[key] = flags[key](value)
        except ValueError:
            raise UsageError(f"bad --generate-spec entry {item!r}; invalid {flags[key].__name__} value") from None
    for key in flags:
        if key not in params and key not in _CALIBRATION_KEYS:
            raise UsageError(f"--generate-spec is missing {key!r}; {takes}")
    return head, params


def _render_table(rows: list[dict], baseline: str) -> str:
    header = f"{'Method':<18}{'Runs':>5}  {'Mean±Std':<16}{'95% CI':<20}{'p':<10}"
    lines = [header, "-" * len(header)]
    for row in rows:
        ci = f"[{row['ci_low']:.4f}, {row['ci_high']:.4f}]"
        if row["p_vs_baseline"] is None:
            p_text = "--"
        else:
            mark = " *" if row["p_vs_baseline"] < 0.05 else ""
            p_text = f"{row['p_vs_baseline']:.4f}{mark}"
        lines.append(
            f"{row['method']:<18}{row['n']:>5}  "
            f"{row['mean']:.4f}±{row['std']:.4f}   "
            f"{ci:<20}{p_text:<10}"
        )
    lines.append("")
    lines.append(f"baseline: {baseline}; * marks p < 0.05")
    return "\n".join(lines) + "\n"


def _run_benchmark(config: dict):
    # Checked here, not in the parser, so that replayed manifests meet them too.
    if bool(config.get("graph")) == bool(config.get("generate_spec")):
        raise UsageError("benchmark needs exactly one of --graph or --generate-spec")
    for key in ("relabel", "merge_duplicates"):
        if config.get("generate_spec") and config.get(key):
            raise UsageError(f"--{key.replace('_', '-')} applies to --graph, not to --generate-spec")
    kind, params = _parse_generate_spec(config["generate_spec"]) if config.get("generate_spec") else (None, {})
    if config.get("fresh_graphs") and kind in (None, "clique-ring"):
        raise UsageError("--fresh-graphs needs a randomized generator spec")
    methods = [m.strip() for m in config["methods"].split(",") if m.strip()]
    if not methods:
        raise UsageError("--methods lists no method names")
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise UsageError(f"unknown method names: {', '.join(unknown)}")
    repeated = [m for i, m in enumerate(methods) if m in methods[:i]]
    if repeated:
        raise UsageError(f"--methods lists {repeated[0]!r} more than once")
    proposals = [METHODS[m][1] for m in methods if METHODS[m][1] is not None]
    if config.get("proposal_seeds") is not None and not any(map(draws_weights, proposals)):
        raise UsageError("--seeds has no effect: --methods lists only plain and hu methods, which draw no weights")
    runs = _parse_runs_spec(config["runs"], methods)
    for name, count in runs.items():
        if count < 2:
            raise UsageError(f"method {name!r} needs at least 2 runs for statistics, got {count}")
    baseline = config.get("baseline")
    if baseline is None:
        # leiden, unless a method list omits it: then the first plain method
        # it lists. The manifest records the name chosen.
        plain = [m for m in methods if METHODS[m][1] is None]
        baseline = plain[0] if len(methods) > 1 and "leiden" not in methods and plain else "leiden"
        config["baseline"] = baseline
    if len(methods) > 1 and baseline not in methods:
        raise UsageError(f"baseline {baseline!r} must be one of --methods")

    seed = config["seed"]
    if kind is None:
        source, files = _load_graph(config)
        inputs = {"graph": config["graph"]}
    else:
        inputs, files = {"generate_spec": config["generate_spec"]}, {}
        if config.get("fresh_graphs"):
            source = lambda s: _generate(kind, params, s)[0]
        else:
            source = _generate(kind, params, mix(seed, 71))[0]

    try:
        samples = run_experiment(source, runs, seed, cfg=_qicd_config(config))
    except RuntimeError as exc:
        # The message names the failed method and run.
        if isinstance(exc.__cause__, DATA_ERRORS):
            raise ValueError(str(exc)) from exc
        raise

    lines = ["method,run,seed,Q"]
    for sample in samples:
        for run_idx, (q, run_seed) in enumerate(zip(sample.q_values, sample.seeds)):
            lines.append(f"{sample.method},{run_idx},{run_seed},{q!r}")
    files["runs"] = (_out(config, ".runs.csv"), "\n".join(lines) + "\n")

    by_name = {s.method: s for s in samples}
    base_sample = by_name.get(baseline)
    rows = []
    for sample in samples:
        stats = summarize(sample.q_values)
        p_value = None
        if base_sample is not None and sample.method != baseline:
            p_value = welch_t_test(sample.q_values, base_sample.q_values).p
        rows.append(
            {
                "method": sample.method,
                "n": stats.n,
                "mean": stats.mean,
                "std": stats.std,
                "ci_low": stats.ci_low,
                "ci_high": stats.ci_high,
                "p_vs_baseline": p_value,
            }
        )
    rows.sort(key=lambda r: -r["mean"])

    summary = {
        "baseline": baseline,
        "methods": {
            row["method"]: {k: v for k, v in row.items() if k != "method"} for row in rows
        },
    }
    files["summary"] = (_out(config, ".summary.json"), json.dumps(summary, indent=2, sort_keys=True) + "\n")
    table = _render_table(rows, baseline)
    files["table"] = (_out(config, ".table.txt"), table)
    return inputs, files, {}, table


# -------------------------------------------------------------------- mrg


def _run_mrg(config: dict):
    nulls = config.get("nulls", _default(mrg_significance, "null_count"))
    swap_factor = config.get("swap_factor", _default(mrg_significance, "swap_factor"))
    if nulls < 5:
        raise UsageError("--nulls must be at least 5")
    cfg = _qicd_config(config)
    graph, files = _load_graph(config)
    report = mrg_significance(graph, cfg, nulls, seed=mix(config["seed"], 2), swap_factor=swap_factor)
    payload = {
        "observed_mrg": report.observed,
        "null_mean": report.null_mean,
        "null_std": report.null_std,
        "percentile": report.percentile,
        "null_gaps": list(report.null_gaps),
        "null_count": nulls,
        "swap_factor": swap_factor,
    }
    files["report"] = (_out(config, ".mrg.json"), json.dumps(payload, indent=2, sort_keys=True) + "\n")
    message = f"MRG={report.observed:.6f} null_mean={report.null_mean:.6f} percentile={report.percentile:.1f}\n"
    return {"graph": config["graph"]}, files, {}, message


RUNNERS = {
    **{f"generate-{kind}": partial(_run_generate, kind) for kind in _GENERATORS},
    "generate-rewire": _run_generate_rewire,
    "detect": _run_detect,
    "qicd": _run_qicd_cmd,
    "benchmark": _run_benchmark,
    "mrg": _run_mrg,
}


# ------------------------------------------------------------ CLI parsing


def _add_graph_input(p: _Parser, required: bool = True) -> None:
    p.add_argument("--graph", required=required, help="edge-list file")
    p.add_argument("--merge-duplicates", action="store_true", help="sum duplicate edges instead of rejecting")
    p.add_argument("--relabel", action="store_true", help="accept arbitrary node labels; writes a .labels.csv sidecar")


def _add_detector_flags(p: _Parser) -> None:
    det = DetectorConfig()
    p.add_argument("--max-levels", type=int, default=det.max_levels)
    p.add_argument("--max-sweeps", type=int, default=det.max_sweeps_per_level)
    p.add_argument("--min-gain", type=float, default=det.min_gain)
    p.add_argument("--resolution", type=float, default=det.resolution)


def _add_qicd_flags(p: _Parser, *, kind_and_base: bool = True) -> None:
    """QICD flags; `benchmark` omits --kind and --base, which each of its
    method names sets."""
    if kind_and_base:
        p.add_argument("--kind", choices=KIND_NAMES, default=_QICD.kind)
        p.add_argument("--base", choices=BASE_METHODS, default=_QICD.base)
    p.add_argument("--iterations", type=int, default=_QICD.iterations)
    p.add_argument("--seeds", dest="proposal_seeds", type=int, default=_QICD.proposal_seeds,
                   help="proposal seed count K (default: ceil(sqrt(n)))")
    p.add_argument("--alpha", type=float, default=_QICD.hu.skew_factor, help="oversize threshold factor")
    p.add_argument("--fraction", type=float, default=_QICD.hu.reassign_fraction, help="reassignment fraction")
    p.add_argument("--stall-limit", type=int, default=_QICD.stall_limit)
    p.add_argument("--init-mode", choices=INIT_MODES, default=_QICD.init_mode)
    p.add_argument("--refine-before-accept", action="store_true",
                   help="polish proposals with a full seeded pass before the acceptance check")


def build_parser(default_seed: int) -> _Parser:
    parser = _Parser(prog="qicd", description="Community detection with quantum-inspired refinement")
    parser.add_argument("--from-manifest", help="re-run a command from its manifest file")
    parser.add_argument("--config", help="key=value defaults file (flags override)")
    parser.add_argument("--version", action="version", version=f"qicd {__version__}")
    sub = parser.add_subparsers(dest="command")

    gen = sub.add_parser("generate", help="write synthetic graphs")
    gen_sub = gen.add_subparsers(dest="generator")

    for kind, (text, flags) in _GENERATORS.items():
        g = gen_sub.add_parser(kind, help=text)
        for dest, type_ in flags.items():
            flag = f"--{dest.replace('_', '-')}"
            if dest in _CALIBRATION_KEYS:
                g.add_argument(flag, type=type_, default=_default(calibrate_planted, _CALIBRATION_KEYS[dest]))
            else:
                g.add_argument(flag, type=type_, required=True)

    g_rw = gen_sub.add_parser("rewire", help="degree-preserving rewiring of an existing graph")
    g_rw.add_argument("--input", required=True)
    g_rw.add_argument("--swap-factor", type=float, default=_default(degree_preserving_rewire, "swap_factor"))
    g_rw.add_argument("--merge-duplicates", action="store_true")

    det = sub.add_parser("detect", help="run a classical detector")
    _add_graph_input(det)
    det.add_argument("--method", choices=BASE_METHODS, required=True)
    _add_detector_flags(det)

    qic = sub.add_parser("qicd", help="run the quantum-inspired refinement loop")
    _add_graph_input(qic)
    _add_qicd_flags(qic)
    _add_detector_flags(qic)

    ben = sub.add_parser("benchmark", help="multi-method experiment with statistics")
    _add_graph_input(ben, required=False)
    ben.add_argument("--generate-spec", help="e.g. planted:n=1000,k=10,p_in=0.05,p_out=0.02")
    ben.add_argument("--fresh-graphs", action="store_true", help="new graph per run (with --generate-spec)")
    ben.add_argument("--methods", required=True, help="comma list of method names")
    ben.add_argument("--runs", default=str(BENCHMARK_RUNS), help="run count, with name=count overrides")
    ben.add_argument("--baseline", help="default: leiden, or the first plain method if --methods omits it")
    _add_qicd_flags(ben, kind_and_base=False)

    mrg_p = sub.add_parser("mrg", help="MRG significance against rewired null graphs")
    _add_graph_input(mrg_p)
    mrg_p.add_argument("--nulls", type=int, default=_default(mrg_significance, "null_count"))
    mrg_p.add_argument("--swap-factor", type=float, default=_default(mrg_significance, "swap_factor"))
    _add_qicd_flags(mrg_p)
    _add_detector_flags(mrg_p)

    # Each command's parser, by the command name that manifests record.
    parser.commands = {
        **{f"generate-{kind}": p for kind, p in gen_sub.choices.items()},
        **{name: p for name, p in sub.choices.items() if name != "generate"},
    }
    for p in parser.commands.values():
        p.add_argument("--seed", type=int, default=default_seed)
        p.add_argument("--out", required=True)
    return parser


def _config_from_args(args: argparse.Namespace) -> tuple[str, dict]:
    """The command and its config: every destination of the chosen
    subparser."""
    config = dict(vars(args))
    command = config.pop("command")
    generator = config.pop("generator", None)
    del config["from_manifest"], config["config"]
    if command == "generate":
        if generator is None:
            raise UsageError(f"generate requires a subcommand: {' | '.join([*_GENERATORS, 'rewire'])}")
        command = f"generate-{generator}"
    elif command is None:
        raise UsageError("a command is required; see --help")
    return command, config


def _inject_config_file(argv: list[str], parser: _Parser) -> list[str]:
    """Splice key=value defaults from --config in after the command tokens,
    so that explicit flags win. A store_true flag reads true or false as on
    or off; every other line becomes --key=value, for argparse to check."""
    finder = _Parser(add_help=False)
    finder.add_argument("--config")
    found, argv = finder.parse_known_args(argv)
    if found.config is None:
        return argv
    switches = {flag for p in parser.commands.values() for a in p._actions
                if isinstance(a, argparse._StoreTrueAction) for flag in a.option_strings}
    extra: list[str] = []
    with open(found.config, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            flag = "--" + key.strip().replace("_", "-")
            value = value.strip()
            if flag == "--" or not value:
                raise UsageError(f"bad config line: {raw.strip()!r}")
            if flag in switches and value.lower() in ("true", "false"):
                if value.lower() == "true":
                    extra.append(flag)
            else:
                extra.append(f"{flag}={value}")
    head = list(takewhile(lambda token: not token.startswith("-"), argv))
    return head + extra + argv[len(head):]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        default_seed = int(os.environ.get("QICD_SEED", "0"))
    except ValueError:
        print("error: QICD_SEED must be an integer", file=sys.stderr)
        return EXIT_USAGE
    try:
        parser = build_parser(default_seed)
        argv = _inject_config_file(argv, parser)
        args = parser.parse_args(argv)
        if args.from_manifest:
            with open(args.from_manifest, "r", encoding="utf-8") as fh:
                manifest = _ManifestPart(json.load(fh), f"manifest {args.from_manifest}")
            command = manifest["command"]
            if not isinstance(command, str) or command not in RUNNERS:
                raise UsageError(f"manifest names unknown command {command!r}")
            config = _ManifestPart(manifest["config"], f"config of manifest {args.from_manifest}")
            if config.get("random_ties"):
                # Ties now always go to the lowest community id; replaying
                # under that rule would not reproduce the recorded run.
                raise UsageError("manifest sets random_ties, which is no longer supported; it cannot be replayed")
            config = _check_replayed_types(config, parser.commands[command])
        else:
            command, config = _config_from_args(args)
        started = time.perf_counter()
        inputs, files, recorded, message = RUNNERS[command](config)
        for path, text in files.values():
            _write_text(path, text)
        outputs = {key: path for key, (path, _text) in files.items()} | recorded
        _write_manifest(command, config, inputs, outputs, started)
        sys.stdout.write(message)
        return EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        return EXIT_OK
    except BrokenExecutor:
        # The pool cannot tell which run the dead worker held.
        print("a worker process died before the runs finished; no output was written", file=sys.stderr)
        return EXIT_DATA
    except DATA_ERRORS as exc:
        message = str(exc) or exc.__class__.__name__
        print(message, file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
