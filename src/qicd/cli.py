"""Command-line front end.

Subcommands: generate (planted | calibrated | clique-ring | rewire),
detect, qicd, benchmark, mrg. Every command writes a manifest with the
fully resolved configuration and every file it wrote; re-running with
--from-manifest reproduces the result files byte for byte. Exit status 0
on success, 1 for usage errors, 2 for data or domain errors; a command
that fails writes nothing.

`_OUTPUTS` names each command's output files. `main` resolves their paths
and refuses a bad one before the command computes; the runner returns
(texts, recorded, message): `texts` maps each output key to its file's
text, `recorded` holds outputs that are not files and `message` is the
stdout text. `main` then writes the files, manifest and message.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import sys
import time
from concurrent.futures import BrokenExecutor
from dataclasses import asdict, replace
from functools import partial
from pathlib import Path

from . import __version__
from .bench import (
    CALIBRATION_RUNS,
    METHODS,
    SWAP_FACTOR,
    PlantedSpec,
    calibrate_planted,
    clique_ring_truth,
    degree_preserving_rewire,
    generate_planted,
    mrg_significance,
    ring_of_cliques,
    run_experiment,
)
from .detect import MAX_LEVELS, MAX_SWEEPS, MIN_GAIN, leiden, louvain
from .engine import BASE_METHODS, KIND_NAMES, QicdConfig, result_to_json, run_qicd, trace_to_csv
from .graph import dump_edge_list, load_edge_list
from .partition import labels_to_csv, modularity
from .rng import RNG_NAME
from .sampling import REASSIGN_FRACTION, SKEW_FACTOR
from .stats import summarize, welch_t_test

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
# Exceptions that mean bad data or a domain error: exit 2 with the message.
DATA_ERRORS = (ValueError, ArithmeticError, OSError, KeyError)

# Runs per benchmark method when --runs names no count for it.
BENCHMARK_RUNS = 6

# Flag defaults come from the config dataclasses and the library functions'
# own defaults, and a replayed manifest lacking a key takes its flag's; the
# CLI restates none of them.
_QICD = QicdConfig()
# Config keys that no flag sets any more, each with the one value that the
# code now runs (a null proposal_seeds is K = ceil(sqrt(n)); a benchmark
# that drew no graph of its own read its --graph). A replayed manifest that
# sets another value is refused.
_RETIRED = {"random_ties": False, "init_mode": "quick-leiden", "max_levels": MAX_LEVELS, "max_sweeps": MAX_SWEEPS,
            "min_gain": MIN_GAIN, "resolution": 1.0, "alpha": SKEW_FACTOR, "fraction": REASSIGN_FRACTION,
            "proposal_seeds": None, "swap_factor": SWAP_FACTOR, "calibration_runs": CALIBRATION_RUNS,
            "generate_spec": None, "fresh_graphs": False}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # No prefix matching: a retired flag such as benchmark's --base must
        # be rejected, not read as --baseline.
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise UsageError(message)


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _json_text(value) -> str:
    """The text of every JSON file the CLI writes: sorted keys, indent 2."""
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def _load_graph(config: dict, key: str = "graph"):
    """The graph that config[key] names (--graph by default), and the texts
    of the files that loading it adds: with --relabel, the labels sidecar."""
    relabel = config.get("relabel", False)  # generate rewire has no --relabel
    with open(config[key], "rb") as fh:
        loaded = load_edge_list(fh, merge_duplicates=config["merge_duplicates"], relabel=relabel)
    if not relabel:
        return loaded, {}
    graph, labels = loaded
    text = io.StringIO()  # csv quotes a label that holds "," or '"'
    csv.writer(text, lineterminator="\n").writerows([("node_id", "label"), *enumerate(labels)])
    return graph, {"labels": text.getvalue()}


def _default(fn, name: str):
    """The default of fn's parameter `name`."""
    return inspect.signature(fn).parameters[name].default


def _qicd_config(config: dict) -> QicdConfig:
    """The QicdConfig fields that config sets (benchmark sets no kind or base), --seed among them."""
    return replace(_QICD, **{key: config[key] for key in asdict(_QICD) if key in config})


# ---------------------------------------------------------------- generate


# The generators that build a graph from numbers: help text, then each flag's
# destination and type. Every flag of `generate <kind>` is required but
# calibrated's optional ones, which take calibrate_planted's defaults.
_GENERATORS = {
    "planted": ("planted-partition graph", {"n": int, "k": int, "p_in": float, "p_out": float}),
    "calibrated": (
        "planted graph calibrated to a target Leiden Q",
        {"n": int, "k": int, "target_q": float, "tolerance": float, "avg_degree": float},
    ),
    "clique-ring": ("ring of cliques control graph", {"cliques": int, "size": int}),
}
# Calibrated's optional flags, each a parameter of calibrate_planted.
_CALIBRATION_KEYS = ("tolerance", "avg_degree")


def _run_generate(kind: str, config: dict):
    recorded = {}
    if kind == "clique-ring":
        cliques, size = config["cliques"], config["size"]
        graph, truth = ring_of_cliques(cliques, size), clique_ring_truth(cliques, size)
    else:
        if kind == "planted":
            spec = PlantedSpec(config["n"], config["k"], config["p_in"], config["p_out"], config["seed"])
        else:
            spec, recorded["achieved_q"] = calibrate_planted(config["n"], config["k"], config["target_q"],
                                                             config["tolerance"], avg_degree=config["avg_degree"],
                                                             seed=config["seed"])
            config.update(p_in=spec.p_in, p_out=spec.p_out)  # the manifest records them
        graph, truth = generate_planted(spec)
    detail = (f"achieved Q={recorded['achieved_q']:.4f}, p_in={config['p_in']:.6g}, p_out={config['p_out']:.6g}"
              if recorded else f"n={graph.node_count}, m={graph.total_weight:g}")
    texts = {"graph": dump_edge_list(graph), "truth": labels_to_csv(truth)}
    return texts, recorded, f"wrote {config['out']} ({detail})\n"


def _run_generate_rewire(config: dict):
    graph, _texts = _load_graph(config, "input")
    rewired = degree_preserving_rewire(graph, seed=config["seed"])
    message = f"wrote {config['out']} (n={rewired.node_count}, m={rewired.total_weight:g})\n"
    return {"graph": dump_edge_list(rewired)}, {}, message


# ------------------------------------------------------------------ detect


def _run_detect(config: dict):
    graph, texts = _load_graph(config)
    seed = config["seed"]
    part = louvain(graph, seed) if config["method"] == "louvain" else leiden(graph, seed)
    q = modularity(graph, part)
    texts["partition"] = labels_to_csv(part.labels)
    return texts, {}, f"Q={q:.6f}\n"


# ------------------------------------------------------------------- qicd


def _run_qicd_cmd(config: dict):
    cfg = _qicd_config(config)
    graph, texts = _load_graph(config)
    result = run_qicd(graph, cfg)
    envelope = result_to_json(result, cfg)
    envelope["graph"] = config["graph"]
    texts["partition"] = labels_to_csv(result.best_partition.labels)
    texts["trace"] = trace_to_csv(result.trace)
    texts["result"] = _json_text(envelope)
    return texts, {}, f"Q*={result.q_star:.6f} baseline={result.q_baseline:.6f} MRG={result.mrg:.6f}\n"


# -------------------------------------------------------------- benchmark


def _parse_runs_spec(spec: str, methods: list[str]) -> dict[str, int]:
    default: int | None = None
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
            if name in overrides:
                raise UsageError(f"--runs sets a count for {name!r} more than once")
            overrides[name] = value
        elif default is not None:
            raise UsageError(f"--runs gives more than one default count; the second is {part!r}")
        else:
            default = value
    return {m: overrides.get(m, BENCHMARK_RUNS if default is None else default) for m in methods}


def _render_table(rows: dict[str, dict], baseline: str) -> str:
    """The summary's rows as a table, by descending mean; methods with
    equal means keep their run order."""
    header = f"{'Method':<18}{'Runs':>5}  {'Mean±Std':<16}{'95% CI':<20}{'p':<10}"
    lines = [header, "-" * len(header)]
    for method, row in sorted(rows.items(), key=lambda item: -item[1]["mean"]):
        ci = f"[{row['ci_low']:.4f}, {row['ci_high']:.4f}]"
        p = row["p_vs_baseline"]
        p_text = "--" if p is None else f"{p:.4f}" + (" *" if p < 0.05 else "")
        lines.append(f"{method:<18}{row['n']:>5}  {row['mean']:.4f}±{row['std']:.4f}   {ci:<20}{p_text:<10}")
    lines += ["", f"baseline: {baseline}; * marks p < 0.05"]
    return "\n".join(lines) + "\n"


def _run_benchmark(config: dict):
    methods = [m.strip() for m in config["methods"].split(",") if m.strip()]
    if not methods:
        raise UsageError("--methods lists no method names")
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise UsageError(f"unknown method names: {', '.join(unknown)}")
    repeated = [m for i, m in enumerate(methods) if m in methods[:i]]
    if repeated:
        raise UsageError(f"--methods lists {repeated[0]!r} more than once")
    runs = _parse_runs_spec(config["runs"], methods)
    for name, count in runs.items():
        if count < 2:
            raise UsageError(f"method {name!r} needs at least 2 runs for statistics, got {count}")
    baseline = config["baseline"]
    if baseline is None:
        # A lone method is its own baseline. Otherwise leiden, unless the
        # list omits it: then the first plain method it lists. The manifest
        # records the name chosen.
        if len(methods) == 1:
            baseline = methods[0]
        else:
            plain = [m for m in methods if METHODS[m][1] is None]
            baseline = plain[0] if "leiden" not in methods and plain else "leiden"
        config["baseline"] = baseline
    if baseline not in methods:
        raise UsageError(f"baseline {baseline!r} must be one of --methods")

    graph, texts = _load_graph(config)
    samples = run_experiment(graph, runs, cfg=_qicd_config(config))

    lines = ["method,run,seed,Q"]
    for sample in samples:
        for run_idx, (q, run_seed) in enumerate(zip(sample.q_values, sample.seeds)):
            lines.append(f"{sample.method},{run_idx},{run_seed},{q!r}")
    texts["runs"] = "\n".join(lines) + "\n"

    base_sample = next(s for s in samples if s.method == baseline)
    rows = {}
    for sample in samples:
        p_value = None if sample.method == baseline else welch_t_test(sample.q_values, base_sample.q_values).p
        rows[sample.method] = asdict(summarize(sample.q_values)) | {"p_vs_baseline": p_value}
    texts["summary"] = _json_text({"baseline": baseline, "methods": rows})
    texts["table"] = _render_table(rows, baseline)
    return texts, {}, texts["table"]


# -------------------------------------------------------------------- mrg


def _run_mrg(config: dict):
    if config["nulls"] < 5:
        raise UsageError("--nulls must be at least 5")
    cfg = _qicd_config(config)
    graph, texts = _load_graph(config)
    report = mrg_significance(graph, cfg, config["nulls"])
    texts["report"] = _json_text(asdict(report) | {"null_count": config["nulls"], "swap_factor": float(SWAP_FACTOR)})
    message = f"MRG={report.observed_mrg:.6f} null_mean={report.null_mean:.6f} percentile={report.percentile:.1f}\n"
    return texts, {}, message


RUNNERS = {
    **{f"generate-{kind}": partial(_run_generate, kind) for kind in _GENERATORS},
    "generate-rewire": _run_generate_rewire,
    "detect": _run_detect,
    "qicd": _run_qicd_cmd,
    "benchmark": _run_benchmark,
    "mrg": _run_mrg,
}

# Each command's output files: key -> the suffix that replaces --out's, or
# None for the --out path itself. --relabel adds the labels sidecar, and
# every command writes its manifest beside them.
_OUTPUTS = {
    **{f"generate-{kind}": {"graph": None, "truth": ".truth.csv"} for kind in _GENERATORS},
    "generate-rewire": {"graph": None},
    "detect": {"partition": None},
    "qicd": {"partition": ".partition.csv", "trace": ".trace.csv", "result": ".json"},
    "benchmark": {"runs": ".runs.csv", "summary": ".summary.json", "table": ".table.txt"},
    "mrg": {"report": ".mrg.json"},
}


# ------------------------------------------------------------ CLI parsing


def _add_graph_input(p: _Parser) -> None:
    p.add_argument("--graph", required=True, help="edge-list file")
    p.add_argument("--merge-duplicates", action="store_true", help="sum duplicate edges instead of rejecting")
    p.add_argument("--relabel", action="store_true", help="accept arbitrary node labels; writes a .labels.csv sidecar")


def _add_qicd_flags(p: _Parser, *, kind_and_base: bool = True) -> None:
    """QICD flags; `benchmark` omits --kind and --base, which each of its
    method names sets."""
    if kind_and_base:
        p.add_argument("--kind", choices=KIND_NAMES, default=_QICD.kind)
        p.add_argument("--base", choices=BASE_METHODS, default=_QICD.base)
    p.add_argument("--iterations", type=int, default=_QICD.iterations)
    p.add_argument("--stall-limit", type=int, default=_QICD.stall_limit)
    p.add_argument("--refine-before-accept", action="store_true",
                   help="polish proposals with a full seeded pass before the acceptance check")


def build_parser() -> _Parser:
    parser = _Parser(prog="qicd", description="Community detection with quantum-inspired refinement")
    parser.add_argument("--from-manifest", help="re-run a command from its manifest file")
    parser.add_argument("--version", action="version", version=f"qicd {__version__}")
    sub = parser.add_subparsers(dest="command")

    gen = sub.add_parser("generate", help="write synthetic graphs")
    gen_sub = gen.add_subparsers(dest="generator")

    for kind, (text, types) in _GENERATORS.items():
        g_kind = gen_sub.add_parser(kind, help=text)
        for dest, type_ in types.items():
            optional = dest in _CALIBRATION_KEYS
            default = _default(calibrate_planted, dest) if optional else None
            g_kind.add_argument(f"--{dest.replace('_', '-')}", type=type_, default=default, required=not optional)

    g_rw = gen_sub.add_parser("rewire", help="degree-preserving rewiring of an existing graph")
    g_rw.add_argument("--input", required=True)
    g_rw.add_argument("--merge-duplicates", action="store_true")

    det = sub.add_parser("detect", help="run a classical detector")
    _add_graph_input(det)
    det.add_argument("--method", choices=BASE_METHODS, required=True)

    qic = sub.add_parser("qicd", help="run the quantum-inspired refinement loop")
    _add_graph_input(qic)
    _add_qicd_flags(qic)

    ben = sub.add_parser("benchmark", help="multi-method experiment with statistics")
    _add_graph_input(ben)
    ben.add_argument("--methods", required=True, help="comma list of method names")
    ben.add_argument("--runs", default=str(BENCHMARK_RUNS), help="run count, with name=count overrides")
    ben.add_argument("--baseline", help="default: a lone method; else leiden if listed, else the first plain method")
    _add_qicd_flags(ben, kind_and_base=False)

    mrg_p = sub.add_parser("mrg", help="MRG significance against rewired null graphs")
    _add_graph_input(mrg_p)
    mrg_p.add_argument("--nulls", type=int, default=_default(mrg_significance, "null_count"))
    _add_qicd_flags(mrg_p)

    # Each command's parser, by the command name that manifests record.
    parser.commands = {
        **{f"generate-{kind}": p for kind, p in gen_sub.choices.items()},
        **{name: p for name, p in sub.choices.items() if name != "generate"},
    }
    for name, p in parser.commands.items():
        if name != "generate-clique-ring":  # the one command that draws nothing
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", required=True)
    return parser


def _config_from_args(args: argparse.Namespace) -> tuple[str, dict]:
    """The command and its config: every destination of the chosen
    subparser."""
    config = dict(vars(args))
    command = config.pop("command")
    generator = config.pop("generator", None)
    del config["from_manifest"]
    if command == "generate":
        if generator is None:
            raise UsageError(f"generate requires a subcommand: {' | '.join([*_GENERATORS, 'rewire'])}")
        command = f"generate-{generator}"
    elif command is None:
        raise UsageError("a command is required; see --help")
    return command, config


def _replayed(path: str, parser: _Parser) -> tuple[str, dict]:
    """The command and config of the manifest at `path`, parsed as the
    command line is. Keys that no flag of the command defines are dropped
    (older manifests hold retired ones), unless the run they record cannot
    be reproduced: a `_RETIRED` key set to another value. Each non-null
    value goes to its flag as text (a string as it is, else as JSON) and
    must be what the flag reads from that text: an on/off flag reads true
    or false as on or off, and any other value is --key=text, for argparse
    to check. A null or lacking key takes the flag's default."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except UnicodeDecodeError as exc:
        raise UsageError(f"manifest {path} is not UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"manifest {path} is not JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise UsageError(f"manifest {path} is not a JSON object")
    for key in ("command", "config"):
        if key not in manifest:
            raise UsageError(f"manifest {path} lacks {key!r}")
    command, recorded = manifest["command"], manifest["config"]
    if not isinstance(command, str) or command not in RUNNERS:
        raise UsageError(f"manifest names unknown command {command!r}")
    where = f"config of manifest {path}"
    if not isinstance(recorded, dict):
        raise UsageError(f"{where} is not a JSON object")
    for key, value in _RETIRED.items():
        if recorded.get(key, value) != value:
            raise UsageError(f"manifest sets {key} to {json.dumps(recorded[key])}, which is no longer supported; "
                             "it cannot be replayed")
    subparser = parser.commands[command]
    keys = {a.dest for a in subparser._actions if a.default is not argparse.SUPPRESS}
    switches = {a.dest for a in subparser._actions if isinstance(a, argparse._StoreTrueAction)}
    kept = {key: value for key, value in recorded.items() if key in keys and value is not None}
    tokens = []
    for key, value in kept.items():
        flag, text = "--" + key.replace("_", "-"), value if isinstance(value, str) else json.dumps(value)
        if key not in switches or text.lower() not in ("true", "false"):
            tokens.append(f"{flag}={text}")
        elif text.lower() == "true":
            tokens.append(flag)
    try:
        config = _config_from_args(parser.parse_args([*command.split("-", 1), *tokens]))[1]
    except UsageError as exc:
        raise UsageError(f"{where}: {exc}") from None
    for key, value in kept.items():
        if config[key] != value:  # 1 == 1.0, so an int may stand for a float
            raise UsageError(f"{where} sets {key!r} to {json.dumps(value)}, which --{key.replace('_', '-')} "
                             f"reads as {json.dumps(config[key])}")
    return command, config


def main(argv: list[str] | None = None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if args.from_manifest:
            if args.command is not None:
                raise UsageError("--from-manifest replays the manifest's own command; give no command with it")
            command, config = _replayed(args.from_manifest, parser)
        else:
            command, config = _config_from_args(args)
        out = Path(config["out"])
        stem = str(out.with_suffix("") if out.suffix else out)
        suffixes = _OUTPUTS[command] | ({"labels": ".labels.csv"} if config.get("relabel") else {})
        paths = {key: str(out) if suffix is None else stem + suffix for key, suffix in suffixes.items()}
        manifest_path = stem + ".manifest.json"
        input_graph = config.get("graph", config.get("input"))
        inputs = {} if input_graph is None else {"graph": input_graph}
        for path in [*paths.values(), manifest_path]:
            if input_graph is not None and Path(path).resolve() == Path(input_graph).resolve():
                raise UsageError(f"output {path} would overwrite the input graph {input_graph}")
            if Path(path).is_dir():
                raise IsADirectoryError(f"output {path} is a directory")
            if not Path(path).parent.is_dir():
                raise FileNotFoundError(f"output {path} is in a directory that does not exist")
        started = time.perf_counter()
        try:
            texts, recorded, message = RUNNERS[command](config)
        except MemoryError:
            # Raised before any file is written.
            print(f"{command}: out of memory; no output was written", file=sys.stderr)
            return EXIT_DATA
        for key, path in paths.items():
            _write_text(path, texts[key])
        outputs = paths | recorded
        manifest = {"command": command, "tool": "qicd", "version": __version__, "rng": RNG_NAME, "config": config,
                    "inputs": inputs, "outputs": outputs, "duration_seconds": time.perf_counter() - started}
        _write_text(manifest_path, _json_text(manifest))
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
