"""Mutation kill table: does tier-1 fail when the core is wrong?

Each mutant changes one line of src/qicd. For each one, the tree is copied
to a temporary directory, the line is swapped for its mutant, and tier-1
runs there, stopping at the first failure, without its two wall-clock-heavy
gates (the directional-uplift check and the scaling check) and without
tests/test_mutants.py, which a mutated line fails by design. The table
records that failure's test id, "timeout", or "survived".

    python tools/mutants.py        # writes MUTANTS.json at the repository root

The unmutated copy runs first and must pass, or the table would mean
nothing. A change that adds a rule to the core adds its mutant here;
tests/test_mutants.py checks that every original line occurs exactly once
in its file, so a source edit cannot leave a mutant that no longer applies.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file, original line, mutated line); lines are whole, indentation included.
MUTANTS = [
    # Hand-picked faults of the move loop, the split, hu, the rewire and the refinement loop.
    ("tie-to-highest-id", "src/qicd/detect.py",
     "            if d > best_gain or (d == best_gain and d > 0.0 and c < best):",
     "            if d > best_gain or (d == best_gain and d > 0.0 and c > best):"),
    ("no-reflag-after-move", "src/qicd/detect.py",
     "                    active[v] = True",
     "                    pass"),
    ("refine-never-splits", "src/qicd/detect.py",
     "    if not split:",
     "    if True:"),
    ("hu-keeps-own-community", "src/qicd/sampling.py",
     "        return target + (target >= c)",
     "        return c"),
    ("rewire-allows-a-key-drawn-twice", "src/qicd/bench.py",
     "        bad = (hit | (counts > 1))[inverse]",
     "        bad = hit[inverse]"),
    ("no-refine-after-acceptance", "src/qicd/engine.py",
     "            current = leiden_refine(graph, move_nodes(graph, current, rng))",
     "            current = leiden_refine(graph, move_nodes(graph, current, rng)) if t == 1 else current"),
    # Faults that once survived tier-1, each now killed by a test of its own.
    ("accept-a-tie", "src/qicd/engine.py",
     "        accepted = q_quant > q_ref",
     "        accepted = q_quant >= q_ref"),
    ("stall-reset", "src/qicd/engine.py",
     "            stall = 0",
     "            pass"),
    ("percentile-counts-ties-fully", "src/qicd/bench.py",
     "    percentile = 100.0 * (below + 0.5 * equal) / count",
     "    percentile = 100.0 * (below + equal) / count"),
    # Each derived stream of a run comes from its one seed by its own mix tag.
    ("loop-seed-is-the-baseline-seed", "src/qicd/engine.py",
     "    loop_seed = mix(cfg.seed, 1)",
     "    loop_seed = cfg.seed"),
    ("null-seed-is-the-run-seed", "src/qicd/bench.py",
     "    seed = mix(cfg.seed, 2)",
     "    seed = cfg.seed"),
    # mrg runs its nulls before the observed run, which builds the graph's view.
    ("mrg-observed-run-first", "src/qicd/bench.py",
     "    *gaps, observed = run_seeded([*nulls, lambda: run_qicd(graph, cfg).mrg])",
     "    observed, *gaps = run_seeded([lambda: run_qicd(graph, cfg).mrg, *nulls])"),
    # Q, aggregation, the stop rule, the proposal tie rule, hu sampling, replay and Welch's df.
    ("modularity-linear-penalty", "src/qicd/partition.py",
     "        q += e / m - frac * frac",
     "        q += e / m - frac"),
    ("aggregate-drops-inside-weight", "src/qicd/partition.py",
     "    strengths = np.bincount(lab, weights=graph.strengths, minlength=partition.community_count)",
     "    strengths = collapsed.strengths"),
    ("cut-counted-once", "src/qicd/partition.py",
     "    cut = np.bincount(cu, weights=ws, minlength=c_count) + np.bincount(cv, weights=ws, minlength=c_count)",
     "    cut = np.bincount(cu, weights=ws, minlength=c_count)"),
    ("min-gain-tenfold", "src/qicd/detect.py",
     "        if _move_pass(flat, labels, comm_strength, rng, active) < MIN_GAIN:",
     "        if _move_pass(flat, labels, comm_strength, rng, active) < 10 * MIN_GAIN:"),
    ("arrival-tie-last-writer", "src/qicd/sampling.py",
     "        np.minimum.at(claim, targets, sources)",
     "        claim[targets] = sources"),
    ("relocate-with-replacement", "src/qicd/sampling.py",
     "            picked = rng.choice(len(nodes), size=batch[c], replace=False)",
     "            picked = rng.choice(len(nodes), size=batch[c], replace=True)"),
    ("replay-ignores-retired-keys", "src/qicd/cli.py",
     "        if recorded.get(key, value) != value:",
     "        if False:"),
    ("welch-df-without-bessel", "src/qicd/stats.py",
     "    df = pooled * pooled / (var_a * var_a / (n_a - 1) + var_b * var_b / (n_b - 1))",
     "    df = pooled * pooled / (var_a * var_a / n_a + var_b * var_b / n_b)"),
    # The move loop's per-graph view: a graph never reads another's.
    ("view-shared-by-node-count", "src/qicd/detect.py",
     "    view = _VIEWS.get(graph)",
     "    view = next((v for g, v in _VIEWS.items() if g.node_count == graph.node_count), None)"),
    # build_graph's column checks.
    ("endpoint-equal-to-n-passes", "src/qicd/graph.py",
     "    outside = ~((lo >= 0) & (hi < n))",
     "    outside = ~((lo >= 0) & (hi <= n))"),
    ("zero-weight-passes", "src/qicd/graph.py",
     "    faults = np.flatnonzero(outside | loop | ~(np.isfinite(ws) & (ws > 0.0)))",
     "    faults = np.flatnonzero(outside | loop | ~(np.isfinite(ws) & (ws >= 0.0)))"),
    ("float-endpoints-pass", "src/qicd/graph.py",
     '    if us.dtype.kind not in "iu" or vs.dtype.kind not in "iu":',
     "    if False:"),
    # load_edge_list's token-by-token read of a block the cast cannot take.
    ("token-read-loses-block-offset", "src/qicd/graph.py",
     "        for i, (a, b) in enumerate(spans.tolist(), t):",
     "        for i, (a, b) in enumerate(spans.tolist()):"),
]

EXCLUDED = ("tests/test_acceptance.py::test_directional_uplift", "tests/test_acceptance.py::test_scaling_subquadratic")
PYTEST = ["-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
          "--ignore", "tests/test_mutants.py", *(arg for test in EXCLUDED for arg in ("--deselect", test))]
TIMEOUT = 1800  # seconds per run


def mutate(tree: Path, path: str, original: str, mutated: str) -> int:
    """Swap the one line of tree/path that equals original; returns its 1-based number."""
    lines = (tree / path).read_text().split("\n")
    (at,) = [i for i, line in enumerate(lines) if line == original]
    lines[at] = mutated
    (tree / path).write_text("\n".join(lines))
    return at + 1


def run_tier1(tree: Path) -> str:
    """The id of the first test that fails in tree, "timeout", or "survived"."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))}
    try:
        done = subprocess.run([sys.executable, *PYTEST], cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout"
    if done.returncode == 0:
        return "survived"
    found = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.MULTILINE)
    return found[1] if found else f"exit {done.returncode}"


def main() -> int:
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks")
    rows = []
    with tempfile.TemporaryDirectory() as scratch:
        clean = Path(scratch) / "clean"
        shutil.copytree(ROOT, clean, ignore=ignore)
        baseline = run_tier1(clean)
        if baseline != "survived":
            print(f"the unmutated tree fails tier-1 ({baseline}); no table written", file=sys.stderr)
            return 1
        for name, path, original, mutated in MUTANTS:
            tree = Path(scratch) / name
            shutil.copytree(clean, tree)
            line = mutate(tree, path, original, mutated)
            started = time.perf_counter()
            result = run_tier1(tree)
            seconds = round(time.perf_counter() - started, 1)
            shutil.rmtree(tree)
            print(f"{name}: {result} ({seconds} s)", flush=True)
            rows.append({"name": name, "file": path, "line": line, "original": original.strip(),
                         "mutated": mutated.strip(), "result": result, "seconds": seconds})
    table = {
        "command": " ".join(["python", *PYTEST]),
        "killed": sum(row["result"] != "survived" for row in rows),
        "mutants": rows,
    }
    (ROOT / "MUTANTS.json").write_text(json.dumps(table, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
