"""Run one benchmark workload against the qicd CLI of this checkout.

    python3 perfbench/run.py --workload uplift --seed 1 --seconds 10 --trace 0

One process, one caller, closed loop: the workload command is called
in-process through ``qicd.cli.main(argv)`` and each call starts after the
previous one returns, until --seconds have passed (at least one call). The
input graph is made from --seed by ``qicd generate planted``; qicd sees only
that file. Outputs are checked after the loop, outside the timed region.

--trace 0 prints the end-to-end metrics. --trace 1 runs the same untimed
loop, then one set-up and one command with spans around qicd's layer entry
points, and prints the per-layer metrics. The last line of stdout is the
result; a record of the run (and the spans, when traced) is written under
.perfbench_runs/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

import spans
from workloads import GRAPH, OUT, WORKLOADS, Outcome

ROOT = Path(__file__).resolve().parent.parent
RUNS_DIR = ROOT / ".perfbench_runs"
DIGESTS = RUNS_DIR / "digests.json"
SETUP_REPEATS = 5
REF_LOOP_ITERATIONS = 2_000_000
REF_LOOP_REPEATS = 3


class HarnessError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Call:
    code: int | None  # None when main raised
    wall: float
    stdout: str
    stderr: str


@dataclass
class Command:
    """One call of the workload command; it holds workload.ops ops."""

    call: Call
    dir: Path
    traced: bool = False
    digest: str = ""
    outcome: Outcome | None = None


def ref_loop() -> float:
    """A fixed pure-Python loop, timed, to show machine drift between runs."""
    started = time.perf_counter()
    total = 0
    for i in range(REF_LOOP_ITERATIONS):
        total += i
    return time.perf_counter() - started


def import_cli():
    src = ROOT / "src"
    if not (src / "qicd" / "cli.py").is_file():
        raise HarnessError(f"no qicd source at {src / 'qicd'}")
    sys.path.insert(0, str(src))
    import qicd.cli

    if Path(qicd.cli.__file__).resolve().parent != (src / "qicd").resolve():
        raise HarnessError(f"imported qicd from {qicd.cli.__file__}, not from {src}")
    return qicd.cli


def call(cli, argv: list[str], tracer: spans.Tracer | None = None) -> Call:
    out, err = io.StringIO(), io.StringIO()
    span = tracer.open("cli") if tracer else None
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:
        code = None
        err.write(traceback.format_exc())
    wall = time.perf_counter() - started
    if span:
        tracer.close(span)
    return Call(code, wall, out.getvalue(), err.getvalue())


def set_up(cli, workload, seed: int, repeats: int, tracer=None) -> list[float]:
    """Generate the input graph `repeats` times; every copy must be identical."""
    walls, digests = [], set()
    for _ in range(repeats):
        result = call(cli, workload.setup_argv(seed), tracer)
        if result.code != 0:
            raise HarnessError(f"set-up exited {result.code}: {result.stderr.strip()}")
        walls.append(result.wall)
        digests.add(hashlib.sha256(Path(GRAPH).read_bytes()).hexdigest())
    if len(digests) != 1:
        raise HarnessError("set-up wrote a different graph for the same seed")
    return walls


def run_commands(cli, workload, seed: int, seconds: float, first: int, tracer=None) -> list[Command]:
    """Closed loop of workload commands for `seconds` (at least one)."""
    commands: list[Command] = []
    started = time.perf_counter()
    while not commands or time.perf_counter() - started < seconds:
        Path(OUT).mkdir()
        result = call(cli, workload.argv(seed), tracer)
        out_dir = Path(f"call{first + len(commands)}")
        os.rename(OUT, out_dir)
        commands.append(Command(result, out_dir, traced=tracer is not None))
    return commands


def output_digest(out_dir: Path) -> str:
    """sha256 of a command's output files, without the manifest's wall time."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.name.endswith(".manifest.json"):
            manifest = json.loads(data)
            manifest.pop("duration_seconds", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        h.update(f"{path.name}\0{len(data)}\0".encode() + data)
    return h.hexdigest()


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def check_command(workload, cmd: Command) -> Outcome:
    if cmd.call.code != 0:
        tail = cmd.call.stderr.strip().splitlines()[-1:] or [""]
        return Outcome(workload.ops, workload.ops, None, (f"exit {cmd.call.code}: {tail[0]}",))
    try:
        return workload.check(cmd.dir, cmd.call.stdout)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return Outcome(workload.ops, workload.ops, None, (f"check raised {exc!r}",))


def check_digests(key: str, commands: list[Command]) -> str:
    """Every command of one seed and one source must write the same outputs, in
    this run and in earlier runs of this checkout. Returns the reference."""
    stored = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    reference = stored.get(key, commands[0].digest)
    for cmd in commands:
        if cmd.digest != reference and cmd.outcome.failed < cmd.outcome.attempted:
            cmd.outcome = Outcome(cmd.outcome.attempted, cmd.outcome.attempted, cmd.outcome.q,
                                 (*cmd.outcome.problems, f"output digest {cmd.digest[:12]} != {reference[:12]}"))
    if key not in stored:
        stored[key] = reference
        tmp = DIGESTS.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, DIGESTS)
    return reference


def environment(out_dir: Path, ref_loops: list[float]) -> dict:
    # Only `benchmark` has --jobs; its manifest holds the resolved value.
    manifests = sorted(out_dir.glob("*.manifest.json"))
    jobs = json.loads(manifests[0].read_text())["config"].get("jobs") if manifests else None
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "jobs": jobs,
        "ref_loop_s": statistics.median(ref_loops),
        "ref_loop_runs_s": ref_loops,
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def run(workload, seed: int, seconds: float, traced: bool) -> tuple[dict, dict]:
    cli = import_cli()
    ref_before = [ref_loop() for _ in range(REF_LOOP_REPEATS)]
    setup = set_up(cli, workload, seed, 1 if traced else SETUP_REPEATS)
    commands = run_commands(cli, workload, seed, seconds, 0)
    peak = peak_rss_mb()
    tracer = setup_tracer = None
    missing: list[str] = []
    if traced:
        setup_tracer, tracer = spans.Tracer(), spans.Tracer()
        with spans.installed(setup_tracer):
            set_up(cli, workload, seed, 1, setup_tracer)
        with spans.installed(tracer) as missing:
            commands += run_commands(cli, workload, seed, 0, len(commands), tracer)
    ref_after = [ref_loop() for _ in range(REF_LOOP_REPEATS)]

    for cmd in commands:
        cmd.outcome = check_command(workload, cmd)
        cmd.digest = output_digest(cmd.dir)
    digest = check_digests(f"{workload.name}/{seed}/{source_digest()}", commands)
    outcomes = [cmd.outcome for cmd in commands]
    if workload.run_check is not None:

        def run_cli(argv):
            done = call(cli, argv)
            return done.code, done.stderr

        outcomes.append(workload.run_check(run_cli, seed))

    env = environment(commands[0].dir, ref_before + ref_after)
    plain = [cmd for cmd in commands if not cmd.traced]
    wall = statistics.median(cmd.call.wall for cmd in plain)
    if traced:
        metrics = spans.layer_metrics(tracer, setup_tracer, missing)
        metrics["env.ref_loop_s"] = (env["ref_loop_s"], "s")
        metrics["trace.overhead_ratio"] = (commands[-1].call.wall / wall - 1.0, "ratio")
    else:
        qs = [cmd.outcome.q for cmd in plain if cmd.outcome.q is not None and not cmd.outcome.failed]
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (wall, "s"),
            "peak_rss_mb": (peak, "MB"),
            "q_mean": (statistics.median(qs) if qs else None, "Q"),
        }
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "env": env,
        "digest": digest,
        "setup_s": setup,
        "commands": [
            {"wall_s": cmd.call.wall, "traced": cmd.traced, "exit": cmd.call.code, "digest": cmd.digest,
             "attempted": cmd.outcome.attempted, "failed": cmd.outcome.failed, "q": cmd.outcome.q,
             "problems": list(cmd.outcome.problems)}
            for cmd in commands
        ],
        "problems": [p for o in outcomes for p in o.problems],
        "missing_entry_points": missing,
        "result": result,
    }
    if tracer is not None:
        record["spans"] = f"{workload.name}-seed{seed}.spans.json"
        (RUNS_DIR / record["spans"]).write_text(json.dumps([asdict(s) for s in tracer.spans]) + "\n")
    return record, result


def print_breakdown(metrics: dict) -> None:
    """Self time per layer and its share of all traced self time."""
    values = {layer: metrics[key]["value"] for layer, key in spans.LAYER_SELF.items()}
    total = sum(v for v in values.values() if v is not None)
    for layer, value in values.items():
        share = "absent" if value is None else f"{value:9.3f} s {100.0 * value / total:6.1f} %"
        print(f"{layer:<10}{share}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    RUNS_DIR.mkdir(exist_ok=True)
    work = RUNS_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    home = os.getcwd()
    os.chdir(work)
    try:
        record, result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        os.chdir(home)
        shutil.rmtree(work, ignore_errors=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RUNS_DIR / name).write_text(json.dumps(record, indent=1) + "\n")
    for problem in record["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.trace:
        print_breakdown(result["metrics"])
    print(json.dumps({"env": record["env"], "digest": record["digest"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
