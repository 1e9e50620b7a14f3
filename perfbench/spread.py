"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 1-10

Runs the benchmark command of BENCHMARK.json once per (seed, workload) at
its run_seconds, interleaving the workloads so that machine drift hits all
of them alike, and prints per metric the median and the quartile spread
(Q3 - Q1) / median, as statistics.quantiles(values, n=4) gives them,
next to a third of the metric's bound. Every run's result is written to
.perfbench_runs/spread-<seeds>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS_DIR = ROOT / ".perfbench_runs"


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()

    workloads = [w["name"] for w in bench["workloads"]]
    results: dict[str, list[dict]] = {w: [] for w in workloads}
    for i, seed in enumerate(parse_seeds(args.seeds)):
        turn = i % len(workloads)
        for workload in workloads[turn:] + workloads[:turn]:
            argv = [*bench["command"], "--workload", workload, "--seed", str(seed),
                    "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            lines = done.stdout.strip().splitlines()
            env = json.loads(lines[-2])["env"]
            result = json.loads(lines[-1])
            results[workload].append({"seed": seed, "env": env, "result": result})
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{workload:<8} seed {seed:<3} correct={result['correct']} failed={result['failed']} "
                  f"ref_loop={env['ref_loop_s']:.4f} {values}", flush=True)

    print()
    print(f"{'workload':<8} {'metric':<12} {'median':>12} {'spread':>8} {'bound/3':>8}")
    for workload, runs in results.items():
        for metric in bench["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs]
            if len(values) < 2:
                continue
            mark = "" if spread(values) < metric["bound"] / 3 else "  <-- wide"
            print(f"{workload:<8} {metric['name']:<12} {statistics.median(values):>12.5g} "
                  f"{spread(values):>8.4f} {metric['bound'] / 3:>8.4f}{mark}")
        ref = [r["env"]["ref_loop_s"] for r in runs]
        print(f"{workload:<8} {'ref_loop_s':<12} {statistics.median(ref):>12.5g} {spread(ref):>8.4f}")
    RUNS_DIR.mkdir(exist_ok=True)
    (RUNS_DIR / f"spread-{args.seeds}.json").write_text(json.dumps(results, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
