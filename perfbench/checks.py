"""Output checks that take a route of their own: numpy over the files qicd
wrote, never qicd's code. Each returns a list of problems; empty means the
output passed.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np


def read_edge_list(path: Path) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """(n, u, v, w) of an edge-list file that starts with '# nodes: N'."""
    with open(path, encoding="utf-8") as fh:
        n = int(fh.readline().split(":")[1])
        table = np.loadtxt(fh, dtype=np.float64, ndmin=2)
    return n, table[:, 0].astype(np.int64), table[:, 1].astype(np.int64), table[:, 2]


def read_partition(path: Path) -> np.ndarray:
    """Community label per node from a node_id,community_id CSV."""
    table = np.loadtxt(path, dtype=np.int64, delimiter=",", skiprows=1, ndmin=2)
    labels = np.empty(len(table), dtype=np.int64)
    labels[table[:, 0]] = table[:, 1]
    return labels


def modularity(u: np.ndarray, v: np.ndarray, w: np.ndarray, labels: np.ndarray) -> float:
    """Q = sum_c [L_c / m - (S_c / 2m)^2] by edge sums."""
    m = w.sum()
    cu, cv = labels[u], labels[v]
    c_count = int(labels.max()) + 1
    same = cu == cv
    internal = np.bincount(cu[same], weights=w[same], minlength=c_count)
    strength = np.bincount(cu, weights=w, minlength=c_count) + np.bincount(cv, weights=w, minlength=c_count)
    return float((internal / m - (strength / (2.0 * m)) ** 2).sum())


def disconnected_communities(u: np.ndarray, v: np.ndarray, labels: np.ndarray) -> int:
    """How many communities induce a disconnected subgraph, found by
    min-label propagation over the intra-community edges."""
    same = labels[u] == labels[v]
    a, b = u[same], v[same]
    comp = np.arange(len(labels))
    while True:
        low = np.minimum(comp[a], comp[b])
        nxt = comp.copy()
        np.minimum.at(nxt, a, low)
        np.minimum.at(nxt, b, low)
        nxt = nxt[nxt]
        if np.array_equal(nxt, comp):
            break
        comp = nxt
    pieces = np.unique(np.stack([labels, comp]), axis=1).shape[1]
    return pieces - len(np.unique(labels))


def rewire_problems(n: int, u0, v0, u1, v1) -> list[str]:
    """Invariants of a degree-preserving null: same degrees, no self-loops,
    no duplicate edges."""
    problems = []
    deg0 = np.bincount(np.concatenate([u0, v0]), minlength=n)
    deg1 = np.bincount(np.concatenate([u1, v1]), minlength=n)
    if len(deg1) != len(deg0) or not np.array_equal(deg0, deg1):
        problems.append("degree sequence changed")
    loops = int(np.count_nonzero(u1 == v1))
    if loops:
        problems.append(f"{loops} self-loops")
    keys = np.minimum(u1, v1) * n + np.maximum(u1, v1)
    dups = len(keys) - len(np.unique(keys))
    if dups:
        problems.append(f"{dups} duplicate edges")
    return problems


def rewired_edge_ratio(n: int, u0, v0, u1, v1) -> float:
    """Share of the null's edges that are absent from the input."""
    before = np.minimum(u0, v0) * n + np.maximum(u0, v0)
    after = np.minimum(u1, v1) * n + np.maximum(u1, v1)
    return float(np.mean(~np.isin(after, before)))


def experiment_problems(runs_csv: str, summary: dict, runs: dict[str, int]) -> list[str]:
    """runs.csv has the expected rows with finite Q, and summary.json means
    equal the means recomputed from it."""
    problems = []
    by_method: dict[str, list[float]] = {}
    for row in csv.DictReader(io.StringIO(runs_csv)):
        by_method.setdefault(row["method"], []).append(float(row["Q"]))
    for method, count in runs.items():
        qs = by_method.get(method, [])
        if len(qs) != count:
            problems.append(f"{method}: {len(qs)} rows, expected {count}")
            continue
        if not all(math.isfinite(q) for q in qs):
            problems.append(f"{method}: non-finite Q")
            continue
        stated = summary["methods"].get(method, {}).get("mean")
        mean = math.fsum(qs) / len(qs)
        if stated is None or abs(stated - mean) > 1e-12 * max(1.0, abs(mean)):
            problems.append(f"{method}: summary mean {stated} != recomputed {mean!r}")
    extra = set(by_method) - set(runs)
    if extra:
        problems.append(f"unexpected methods in runs.csv: {sorted(extra)}")
    return problems


def mrg_problems(report: dict, null_count: int) -> list[str]:
    gaps = report.get("null_gaps", [])
    problems = []
    if report.get("null_count") != null_count or len(gaps) != null_count:
        problems.append(f"expected {null_count} null gaps, found {len(gaps)}")
    if not all(math.isfinite(g) for g in gaps + [report.get("observed_mrg", math.nan)]):
        problems.append("non-finite gap")
    return problems


def load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
