"""The quantum-inspired refinement loop (QICD).

The loop starts from a full classical run, the baseline. Each iteration
locally refines the current partition (greedy move sweeps plus a
connectivity split), draws a structured random proposal, and accepts the
proposal only if its modularity strictly beats the refined partition. The
best partition seen is tracked across iterations; the modularity recovery
gap (MRG), q_star - q_baseline, is what the loop adds to its baseline.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .detect import leiden, leiden_refine, louvain, move_nodes, seeded_pass
from .graph import Graph
from .partition import Partition, modularity
from .rng import make_rng, mix
from .sampling import hu_noise, hyperuniform_adjust, propose_partition, sample_haar_weights, sample_pt_weights

BASE_METHODS = ("leiden", "louvain")
# Proposal kinds: Porter-Thomas (pt) or Haar weights, alone or followed by
# the hyperuniform adjustment, or hyperuniform noise (hu) alone.
KIND_NAMES = ("pt", "haar", "hu", "pt-hu", "haar-hu")


@dataclass(frozen=True)
class QicdConfig:
    kind: str = "haar"
    iterations: int = 10
    stall_limit: int = 5
    # Classical optimizer of the MRG baseline, which is also the loop's start.
    base: str = "leiden"
    # When set, each proposal is polished by a full seeded base-method pass
    # before the acceptance comparison, so the check weighs what the
    # proposal becomes rather than its raw form. Off by default: the plain
    # rule compares the raw proposal, which on refined incumbents almost
    # never accepts.
    refine_before_accept: bool = False
    # The run's one seed. The baseline's node-visit order is drawn at seed
    # and the loop's streams from mix(seed, 1): every protocol compares a
    # loop with the baseline it starts from, so no caller seeds them apart.
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KIND_NAMES:
            raise ValueError(f"unknown perturbation kind {self.kind!r}; expected one of {KIND_NAMES}")
        # iterations = 0 disables proposals entirely (degenerate but legal).
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.stall_limit < 1:
            raise ValueError("stall_limit must be >= 1")
        if self.base not in BASE_METHODS:
            raise ValueError(f"base must be one of {BASE_METHODS}")


@dataclass(frozen=True)
class IterationRecord:
    t: int
    q_ref: float
    q_quant: float
    accepted: bool  # true iff q_quant > q_ref, strictly
    communities: int  # community count of the proposal
    millis: float  # wall time of the iteration


@dataclass
class QicdResult:
    best_partition: Partition
    q_star: float
    q_baseline: float
    mrg: float  # q_star - q_baseline
    trace: list[IterationRecord]
    proposal_seed_count: int | None  # resolved K, None for the noise-only kind


def _propose(
    graph: Graph,
    current: Partition,
    cfg: QicdConfig,
    seed_count: int | None,
    rng: np.random.Generator,
) -> Partition:
    if seed_count is None:
        return hu_noise(graph, current, rng)
    sample = sample_pt_weights if cfg.kind.startswith("pt") else sample_haar_weights
    proposal = propose_partition(graph, sample(graph.node_count, rng), seed_count)
    if cfg.kind.endswith("-hu"):
        proposal = hyperuniform_adjust(graph, proposal, rng)
    return proposal


def run_qicd(graph: Graph, cfg: QicdConfig) -> QicdResult:
    """Run the refinement loop and return the best partition with its trace.

    The baseline is a full classical run of cfg.base at cfg.seed, and the
    loop starts from that partition. The best is kept across
    iterations, so q_star >= q_baseline, and the MRG is >= 0, for every
    config.
    """
    detect = louvain if cfg.base == "louvain" else leiden
    baseline_partition = detect(graph, cfg.seed)
    q_baseline = modularity(graph, baseline_partition)

    current = best = baseline_partition
    q_star = q_baseline
    # The weight-based kinds grow proposals from the K = ceil(sqrt(n))
    # heaviest nodes; hu draws no weights.
    seed_count = None if cfg.kind == "hu" else math.ceil(math.sqrt(graph.node_count))

    trace: list[IterationRecord] = []
    stall = 0
    # Refinement is idempotent on its own output: once the incumbent has
    # been refined and no proposal replaced it, re-refining would only chase
    # gains below MIN_GAIN, so it is refined at t = 1 and after each
    # acceptance only.
    accepted = True
    loop_seed = mix(cfg.seed, 1)
    for t in range(1, cfg.iterations + 1):
        started = time.perf_counter()
        rng = make_rng(mix(loop_seed, t))
        if accepted:
            current = leiden_refine(graph, move_nodes(graph, current, rng))
            q_ref = modularity(graph, current)
        proposal = _propose(graph, current, cfg, seed_count, rng)
        if cfg.refine_before_accept:
            proposal = seeded_pass(graph, proposal, rng, refine=cfg.base == "leiden")
        q_quant = modularity(graph, proposal)
        accepted = q_quant > q_ref
        if accepted:
            current = proposal
        q_now = q_quant if accepted else q_ref
        if q_now > q_star:
            q_star = q_now
            best = current
            stall = 0
        else:
            stall += 1
        trace.append(
            IterationRecord(
                t=t,
                q_ref=q_ref,
                q_quant=q_quant,
                accepted=accepted,
                communities=proposal.community_count,
                millis=(time.perf_counter() - started) * 1000.0,
            )
        )
        if stall >= cfg.stall_limit:
            break

    return QicdResult(
        best_partition=best,
        q_star=q_star,
        q_baseline=q_baseline,
        mrg=q_star - q_baseline,
        trace=trace,
        proposal_seed_count=seed_count,
    )


def trace_to_csv(trace: list[IterationRecord]) -> str:
    lines = ["t,Q_ref,Q_quant,accepted,communities,millis"]
    for r in trace:
        lines.append(f"{r.t},{r.q_ref!r},{r.q_quant!r},{int(r.accepted)},{r.communities},{r.millis:.3f}")
    return "\n".join(lines) + "\n"


def result_to_json(result: QicdResult, cfg: QicdConfig) -> dict:
    """JSON envelope: config echo (cfg as a dict) plus the headline
    numbers."""
    return {
        "config": asdict(cfg),
        "proposal_seed_count": result.proposal_seed_count,
        "Q_baseline": result.q_baseline,
        "Q_star": result.q_star,
        "mrg": result.mrg,
        "iterations_run": len(result.trace),
        "accepted_count": sum(1 for r in result.trace if r.accepted),
    }
