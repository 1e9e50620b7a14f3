"""The quantum-inspired refinement loop (QICD).

Each iteration locally refines the current partition (greedy move sweeps
plus a connectivity split), draws a structured random proposal, and accepts
the proposal only if its modularity strictly beats the refined partition.
The best partition seen is tracked across iterations; the modularity
recovery gap (MRG), q_star - q_baseline, compares it against an independent
full classical run.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .detect import DetectorConfig, leiden, leiden_refine, louvain, move_nodes, seeded_pass
from .graph import Graph
from .partition import Partition, modularity, singleton_partition
from .rng import make_rng, mix
from .sampling import (
    HyperuniformParams,
    hu_noise,
    hyperuniform_adjust,
    propose_partition,
    sample_haar_weights,
    sample_pt_weights,
)

INIT_MODES = ("singleton", "quick-leiden")
BASE_METHODS = ("leiden", "louvain")
# Proposal kinds: Porter-Thomas (pt) or Haar weights, alone or followed by
# the hyperuniform adjustment, or hyperuniform noise (hu) alone.
KIND_NAMES = ("pt", "haar", "hu", "pt-hu", "haar-hu")


@dataclass(frozen=True)
class QicdConfig:
    kind: str = "haar"
    # Proposal seed count K of the weight-based kinds; None defers to
    # ceil(sqrt(n)) at run time. The hu kind ignores it.
    proposal_seeds: int | None = None
    iterations: int = 10
    stall_limit: int = 5
    hu: HyperuniformParams = field(default_factory=HyperuniformParams)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    init_mode: str = "quick-leiden"
    # Classical optimizer used for the quick init and the MRG baseline.
    base: str = "leiden"
    # When set, each proposal is polished by a full seeded base-method pass
    # before the acceptance comparison, so the check weighs what the
    # proposal becomes rather than its raw form. Off by default: the plain
    # rule compares the raw proposal, which on refined incumbents almost
    # never accepts.
    refine_before_accept: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KIND_NAMES:
            raise ValueError(f"unknown perturbation kind {self.kind!r}; expected one of {KIND_NAMES}")
        if self.proposal_seeds is not None and self.proposal_seeds < 1:
            raise ValueError("proposal_seeds must be >= 1")
        # iterations = 0 disables proposals entirely (degenerate but legal).
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.stall_limit < 1:
            raise ValueError("stall_limit must be >= 1")
        if self.init_mode not in INIT_MODES:
            raise ValueError(f"init_mode must be one of {INIT_MODES}")
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
        return hu_noise(graph, current, cfg.hu, rng)
    sample = sample_pt_weights if cfg.kind.startswith("pt") else sample_haar_weights
    proposal = propose_partition(graph, sample(graph.node_count, rng), seed_count)
    if cfg.kind.endswith("-hu"):
        proposal = hyperuniform_adjust(graph, proposal, cfg.hu, rng)
    return proposal


def draws_weights(kind: str) -> bool:
    """Whether a proposal kind draws weights, so that K applies to it."""
    return kind != "hu"


def resolve_seed_count(cfg: QicdConfig, n: int) -> int | None:
    if not draws_weights(cfg.kind):
        return None
    k = cfg.proposal_seeds if cfg.proposal_seeds is not None else math.ceil(math.sqrt(n))
    return max(1, min(k, n))


def run_qicd(graph: Graph, cfg: QicdConfig) -> QicdResult:
    """Run the refinement loop and return the best partition with its trace.

    The baseline is an independent full classical run (cfg.base with
    cfg.detector). init_mode "quick-leiden" starts the loop from that same
    deterministic partition, so the best result can never fall below the
    baseline; "singleton" starts from every node alone.
    """
    detect = louvain if cfg.base == "louvain" else leiden
    baseline_partition = detect(graph, cfg.detector)
    resolution = cfg.detector.resolution
    q_baseline = modularity(graph, baseline_partition, resolution)

    if cfg.init_mode == "quick-leiden":
        current, q_star = baseline_partition, q_baseline
    else:
        current = singleton_partition(graph)
        q_star = modularity(graph, current, resolution)
    best = current
    seed_count = resolve_seed_count(cfg, graph.node_count)

    trace: list[IterationRecord] = []
    stall = 0
    # Refinement is idempotent on its own output: once the incumbent has
    # been refined and no proposal replaced it, re-refining would only chase
    # gains below min_gain, so it is refined at t = 1 and after each
    # acceptance only.
    accepted = True
    for t in range(1, cfg.iterations + 1):
        started = time.perf_counter()
        rng = make_rng(mix(cfg.seed, t))
        if accepted:
            current = leiden_refine(graph, move_nodes(graph, current, cfg.detector, rng))
            q_ref = modularity(graph, current, resolution)
        proposal = _propose(graph, current, cfg, seed_count, rng)
        if cfg.refine_before_accept:
            proposal = seeded_pass(
                graph, proposal, cfg.detector, refine=cfg.base == "leiden", rng=rng
            )
        q_quant = modularity(graph, proposal, resolution)
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
    """JSON envelope: config echo (cfg as nested dicts) plus the headline
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
