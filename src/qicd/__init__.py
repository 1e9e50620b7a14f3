"""Community detection toolkit: Louvain/Leiden optimizers, quantum-inspired
refinement (QICD), and a benchmark/statistics layer."""

from .bench import (
    MrgReport,
    PlantedSpec,
    TrialSample,
    calibrate_planted,
    degree_preserving_rewire,
    generate_planted,
    mrg_significance,
    ring_of_cliques,
    run_experiment,
)
from .detect import (
    DetectorConfig,
    community_connectivity_ok,
    leiden,
    leiden_local_move,
    leiden_refine,
    louvain,
)
from .engine import (
    IterationRecord,
    QicdConfig,
    QicdResult,
    mrg,
    run_qicd,
)
from .graph import (
    EdgeListError,
    Graph,
    build_graph,
    dump_edge_list,
    load_edge_list,
    load_labeled_edge_list,
)
from .partition import (
    NEW_COMMUNITY,
    Partition,
    aggregate,
    community_members,
    delta_q_move,
    labels_from_csv,
    modularity,
    partition_to_csv,
    partition_to_json,
    singleton_partition,
)
from .rng import RNG_NAME, make_rng, mix
from .sampling import (
    HyperuniformParams,
    PerturbationKind,
    WeightVector,
    hu_noise,
    hyperuniform_adjust,
    propose_partition,
    sample_haar_weights,
    sample_pt_weights,
)
from .stats import (
    StatsSummary,
    WelchResult,
    regularized_incomplete_beta,
    student_t_ppf,
    student_t_sf,
    summarize,
    summarize_moments,
    welch_from_moments,
    welch_t_test,
)

__version__ = "0.1.0"
