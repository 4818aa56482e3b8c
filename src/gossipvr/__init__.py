"""Decentralized finite-sum optimization over time-varying gossip networks."""

from .network import (
    GossipMatrix,
    GraphSequence,
    RandomGeometricSequence,
    RotatingStarSequence,
    StaticSequence,
    TwoStarHopSequence,
    WeightedGraph,
    gossip_from_laplacian,
    measure_chi,
)
from .objectives import (
    DatasetShard,
    FiniteSumObjective,
    SmoothnessInfo,
    finite_difference_check,
    logistic_objective,
    nlls_objective,
)
from .hardinstances import (
    ChainObjective,
    lower_bound_value,
    nonconvex_hard_objective,
    prog,
    progress_audit,
    zero_chain_l,
)
from .optimizers import (
    AdomVr,
    GtBaseline,
    GtPage,
    RunBudgets,
    RunTrace,
    adom_vr_params,
    gt_page_params,
    run,
)
from .harness import ExperimentConfig, parse_libsvm, partition_dataset, reference_solution, run_experiment

__version__ = "0.1.0"
