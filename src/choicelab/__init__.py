"""choicelab: inference for comparison-based and distance-comparison-based choice rules.

A position-selecting rule over a hidden one-dimensional embedding picks
the position-th smallest member of every k-set. This package provides
the ground-truth machinery (core, oracles) and the inference algorithms
that recover such rules from active queries (active), from a population
mixture of rules (mixture), and from a passively observed stream of
choices (passive), plus distance-comparison choice procedures over
metric embeddings (distance) and a reproducible experiment harness with
a CLI (harness, cli).
"""

from .core import (
    Alternative,
    InvalidQueryError,
    KSet,
    LatentOrder,
    PositionSelector,
    canonical_position,
    evaluate,
    evaluate_many,
    exhibits_choice_set_effects,
    ineligible_set,
    kset,
)
from .oracles import (
    DeterministicOracle,
    MixedOracle,
    MixtureDistribution,
    ObservationBatch,
    StreamConfig,
    feasible_gamma,
    sample_phase,
)
from .active import (
    InconsistentOracleError,
    RecoveredModel,
    RecoveryStats,
    classify_type,
    discard_ineligible,
    predict,
    predict_many,
    recover_choice_function,
)
from .mixture import (
    AlignmentFailureError,
    MixtureEstimate,
    NoisyComparator,
    align_frequency_tables,
    best_reflection_error,
    estimate_mixture,
    noisy_sort,
    orders_match_up_to_reflection,
    recover_mixed,
)
from .passive import (
    UNRESOLVED,
    CoverageReport,
    InconsistentStreamError,
    InferredPartialOrder,
    InsufficientCoverageError,
    answer_query,
    build_partial_order,
    coverage_report,
    find_ineligible_passive,
)
from .distance import (
    AmbiguousDistancesError,
    InvalidArityError,
    MetricPoints,
    PairDistanceOracle,
    crowd_median_sort,
    farthest_pair_removal_is_exact,
    feasibility_check,
    median_choice,
    outlier_choice,
    sum_of_distances_minimizer,
    triplet_distance_correspondence,
)
from .harness import ExperimentConfig, TrialReport, emit, query_curve, run

__version__ = "0.1.0"
