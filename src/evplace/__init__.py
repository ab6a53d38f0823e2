"""Ensemble place recognition for event cameras.

Event streams are split into temporal windows of several fixed sizes in
parallel, each window family yields its own descriptor sequence and
query-reference distance matrix, and the matrices are fused by an
elementwise combination rule before matching.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .descriptors import (
    AccumulationMode,
    DescriptorParams,
    DescriptorSequence,
    accumulate_image,
    describe_window_set,
    load_descriptors,
    sad_descriptor,
    write_descriptors,
)
from .distance import (
    DistanceMatrix,
    Metric,
    best_match_per_query,
    build_distance_matrix,
    cosine_distance,
    read_matrix_csv,
    sad_distance,
    write_matrix_csv,
)
from .ensemble import (
    EnsembleRule,
    RuleKind,
    approximate_combine,
    combine,
    enumerate_weight_grid,
    weight_grid_search,
)
from .errors import (
    AlignmentError,
    BoundsError,
    ConfigError,
    DegenerateDescriptorError,
    EvPlaceError,
    MissingGroundTruthError,
    OrderingError,
    ParseError,
)
from .evaluation import (
    EvalResult,
    GroundTruth,
    interpolate_ground_truth,
    precision_at_full_recall,
    precision_recall_curve,
    precision_vs_loc_threshold,
    read_ground_truth_csv,
    write_eval_results_csv,
    write_ground_truth_csv,
)
from .events import (
    EventStream,
    SensorGeometry,
    filter_bursts,
    parse_event_csv,
    remove_hot_pixels,
    write_event_csv,
)
from .pipeline import (
    PipelineResult,
    describe_traverse,
    run_from_sequences,
    run_place_recognition,
)
from .synthetic import (
    SyntheticWorld,
    TraverseParams,
    generate_traverse,
    generate_world,
    pair_ground_truth,
    run_synthetic_experiment,
)
from .windowing import (
    WindowFamily,
    align_to_time,
    build_window_set,
    normalized_count,
    sample_grid,
    split_fixed_count,
    split_fixed_time,
    window_families,
)

__all__ = [
    "__version__",
    "AccumulationMode",
    "AlignmentError",
    "BoundsError",
    "ConfigError",
    "DegenerateDescriptorError",
    "DescriptorParams",
    "DescriptorSequence",
    "DistanceMatrix",
    "EnsembleRule",
    "EvPlaceError",
    "EvalResult",
    "EventStream",
    "GroundTruth",
    "Metric",
    "MissingGroundTruthError",
    "OrderingError",
    "ParseError",
    "PipelineResult",
    "RuleKind",
    "SensorGeometry",
    "SyntheticWorld",
    "TraverseParams",
    "WindowFamily",
    "accumulate_image",
    "align_to_time",
    "approximate_combine",
    "best_match_per_query",
    "build_distance_matrix",
    "build_window_set",
    "combine",
    "cosine_distance",
    "describe_traverse",
    "describe_window_set",
    "enumerate_weight_grid",
    "filter_bursts",
    "generate_traverse",
    "generate_world",
    "interpolate_ground_truth",
    "load_descriptors",
    "normalized_count",
    "pair_ground_truth",
    "parse_event_csv",
    "precision_at_full_recall",
    "precision_recall_curve",
    "precision_vs_loc_threshold",
    "read_ground_truth_csv",
    "read_matrix_csv",
    "remove_hot_pixels",
    "run_from_sequences",
    "run_place_recognition",
    "run_synthetic_experiment",
    "sad_descriptor",
    "sad_distance",
    "sample_grid",
    "split_fixed_count",
    "split_fixed_time",
    "weight_grid_search",
    "window_families",
    "write_descriptors",
    "write_event_csv",
    "write_eval_results_csv",
    "write_ground_truth_csv",
    "write_matrix_csv",
]
