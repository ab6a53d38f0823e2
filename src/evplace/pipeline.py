"""End-to-end composition: streams to descriptors to fused evaluation.

This is plumbing shared by the synthetic benchmark and the command line.
The flow is fixed: for each traverse, a sample grid and one descriptor
sequence per window family (:func:`describe_traverse`, which needs nothing
of the other traverse); then one distance matrix per family, a fused
matrix under the configured rule, optionally the approximate ensemble,
and precision at full recall for everything (:func:`run_from_sequences`).

Ground-truth anchors are interpolated onto the query grid first; grid
points outside anchor coverage are dropped from the whole pipeline so
every evaluated query has a defined truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .descriptors import DescriptorParams, DescriptorSequence, describe_window_set
from .distance import DistanceMatrix, Metric, build_distance_matrix
from .ensemble import EnsembleRule, RuleKind, approximate_combine, combine
from .errors import ConfigError
from .evaluation import (
    DEFAULT_LOC_THRESHOLD_US,
    EvalResult,
    GroundTruth,
    interpolate_ground_truth,
    precision_at_full_recall,
)
from .events import EventStream, _read_only
from .windowing import (
    DEFAULT_APPROX_FRACTION,
    DEFAULT_GRID_DT_US,
    build_window_set,  # noqa: F401  (a name perfbench/tracing.py hooks)
    sample_grid,
    split_fixed_count,  # noqa: F401  (a name perfbench/tracing.py hooks)
    window_families,
)


@dataclass(frozen=True)
class PipelineResult:
    """Everything one place-recognition run produced."""

    members: tuple[DistanceMatrix, ...]
    fused: DistanceMatrix
    approximate: DistanceMatrix | None
    ground_truth: GroundTruth
    member_evals: tuple[EvalResult, ...]
    fused_eval: EvalResult
    approximate_eval: EvalResult | None
    dropped_grid_points: int

    @property
    def member_precisions(self) -> tuple[float, ...]:
        return tuple(e.precision for e in self.member_evals)


def run_from_sequences(
    query_seqs: list[DescriptorSequence] | tuple[DescriptorSequence, ...],
    reference_seqs: list[DescriptorSequence] | tuple[DescriptorSequence, ...],
    anchors: GroundTruth,
    metric: Metric = Metric.COSINE,
    rule: EnsembleRule = EnsembleRule(RuleKind.MEAN),
    loc_threshold_us: int = DEFAULT_LOC_THRESHOLD_US,
    approximate_query: DescriptorSequence | None = None,
) -> PipelineResult:
    """Distance, fusion, and evaluation over prebuilt descriptor sequences.

    Query sequences must share one sample grid (likewise references); grid
    points without ground-truth coverage are dropped from the query side.
    ``approximate_query`` adds the single-query-family ensemble.  It rides
    with the member query sequences through the one grid check and the one
    restriction, and is split off after them.
    """
    if len(query_seqs) != len(reference_seqs) or not query_seqs:
        raise ConfigError("need equally many query and reference sequences")
    with_approx = approximate_query is not None
    query_seqs = [*query_seqs, approximate_query] if with_approx else list(query_seqs)
    q_grid = query_seqs[0].t_us
    for s in query_seqs[1:]:
        if not np.array_equal(s.t_us, q_grid):
            raise ConfigError(f"query sequence {s.label} is not grid-aligned")

    gt, keep = interpolate_ground_truth(anchors, q_grid)
    dropped = int(q_grid.size - keep.sum())
    if dropped:
        grid = _read_only(q_grid[keep])  # the one restricted grid every sequence shares
        query_seqs = [
            DescriptorSequence(s.label, grid, _read_only(s.values[keep])) for s in query_seqs
        ]
    approximate_query = query_seqs.pop() if with_approx else None

    members = tuple(
        build_distance_matrix(q, r, metric)
        for q, r in zip(query_seqs, reference_seqs)
    )
    fused = combine(members, rule)
    fused_eval = precision_at_full_recall(fused, gt, loc_threshold_us)
    member_evals = tuple(
        precision_at_full_recall(m, gt, loc_threshold_us) for m in members
    )

    approx = approx_eval = None
    if approximate_query is not None:
        approx = approximate_combine(approximate_query, list(reference_seqs), metric)
        approx_eval = precision_at_full_recall(approx, gt, loc_threshold_us)

    return PipelineResult(
        members=members,
        fused=fused,
        approximate=approx,
        ground_truth=gt,
        member_evals=member_evals,
        fused_eval=fused_eval,
        approximate_eval=approx_eval,
        dropped_grid_points=dropped,
    )


def describe_traverse(
    stream: EventStream,
    counts=None,
    spans_us=None,
    descriptor: DescriptorParams = DescriptorParams(),
    grid_dt_us: int = DEFAULT_GRID_DT_US,
    approximate_fraction: float | None = None,
) -> tuple[list[DescriptorSequence], DescriptorSequence | None]:
    """One traverse's descriptor sequences, one per window family, on its grid.

    This is all the work on one side before the two sides meet in
    :func:`run_from_sequences`, so the query and reference sides can be
    described independently (the command line runs them in two processes).
    ``counts`` and ``spans_us`` follow
    :func:`evplace.windowing.window_families`.  With
    ``approximate_fraction`` set (the query side), the second value is the
    approximate ensemble's single fixed-count family, sized as that
    fraction of the pixel count, on the same grid; otherwise it is ``None``.
    Both come from one :func:`describe_window_set` call, which describes
    only the windows the grid selects.
    """
    grid = sample_grid(stream, grid_dt_us)
    if grid.size == 0:
        raise ConfigError("cannot sample an empty stream")
    families = window_families(counts, spans_us, stream.geometry)
    if approximate_fraction is not None:
        families += window_families([float(approximate_fraction)], [], stream.geometry)
    sequences = describe_window_set(families, stream, grid, descriptor)
    if approximate_fraction is None:
        return sequences, None
    return sequences[:-1], sequences[-1]


def run_place_recognition(
    query_stream: EventStream,
    reference_stream: EventStream,
    anchors: GroundTruth,
    counts=None,
    spans_us=None,
    descriptor: DescriptorParams = DescriptorParams(),
    metric: Metric = Metric.COSINE,
    rule: EnsembleRule = EnsembleRule(RuleKind.MEAN),
    grid_dt_us: int = DEFAULT_GRID_DT_US,
    loc_threshold_us: int = DEFAULT_LOC_THRESHOLD_US,
    approximate_fraction: float | None = DEFAULT_APPROX_FRACTION,
) -> PipelineResult:
    """Full run from two event streams and ground-truth anchors.

    ``counts`` and ``spans_us`` follow
    :func:`evplace.windowing.window_families`.  Set
    ``approximate_fraction`` to ``None`` to skip the approximate ensemble;
    otherwise it sizes the single query-side window family as a fraction
    of the pixel count.  A rule that cannot fuse one member per window
    family is refused before either stream is described.
    """
    rule.check_members(len(window_families(counts, spans_us, query_stream.geometry)))
    if query_stream.geometry != reference_stream.geometry:
        raise ConfigError("query and reference streams need one sensor geometry")
    q_seqs, approx_query = describe_traverse(
        query_stream, counts, spans_us, descriptor, grid_dt_us, approximate_fraction
    )
    r_seqs, _ = describe_traverse(reference_stream, counts, spans_us, descriptor, grid_dt_us)
    return run_from_sequences(
        q_seqs,
        r_seqs,
        anchors,
        metric=metric,
        rule=rule,
        loc_threshold_us=loc_threshold_us,
        approximate_query=approx_query,
    )
