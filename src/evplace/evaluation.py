"""Ground-truth handling and retrieval evaluation.

Ground truth is a sparse set of anchor correspondences between query and
reference traverse times.  :func:`interpolate_ground_truth` densifies the
anchors onto the query sample grid by linear interpolation, after which
every query sample has an expected reference time.

Two protocols are provided.  *Precision at full recall* forces every
query to retrieve its best match and scores the fraction landing within a
localization threshold.  *Precision-recall curves* additionally sweep a
similarity threshold below which a best match is deemed confident enough
to retrieve at all.
"""

from __future__ import annotations

import decimal
import logging
from dataclasses import dataclass

import numpy as np

from .distance import DistanceMatrix
from .errors import ConfigError, MissingGroundTruthError, OrderingError, ParseError
from .events import _check_increasing, _freeze, _read_only, _seconds_to_us, csv_rows, csv_table

logger = logging.getLogger(__name__)

DEFAULT_LOC_THRESHOLD_US = 5_000_000
DEFAULT_SWEEP_POINTS = 100

EVAL_CSV_HEADER = "threshold,precision,recall,tp,fp,retrieved,total"


@dataclass(frozen=True)
class GroundTruth:
    """Query-time to reference-time correspondences.

    Times are microseconds; reference times may be fractional after
    interpolation.  Query times are strictly increasing.
    """

    query_t_us: np.ndarray
    ref_t_us: np.ndarray

    def __post_init__(self):
        q, r = _freeze(self, query_t_us=np.float64, ref_t_us=np.float64)
        if q.ndim != 1 or r.ndim != 1 or q.size != r.size or q.size == 0:
            raise ConfigError("ground truth needs matching non-empty time vectors")
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(r))):
            raise ConfigError("ground truth times must be finite")
        _check_increasing(q, "ground-truth query times")

    def __len__(self) -> int:
        return int(self.query_t_us.size)


@dataclass(frozen=True)
class EvalResult:
    """Counts and rates of one evaluation at one operating point."""

    precision: float
    recall: float
    tp: int
    fp: int
    retrieved: int
    total_queries: int
    loc_threshold_us: int
    sim_threshold: float | None = None

    def __post_init__(self):
        if self.tp + self.fp != self.retrieved or self.retrieved > self.total_queries:
            raise ConfigError("inconsistent evaluation counts")
        if not (0.0 <= self.precision <= 1.0 and 0.0 <= self.recall <= 1.0):
            raise ConfigError("precision and recall must lie in [0, 1]")


def interpolate_ground_truth(
    anchors: GroundTruth, query_grid
) -> tuple[GroundTruth, np.ndarray]:
    """Densify anchor correspondences onto a query sample grid.

    Each grid time inside the anchor span gets a reference time linearly
    interpolated between its bracketing anchors.  Grid times outside the
    span have no bracketing pair; they are dropped and the count is
    logged.  Returns the truth on the kept grid times and the boolean mask
    over ``query_grid`` that selects them, so callers can drop the same
    rows from their own data.
    """
    if len(anchors) < 2:
        raise ConfigError("interpolation needs at least 2 anchor pairs")
    grid = np.array(query_grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0:
        raise ConfigError("query grid must be a non-empty 1-D array")
    _check_increasing(grid, "query grid")
    inside = (grid >= anchors.query_t_us[0]) & (grid <= anchors.query_t_us[-1])
    dropped = int(grid.size - inside.sum())
    if dropped:
        logger.info("dropped %d grid points outside ground-truth coverage", dropped)
    kept = _read_only(grid[inside])
    if kept.size == 0:
        raise ConfigError("no grid points inside ground-truth coverage")
    refs = _read_only(np.interp(kept, anchors.query_t_us, anchors.ref_t_us))
    return GroundTruth(kept, refs), inside


def is_true_positive(matched_ref_t_us, gt_ref_t_us, loc_threshold_us: int) -> bool:
    """Whether a retrieved reference time is close enough to the truth.

    The comparison is a closed interval: a difference of exactly the
    threshold still counts.
    """
    if loc_threshold_us <= 0:
        raise ConfigError(f"loc_threshold_us must be positive, got {loc_threshold_us}")
    return bool(abs(float(matched_ref_t_us) - float(gt_ref_t_us)) <= loc_threshold_us)


def _expected_refs(matrix: DistanceMatrix, gt: GroundTruth) -> np.ndarray:
    """Ground-truth reference time per matrix query row (exact time match)."""
    pos = np.searchsorted(gt.query_t_us, matrix.query_t_us.astype(np.float64))
    bad = (pos >= len(gt)) | (gt.query_t_us[np.minimum(pos, len(gt) - 1)] != matrix.query_t_us)
    if np.any(bad):
        missing = matrix.query_t_us[np.flatnonzero(bad)[0]]
        raise MissingGroundTruthError(f"no ground truth for query time {int(missing)}")
    return gt.ref_t_us[pos]


def _true_positive_flags(
    matrix: DistanceMatrix, gt: GroundTruth, loc_threshold_us: int
) -> np.ndarray:
    if loc_threshold_us <= 0:
        raise ConfigError(f"loc_threshold_us must be positive, got {loc_threshold_us}")
    expected = _expected_refs(matrix, gt)
    best = np.argmin(matrix.values, axis=1)
    matched = matrix.ref_t_us[best].astype(np.float64)
    return np.abs(matched - expected) <= loc_threshold_us


def precision_at_full_recall(
    matrix: DistanceMatrix,
    gt: GroundTruth,
    loc_threshold_us: int = DEFAULT_LOC_THRESHOLD_US,
) -> EvalResult:
    """Score top-1 retrieval for every query (no rejection option).

    Every query retrieves its nearest reference sample; the retrieval is
    correct when it lies within ``loc_threshold_us`` of the interpolated
    truth.  Recall is identically 1 under this protocol.
    """
    flags = _true_positive_flags(matrix, gt, loc_threshold_us)
    n = flags.size
    tp = int(flags.sum())
    return EvalResult(
        precision=tp / n,
        recall=1.0,
        tp=tp,
        fp=n - tp,
        retrieved=n,
        total_queries=n,
        loc_threshold_us=int(loc_threshold_us),
        sim_threshold=None,
    )


def default_similarity_sweep(
    matrix: DistanceMatrix, n_points: int = DEFAULT_SWEEP_POINTS
) -> np.ndarray:
    """Evenly spaced thresholds spanning the range of per-query minima."""
    row_min = matrix.values.min(axis=1)
    return np.linspace(float(row_min.min()), float(row_min.max()), n_points)


def precision_recall_curve(
    matrix: DistanceMatrix,
    gt: GroundTruth,
    loc_threshold_us: int = DEFAULT_LOC_THRESHOLD_US,
    sweep=None,
) -> list[EvalResult]:
    """Precision/recall at each similarity threshold of an ascending sweep.

    A query retrieves its best match only when that match's distance is
    strictly below the threshold.  Precision is over retrieved queries
    (1.0 when nothing is retrieved); recall is over all queries.
    """
    if sweep is None:
        sweep = default_similarity_sweep(matrix)
    sweep = np.array(sweep, dtype=np.float64)
    if sweep.ndim != 1 or sweep.size == 0:
        raise ConfigError("sweep must be a non-empty 1-D array")
    if np.any(np.diff(sweep) < 0):
        raise OrderingError("sweep thresholds must be ascending")
    flags = _true_positive_flags(matrix, gt, loc_threshold_us)
    row_min = matrix.values.min(axis=1)
    n = flags.size
    results = []
    for s in sweep:
        retrieved_mask = row_min < s
        retrieved = int(retrieved_mask.sum())
        tp = int((flags & retrieved_mask).sum())
        results.append(
            EvalResult(
                precision=tp / retrieved if retrieved else 1.0,
                recall=tp / n,
                tp=tp,
                fp=retrieved - tp,
                retrieved=retrieved,
                total_queries=n,
                loc_threshold_us=int(loc_threshold_us),
                sim_threshold=float(s),
            )
        )
    return results


def precision_vs_loc_threshold(
    matrix: DistanceMatrix, gt: GroundTruth, thresholds
) -> list[EvalResult]:
    """Precision at full recall for each localization threshold."""
    thresholds = list(thresholds)
    if not thresholds:
        raise ConfigError("thresholds must be non-empty")
    if any(b < a for a, b in zip(thresholds, thresholds[1:])):
        raise OrderingError("thresholds must be ascending")
    return [precision_at_full_recall(matrix, gt, int(t)) for t in thresholds]


def _us_to_seconds_field(t_us: float) -> str:
    d = decimal.Decimal(repr(float(t_us))).scaleb(-6).normalize()
    return format(d, "f")


def read_ground_truth_csv(source) -> GroundTruth:
    """Parse ``t_query_s,t_ref_s`` rows (seconds, no header)."""
    qs, rs = csv_table(csv_rows(source), _seconds_to_us, "s", 1, _seconds_to_us, typecode="d")
    if not qs.size:
        raise ParseError("ground-truth CSV is empty")
    return GroundTruth(qs, rs[:, 0])


def write_ground_truth_csv(gt: GroundTruth) -> bytes:
    """Serialize ground truth as ``t_query_s,t_ref_s`` rows (seconds).

    Times are stored with the decimal point shifted six places, so reading
    the file back recovers the microsecond values bit-exactly.
    """
    lines = [
        f"{_us_to_seconds_field(q)},{_us_to_seconds_field(r)}"
        for q, r in zip(gt.query_t_us, gt.ref_t_us)
    ]
    return ("\n".join(lines) + "\n").encode("utf-8")


def write_eval_results_csv(results: list[EvalResult] | tuple[EvalResult, ...]) -> bytes:
    """Serialize results with a ``threshold,precision,...`` header row.

    The threshold column carries the similarity threshold when one was
    swept, otherwise the localization threshold in microseconds.
    """
    if not results:
        raise ConfigError("no results to write")
    lines = [EVAL_CSV_HEADER]
    for r in results:
        thr = repr(float(r.sim_threshold)) if r.sim_threshold is not None else str(r.loc_threshold_us)
        lines.append(
            f"{thr},{r.precision!r},{r.recall!r},{r.tp},{r.fp},{r.retrieved},{r.total_queries}"
        )
    return ("\n".join(lines) + "\n").encode("utf-8")
