"""Distance metrics and query-by-reference distance matrices.

A :class:`DistanceMatrix` holds the pairwise distances between one query
descriptor sequence and one reference sequence, tagged with a member label
so fused matrices stay traceable to the window families they came from.

Matrix products are computed with plain broadcast-and-sum reductions
rather than BLAS calls: results must be bit-identical across machines for
the golden-output tests, and BLAS backends are free to reorder sums.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass

import numpy as np

from .descriptors import DescriptorSequence, _float_rows
from .errors import ConfigError, DegenerateDescriptorError, OrderingError, ParseError
from .events import _check_increasing, _freeze, _read_only, csv_rows, csv_table


class Metric(enum.Enum):
    COSINE = "cosine"
    SAD = "sad"


def _vector(d) -> np.ndarray:
    v = np.asarray(d, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ConfigError("expected a non-empty 1-D descriptor vector")
    return v


def cosine_distance(a, b) -> float:
    """Cosine distance ``1 - a.b / (|a||b|)``, in ``[0, 2]``.

    Computed as half the squared chord between the unit vectors, which is
    the same quantity but returns exact ``0.0`` for identical inputs and
    exact ``2.0`` for opposite ones.  Zero-norm inputs have no direction
    and are rejected.
    """
    va, vb = _vector(a), _vector(b)
    if va.size != vb.size:
        raise ConfigError(f"dimension mismatch: {va.size} vs {vb.size}")
    na = np.sqrt((va * va).sum())
    nb = np.sqrt((vb * vb).sum())
    if na == 0.0 or nb == 0.0:
        raise DegenerateDescriptorError("cosine distance undefined for zero vectors")
    diff = va / na - vb / nb
    return float(min(0.5 * (diff * diff).sum(), 2.0))


def sad_distance(a, b) -> float:
    """Mean absolute difference between two descriptors."""
    va, vb = _vector(a), _vector(b)
    if va.size != vb.size:
        raise ConfigError(f"dimension mismatch: {va.size} vs {vb.size}")
    return float(np.abs(va - vb).mean())


@dataclass(frozen=True)
class DistanceMatrix:
    """Query-by-reference distances for one ensemble member.

    ``values[i, j]`` is the distance between query sample ``i`` and
    reference sample ``j``; the timestamp vectors give the sample times of
    the two axes.
    """

    values: np.ndarray
    query_t_us: np.ndarray
    ref_t_us: np.ndarray
    member_label: str

    def __post_init__(self):
        v, qt, rt = _freeze(self, values=np.float64, query_t_us=np.int64, ref_t_us=np.int64)
        if v.ndim != 2 or v.shape != (qt.size, rt.size) or v.size == 0:
            raise ConfigError("distance matrix shape does not match its timestamps")
        if not np.all(np.isfinite(v)):
            raise ConfigError("distance matrix contains non-finite entries")
        for ts in (qt, rt):
            _check_increasing(ts, "matrix timestamps")

    @property
    def n_queries(self) -> int:
        return int(self.values.shape[0])

    @property
    def n_refs(self) -> int:
        return int(self.values.shape[1])


def _unit_rows(seq: DescriptorSequence, side: str) -> np.ndarray:
    values = seq.values
    norms = np.sqrt((values * values).sum(axis=1))
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        first_s = float(seq.t_us[zero[0]]) / 1e6
        raise DegenerateDescriptorError(
            f"{side} {seq.label}: {zero.size} zero-norm descriptor(s), the first at "
            f"t={first_s!r} s, cannot be compared with cosine"
        )
    return values / norms[:, None]


def pair_label(query_label: str, reference_label: str) -> str:
    """The common source label of a matrix's two sides, or ``q_vs_r``."""
    return query_label if query_label == reference_label else f"{query_label}_vs_{reference_label}"


def build_distance_matrix(
    query: DescriptorSequence, reference: DescriptorSequence, metric: Metric
) -> DistanceMatrix:
    """All pairwise distances between a query and a reference sequence.

    Both sequences must be non-empty and share one descriptor dimension.
    The member label is :func:`pair_label` of the two sides.

    Every row reuses one ``R x D`` buffer, with the operations and order a
    fresh per-row temporary had, so the bytes are the same; a fresh one
    above the 1 MiB mmap threshold set at process entry faults anew per row.
    """
    if len(query) == 0 or len(reference) == 0:
        raise ConfigError("distance matrix needs non-empty sequences")
    if query.dim != reference.dim:
        raise ConfigError(f"dimension mismatch: {query.dim} vs {reference.dim}")
    label = pair_label(query.label, reference.label)
    out = np.empty((len(query), len(reference)), dtype=np.float64)
    if metric is Metric.COSINE:
        qh = _unit_rows(query, "query")
        rh = _unit_rows(reference, "reference")
        diff = np.empty_like(rh)
        for i in range(qh.shape[0]):
            np.subtract(rh, qh[i], out=diff)
            np.multiply(diff, diff, out=diff).sum(axis=1, out=out[i])
        out *= 0.5
        np.clip(out, 0.0, 2.0, out=out)
    elif metric is Metric.SAD:
        diff = np.empty_like(reference.values)
        for i in range(out.shape[0]):
            np.subtract(reference.values, query.values[i], out=diff)
            np.abs(diff, out=diff).mean(axis=1, out=out[i])
    else:
        raise ConfigError(f"unknown metric {metric!r}")
    return DistanceMatrix(_read_only(out), query.t_us, reference.t_us, label)


def best_match_per_query(matrix: DistanceMatrix) -> list[tuple[int, float]]:
    """Per query row: ``(argmin reference index, minimum distance)``.

    Ties resolve to the smallest reference index.
    """
    idx = np.argmin(matrix.values, axis=1)
    return [(int(j), float(matrix.values[i, j])) for i, j in enumerate(idx)]


def write_matrix_csv(matrix: DistanceMatrix) -> bytes:
    """Serialize a matrix: header of reference times, then ``t_q,d1,...``."""
    lines = [",".join(map(str, matrix.ref_t_us.tolist())) + "\n"]
    lines += _float_rows("%d", matrix.query_t_us, matrix.values)
    return "".join(lines).encode("utf-8")


def read_matrix_csv(source, member_label: str = "loaded") -> DistanceMatrix:
    """Parse a matrix written by :func:`write_matrix_csv`."""
    rows = csv_rows(source)
    lineno, fields = next(rows, (0, []))  # no header: no reference times, nor rows
    try:
        ref_t = array("q", map(int, fields))
    except (ValueError, OverflowError):
        raise ParseError("header must list int64 reference times", lineno) from None
    if any(later <= t for t, later in zip(ref_t, ref_t[1:])):
        raise OrderingError(f"line {lineno}: matrix timestamps must be strictly increasing")
    query_t, values = csv_table(rows, int, "us", width=len(ref_t))
    if not query_t.size:
        raise ParseError("matrix CSV needs a header row and at least one data row")
    return DistanceMatrix(values, query_t, ref_t, member_label)
