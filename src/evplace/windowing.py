"""Temporal windowing of event streams.

Place-recognition features are computed over short slices of the event
stream.  Two slicing schemes are supported:

* **fixed-count** windows hold exactly ``N`` consecutive events, so their
  duration adapts to scene activity;
* **fixed-time** windows hold whatever fell into a ``span_us`` interval,
  so their event count adapts instead.

Each window is only an event index range plus the time interval it
covers, so a :class:`WindowFamily` stores its windows as four parallel
arrays, and :func:`align_to_time` maps a whole sample grid onto window
indices in one vectorized pass.  A family is named only by its size: the
label ``count_230`` marks windows of 230 events, ``span_44000us`` windows
of 44 ms.  The label flows unchanged into descriptor sequences, distance
matrices and output file names.

A :class:`WindowSet` bundles several window families of different sizes
over the same stream.  Downstream code compares places once per family and
fuses the resulting distance matrices, which is where the ensemble effect
comes from: no single window size wins everywhere, but their mistakes
rarely coincide.

Window sizes may be given as absolute event counts or normalized to the
number of pixels, e.g. a fraction of ``0.1`` on a 346x260 sensor means
8996 events per window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, ConfigError
from .events import EventStream, SensorGeometry, _freeze, _read_only

# Default family grids: four pixel-normalized counts and five spans.
DEFAULT_COUNT_FRACTIONS = (0.1, 0.3, 0.6, 0.8)
DEFAULT_SPANS_US = (44_000, 66_000, 88_000, 120_000, 140_000)
# Query-window size (as a pixel fraction) for the approximate ensemble.
DEFAULT_APPROX_FRACTION = 0.5
DEFAULT_GRID_DT_US = 1_000_000


@dataclass(frozen=True)
class WindowFamily:
    """All windows of one size over one stream, in temporal order.

    ``label`` names the family by its size: ``count_<N>`` for windows of
    ``N`` events, ``span_<S>us`` for windows of ``S`` microseconds.  It must
    be a non-empty string.  The ``k``-th window holds events
    ``[start_idx[k], end_idx[k])`` of the source stream, whose timestamps
    lie within ``[t_start_us[k], t_end_us[k])``.  The four arrays are int64,
    share one length and are read-only.  Fixed-time windows may be empty
    (``start_idx[k] == end_idx[k]``).
    """

    label: str
    start_idx: np.ndarray
    end_idx: np.ndarray
    t_start_us: np.ndarray
    t_end_us: np.ndarray

    def __post_init__(self):
        if not isinstance(self.label, str) or not self.label:
            raise ConfigError(f"family label must be a non-empty string, got {self.label!r}")
        names = ("start_idx", "end_idx", "t_start_us", "t_end_us")
        arrays = _freeze(self, **dict.fromkeys(names, np.int64))
        if any(a.ndim != 1 or a.size != arrays[0].size for a in arrays):
            raise ConfigError("window arrays must be one-dimensional and share one length")

    @property
    def n_events(self) -> np.ndarray:
        return self.end_idx - self.start_idx

    def __len__(self) -> int:
        return int(self.start_idx.size)


@dataclass(frozen=True)
class WindowSet:
    """An ordered collection of window families over the same stream."""

    families: tuple[WindowFamily, ...]

    def __len__(self) -> int:
        return len(self.families)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(f.label for f in self.families)


def normalized_count(fraction: float, geometry: SensorGeometry) -> int:
    """Convert a pixel-normalized window size to an absolute event count.

    ``N = fraction * width * height`` rounded half away from zero, with a
    minimum of one event.  ``fraction`` must lie in ``(0, 1]``.
    """
    if not (0.0 < fraction <= 1.0):
        raise ConfigError(f"fraction must be in (0, 1], got {fraction}")
    return max(1, int(math.floor(fraction * geometry.n_pixels + 0.5)))


def split_fixed_count(stream: EventStream, count: int) -> WindowFamily:
    """Split a stream into disjoint consecutive windows of ``count`` events.

    A trailing remainder shorter than ``count`` is dropped; a stream with
    fewer than ``count`` events yields a family with no windows.
    """
    if count < 1:
        raise ConfigError(f"count must be >= 1, got {count}")
    start = np.arange(len(stream) // count, dtype=np.int64) * count
    end = start + count
    # Half-open time intervals that contain exactly these events.
    arrays = (start, end, stream.t[start], stream.t[end - 1] + 1)
    return WindowFamily(f"count_{int(count)}", *map(_read_only, arrays))


def split_fixed_time(stream: EventStream, span_us: int) -> WindowFamily:
    """Split a stream into consecutive ``span_us`` intervals.

    Intervals are half-open ``[t_k, t_k + span)``, anchored at the first
    event's timestamp and continuing through the last event's timestamp.
    Intervals with no events are kept as empty windows so the family stays
    a uniform sampling of time.
    """
    if span_us < 1:
        raise ConfigError(f"span_us must be positive, got {span_us}")
    if not len(stream):
        raise ConfigError("cannot split an empty stream into time windows")
    t0 = int(stream.t[0])
    n_windows = int((int(stream.t[-1]) - t0) // span_us) + 1
    bounds = t0 + np.arange(n_windows + 1, dtype=np.int64) * span_us
    edges = np.searchsorted(stream.t, bounds)
    return WindowFamily(
        f"span_{int(span_us)}us", edges[:-1], edges[1:], bounds[:-1], bounds[1:]
    )


def build_window_set(
    stream: EventStream,
    counts: tuple[float | int, ...] | list[float | int] | None = None,
    spans_us: tuple[int, ...] | list[int] | None = None,
) -> WindowSet:
    """Build the window families for an ensemble over one stream.

    Parameters
    ----------
    stream : EventStream
    counts : sequence of int or float, optional
        Fixed-count family sizes.  Floats in ``(0, 1]`` are interpreted as
        pixel-normalized fractions, integers as absolute event counts.
        Defaults to ``DEFAULT_COUNT_FRACTIONS``.
    spans_us : sequence of int, optional
        Fixed-time family spans in microseconds.  Defaults to
        ``DEFAULT_SPANS_US``.

    Returns
    -------
    WindowSet
        Count families first (in the given order), then span families.
    """
    if counts is None:
        counts = DEFAULT_COUNT_FRACTIONS
    if spans_us is None:
        spans_us = DEFAULT_SPANS_US
    if not counts and not spans_us:
        raise ConfigError("window set needs at least one count or span")
    families = [split_fixed_count(stream, _event_count(c, stream.geometry)) for c in counts]
    return WindowSet(tuple(families + [split_fixed_time(stream, int(s)) for s in spans_us]))


def _event_count(count: float | int, geometry: SensorGeometry) -> int:
    """A fixed-count family's events: a float is a fraction of the pixels."""
    if isinstance(count, bool):
        raise ConfigError(f"invalid window count {count!r}")
    return normalized_count(count, geometry) if isinstance(count, float) else int(count)


def family_labels(counts, spans_us, geometry: SensorGeometry) -> list[str]:
    """The labels :func:`build_window_set` gives these families on ``geometry``, in order."""
    spans = [f"span_{int(s)}us" for s in spans_us]
    return [f"count_{_event_count(c, geometry)}" for c in counts] + spans


def align_to_time(family: WindowFamily, stream: EventStream, t_us) -> np.ndarray:
    """Index of the family window best aligned to each sample time in ``t_us``.

    For every sample time, the event covered by the family whose timestamp
    is nearest is found (ties go to the earlier event), and the index of
    the window containing it is returned.  Sample times beyond the covered
    range thus resolve to the first or last non-empty window.  Each sample
    time costs two binary searches: one over events, one over windows.
    """
    if not len(family):
        raise AlignmentError(f"family {family.label} has no windows")
    lo = int(family.start_idx[0])
    hi = int(family.end_idx[-1])
    if lo == hi:
        raise AlignmentError(f"family {family.label} covers no events")
    t = stream.t[lo:hi]
    t_us = np.asarray(t_us, dtype=np.int64)
    pos = np.searchsorted(t, t_us, side="left")
    before = np.maximum(pos - 1, 0)
    after = np.minimum(pos, t.size - 1)
    # Tie between equally near neighbours goes to the earlier event.
    take_before = (pos > 0) & (t_us - t[before] <= t[after] - t_us)
    event_idx = lo + np.where(take_before, before, after)
    w = np.searchsorted(family.end_idx, event_idx, side="right")
    outside = (family.start_idx[w] > event_idx) | (event_idx >= family.end_idx[w])
    if np.any(outside):
        k = int(np.flatnonzero(outside)[0])
        raise AlignmentError(
            f"family {family.label}: event {int(event_idx[k])} not inside window {int(w[k])}"
        )
    return w


def sample_grid(stream: EventStream, dt_us: int = DEFAULT_GRID_DT_US) -> np.ndarray:
    """Regular sample times over a stream: ``t0, t0+dt, ...`` up to the end.

    The grid starts at the first event's timestamp and includes every
    multiple of ``dt_us`` that is still within the stream's time span.
    An empty stream yields an empty grid.
    """
    if dt_us < 1:
        raise ConfigError(f"dt_us must be positive, got {dt_us}")
    if not len(stream):
        return np.array([], dtype=np.int64)
    t0 = int(stream.t[0])
    n = (int(stream.t[-1]) - t0) // dt_us + 1
    return t0 + np.arange(n, dtype=np.int64) * dt_us
