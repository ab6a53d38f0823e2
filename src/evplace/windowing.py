"""Temporal windowing of event streams.

Place-recognition features are computed over short slices of the event
stream.  Two slicing schemes are supported:

* **fixed-count** windows hold exactly ``N`` consecutive events, so their
  duration adapts to scene activity;
* **fixed-time** windows hold whatever fell into a ``span_us`` interval,
  so their event count adapts instead.

Each window is only an event index range plus the time interval it
covers, so a :class:`WindowFamily` stores its windows as four parallel
arrays.  A family is named only by its size: the label ``count_230``
marks windows of 230 events, ``span_44000us`` windows of 44 ms.  The
label flows unchanged into descriptor sequences, distance matrices and
output file names.  :func:`window_families` resolves the sizes of an
ensemble's families, and their labels, in one place.

Downstream code compares places once per family and fuses the resulting
distance matrices, which is where the ensemble effect comes from: no
single window size wins everywhere, but their mistakes rarely coincide.
Only the windows nearest the sample grid are described, so
:func:`align_to_time` finds each grid point's window and its event range
from the family's size alone, without building the family's windows.

Window sizes may be given as absolute event counts or normalized to the
number of pixels, e.g. a fraction of ``0.1`` on a 346x260 sensor means
8996 events per window.
"""

from __future__ import annotations

import math
import numbers
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
# The largest int64: the bound of every size, step and time the run holds as one.
_INT64_MAX = 2**63 - 1


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


def window_families(counts, spans_us, geometry: SensorGeometry) -> list[tuple]:
    """Resolve an ensemble's window families as ``(label, count, span_us)``.

    ``counts`` are fixed-count sizes: floats in ``(0, 1]`` are
    pixel-normalized fractions of ``geometry``, integers absolute event
    counts; ``spans_us`` are fixed-time spans in microseconds.  ``None``
    gives ``DEFAULT_COUNT_FRACTIONS`` and ``DEFAULT_SPANS_US``.  Count
    families come first, in the given order, with ``span_us`` ``None``;
    then span families, with ``count`` ``None``.  A size that is not a
    number, or lies beyond the int64 range, is refused, and so are two
    families of one label: their outputs would overwrite each other.
    """
    counts = DEFAULT_COUNT_FRACTIONS if counts is None else counts
    spans_us = DEFAULT_SPANS_US if spans_us is None else spans_us
    if not counts and not spans_us:
        raise ConfigError("window set needs at least one count or span")
    families = []
    for c in counts:
        n = normalized_count(c, geometry) if isinstance(c, float) else _window_size(c, "count")
        families.append((f"count_{n}", n, None))
    for s in spans_us:
        s = _window_size(s, "span_us")
        families.append((f"span_{s}us", None, s))
    _check_distinct([label for label, _, _ in families])
    return families


def _window_size(value, name: str) -> int:
    """``value`` as a window size: a number from 1 to the int64 maximum."""
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not number or not 1 <= value <= _INT64_MAX:
        raise ConfigError(f"window {name} must be a number from 1 to 2**63 - 1, got {value!r}")
    return int(value)


def _check_distinct(labels: list[str]) -> None:
    """Refuse two ensemble members of one label."""
    for i, label in enumerate(labels):
        if label in labels[:i]:
            raise ConfigError(f"two ensemble members share the label {label}")


def build_window_set(stream: EventStream, counts=None, spans_us=None) -> tuple[WindowFamily, ...]:
    """Every window of each family :func:`window_families` resolves, over one stream."""
    return tuple(
        split_fixed_time(stream, span) if count is None else split_fixed_count(stream, count)
        for _, count, span in window_families(counts, spans_us, stream.geometry)
    )


def align_to_time(stream: EventStream, t_us, count: int | None = None, span_us: int | None = None):
    """The window of one family best aligned to each sample time in ``t_us``.

    The family is given by its size alone, ``count`` events or ``span_us``
    microseconds, as :func:`split_fixed_count` or :func:`split_fixed_time`
    would build it.  For every sample time, the event covered by the family
    (the first ``n - n % count`` events of a count family, every event of a
    span family) whose timestamp is nearest is found.  A tie between an
    earlier and a later timestamp goes to the earlier one.  Of several
    events at the chosen timestamp, the one nearest the sample in stream
    order is taken, the sample sitting after every earlier event and before
    the rest: the last of them if their time precedes the sample, the first
    if it equals or follows it.  So for events at 10, 10, 20, 20 and a
    count of 1, samples at 12, 15, 18 and 25 resolve to events 1, 1, 2 and
    3.  Sample times beyond the covered range resolve to the first or last
    non-empty window.  Returns the window indices and their
    ``[start, end)`` event ranges, three int64 arrays shaped like ``t_us``.
    """
    size = count if span_us is None else span_us
    if (count is None) == (span_us is None) or size < 1:
        raise ConfigError(f"need one positive count or span_us, got {count}, {span_us}")
    t = stream.t if count is None else stream.t[: len(stream) - len(stream) % count]
    if not t.size:
        raise AlignmentError(f"a family of size {size} has no windows in {len(stream)} events")
    t_us = np.asarray(t_us, dtype=np.int64)
    pos = np.searchsorted(t, t_us, side="left")
    before = np.maximum(pos - 1, 0)
    after = np.minimum(pos, t.size - 1)
    # The sample's neighbours in stream order: the last event before its
    # time and the first at or after it.  A tie goes to the earlier one.
    take_before = (pos > 0) & (t_us - t[before] <= t[after] - t_us)
    event_idx = np.where(take_before, before, after)
    if span_us is None:
        w = event_idx // count
        return w, w * count, (w + 1) * count
    w = (t[event_idx] - t[0]) // span_us
    t_start = t[0] + w * span_us
    return w, np.searchsorted(t, t_start), np.searchsorted(t, t_start + span_us)


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
