"""Event-camera data model, CSV serialization, and noise filters.

An event camera reports a sparse stream of per-pixel brightness changes.
Each event is a tuple ``(t, x, y, p)``: a microsecond timestamp, pixel
coordinates, and a polarity in ``{-1, +1}``.  Streams are stored as
parallel numpy arrays sorted by time, which keeps windowing and
accumulation vectorized.

Two denoising filters operate on whole streams: :func:`remove_hot_pixels`
drops pixels that fire far more often than the sensor average, and
:func:`filter_bursts` drops short time slices in which an implausible
fraction of the array fired at once.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import BoundsError, ConfigError, OrderingError, ParseError

EVENT_CSV_HEADER = "t,x,y,p"

DEFAULT_HOT_PIXEL_SIGMA = 5.0
DEFAULT_BURST_BIN_US = 500
DEFAULT_BURST_FRACTION = 0.25


@dataclass(frozen=True)
class SensorGeometry:
    """Pixel-array dimensions of the sensor that produced a stream."""

    width: int
    height: int

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ConfigError(
                f"sensor geometry must be positive, got {self.width}x{self.height}"
            )

    @property
    def n_pixels(self) -> int:
        return self.width * self.height


@dataclass(frozen=True)
class EventStream:
    """A time-sorted event stream as a structure of arrays.

    The four arrays share one length.  Instances are immutable: arrays are
    copied on construction and marked read-only, so filters and windowing
    can hand out views without defensive copies.
    """

    geometry: SensorGeometry
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        t = np.array(self.t, dtype=np.int64)
        x = np.array(self.x, dtype=np.int32)
        y = np.array(self.y, dtype=np.int32)
        p = np.array(self.p, dtype=np.int8)
        if not (t.ndim == x.ndim == y.ndim == p.ndim == 1):
            raise ConfigError("event arrays must be one-dimensional")
        if not (t.size == x.size == y.size == p.size):
            raise ConfigError("event arrays must share one length")
        if t.size:
            if t[0] < 0:
                raise OrderingError("timestamps must be non-negative")
            if np.any(np.diff(t) < 0):
                raise OrderingError("timestamps must be sorted non-decreasing")
            if np.any((x < 0) | (x >= self.geometry.width)):
                raise BoundsError(f"x coordinate outside [0, {self.geometry.width})")
            if np.any((y < 0) | (y >= self.geometry.height)):
                raise BoundsError(f"y coordinate outside [0, {self.geometry.height})")
            if np.any((p != 1) & (p != -1)):
                raise ConfigError("polarity must be -1 or +1")
        for name, arr in (("t", t), ("x", x), ("y", y), ("p", p)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def from_events(
        cls, geometry: SensorGeometry, events: Iterable[tuple[int, int, int, int]]
    ) -> "EventStream":
        rows = list(events)
        if not rows:
            return cls.empty(geometry)
        t, x, y, p = (np.array(col) for col in zip(*rows))
        return cls(geometry, t, x, y, p)

    @classmethod
    def empty(cls, geometry: SensorGeometry) -> "EventStream":
        z = np.array([], dtype=np.int64)
        return cls(geometry, z, z.copy(), z.copy(), z.copy())

    def __len__(self) -> int:
        return int(self.t.size)

    def select(self, mask_or_index: np.ndarray) -> "EventStream":
        """New stream keeping the selected events (order preserved)."""
        return EventStream(
            self.geometry,
            self.t[mask_or_index],
            self.x[mask_or_index],
            self.y[mask_or_index],
            self.p[mask_or_index],
        )

    def pixel_index(self) -> np.ndarray:
        """Flat ``y * width + x`` index per event (row-major pixel id)."""
        return self.y.astype(np.int64) * self.geometry.width + self.x.astype(np.int64)


def numbered_lines(source) -> Iterator[tuple[int, str]]:
    """``(1-based line number, raw line)`` pairs of CSV text.

    ``source`` is a ``str``, UTF-8 ``bytes`` or a file-like object; every
    CSV reader of the package starts here, so their error line numbers
    count lines the same way.
    """
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    return enumerate(io.StringIO(source), start=1)


def parse_event_csv(source, geometry: SensorGeometry) -> EventStream:
    """Parse ``t,x,y,p`` rows into an :class:`EventStream`.

    Parameters
    ----------
    source : str, bytes, or file-like
        CSV text.  An optional leading ``t,x,y,p`` header row is skipped.
        Both LF and CRLF line endings are accepted.
    geometry : SensorGeometry
        Sensor dimensions used for coordinate validation.

    Returns
    -------
    EventStream
        Polarity is normalized to ``{-1, +1}``; an input ``0`` means ``-1``,
        so files written with either convention load identically.

    Raises
    ------
    ParseError
        Malformed row, with its 1-based line number.
    BoundsError, OrderingError
        Out-of-range coordinates or a timestamp regression.
    """
    ts: list[int] = []
    xs: list[int] = []
    ys: list[int] = []
    ps: list[int] = []
    prev_t = -1
    seen_data = False
    for lineno, raw in numbered_lines(source):
        line = raw.rstrip("\r\n")
        if not line:
            continue
        if not seen_data and line.strip().lower() == EVENT_CSV_HEADER:
            seen_data = True
            continue
        seen_data = True
        fields = line.split(",")
        if len(fields) != 4:
            raise ParseError(f"expected 4 fields, got {len(fields)}", lineno)
        try:
            t = int(fields[0])
            x = int(fields[1])
            y = int(fields[2])
            p = int(fields[3])
        except ValueError:
            raise ParseError(f"non-integer field in row {line!r}", lineno) from None
        if t < 0:
            raise ParseError(f"negative timestamp {t}", lineno)
        if t < prev_t:
            raise OrderingError(f"line {lineno}: timestamp {t} regresses below {prev_t}")
        prev_t = t
        if not (0 <= x < geometry.width):
            raise BoundsError(f"line {lineno}: x={x} outside [0, {geometry.width})")
        if not (0 <= y < geometry.height):
            raise BoundsError(f"line {lineno}: y={y} outside [0, {geometry.height})")
        if p == 0:
            p = -1
        elif p not in (-1, 1):
            raise ParseError(f"polarity {p} not in {{-1, 0, 1}}", lineno)
        ts.append(t)
        xs.append(x)
        ys.append(y)
        ps.append(p)
    if not ts:
        return EventStream.empty(geometry)
    return EventStream(
        geometry,
        np.array(ts, dtype=np.int64),
        np.array(xs, dtype=np.int32),
        np.array(ys, dtype=np.int32),
        np.array(ps, dtype=np.int8),
    )


def write_event_csv(stream: EventStream) -> bytes:
    """Serialize a stream as ``t,x,y,p`` CSV (header row, LF endings)."""
    parts = [EVENT_CSV_HEADER, "\n"]
    t, x, y, p = stream.t, stream.x, stream.y, stream.p
    for i in range(len(stream)):
        parts.append(f"{t[i]},{x[i]},{y[i]},{p[i]}\n")
    return "".join(parts).encode("utf-8")


def _pixel_counts(stream: EventStream) -> np.ndarray:
    return np.bincount(stream.pixel_index(), minlength=stream.geometry.n_pixels)


def remove_hot_pixels(
    stream: EventStream, sigma: float = DEFAULT_HOT_PIXEL_SIGMA
) -> tuple[EventStream, list[tuple[int, int]]]:
    """Remove pixels whose event count is a statistical outlier.

    A pixel is flagged when its event count exceeds ``mean + sigma * std``
    of the per-pixel count distribution taken over the whole array
    (including silent pixels).  Flagging and removal repeat until the
    distribution is stable, so applying the filter twice changes nothing.

    Parameters
    ----------
    stream : EventStream
    sigma : float
        Outlier threshold in standard deviations, must be positive.

    Returns
    -------
    (EventStream, list of (x, y))
        The filtered stream and the flagged pixels in the order found
        (row-major scan within each round).
    """
    if sigma <= 0:
        raise ConfigError(f"sigma must be positive, got {sigma}")
    flagged: list[tuple[int, int]] = []
    width = stream.geometry.width
    current = stream
    while len(current):
        counts = _pixel_counts(current)
        threshold = counts.mean() + sigma * counts.std()
        hot = np.flatnonzero(counts > threshold)
        if hot.size == 0:
            break
        flagged.extend((int(i % width), int(i // width)) for i in hot)
        keep = ~np.isin(current.pixel_index(), hot)
        current = current.select(keep)
    return current, flagged


def filter_bursts(
    stream: EventStream,
    bin_us: int = DEFAULT_BURST_BIN_US,
    fraction: float = DEFAULT_BURST_FRACTION,
) -> EventStream:
    """Remove time slices in which too much of the array fired at once.

    Time is partitioned into consecutive bins of ``bin_us`` microseconds;
    bin boundaries sit on multiples of ``bin_us`` so that re-filtering an
    already filtered stream is a no-op.  Every event of a bin is dropped
    when the bin touches strictly more than ``fraction`` of all pixels.

    Parameters
    ----------
    stream : EventStream
    bin_us : int
        Bin width in microseconds, must be positive.
    fraction : float
        Distinct-pixel fraction above which a bin counts as a burst,
        in ``(0, 1]``.

    Returns
    -------
    EventStream
        The surviving events, a subsequence of the input.
    """
    if bin_us <= 0:
        raise ConfigError(f"bin_us must be positive, got {bin_us}")
    if not (0.0 < fraction <= 1.0):
        raise ConfigError(f"fraction must be in (0, 1], got {fraction}")
    if not len(stream):
        return stream
    n_pix = stream.geometry.n_pixels
    bin_idx = stream.t // bin_us
    # Count distinct pixels per bin via unique (bin, pixel) pairs.
    pair = bin_idx * n_pix + stream.pixel_index()
    unique_pairs = np.unique(pair)
    bins_of_pairs = unique_pairs // n_pix
    bins, distinct = np.unique(bins_of_pairs, return_counts=True)
    burst_bins = bins[distinct > fraction * n_pix]
    if burst_bins.size == 0:
        return stream
    return stream.select(~np.isin(bin_idx, burst_bins))
