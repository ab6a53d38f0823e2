"""Event-camera data model, CSV serialization, and noise filters.

An event camera reports a sparse stream of per-pixel brightness changes.
Each event is a tuple ``(t, x, y, p)``: a microsecond timestamp, pixel
coordinates, and a polarity in ``{-1, +1}``.  Streams are stored as
parallel numpy arrays sorted by time, which keeps windowing and
accumulation vectorized.

Event CSV files are read by :func:`parse_event_csv` in one of two ways.  A
file in the strict form :func:`write_event_csv` produces is parsed in one
vectorized pass (``np.fromstring`` over the whole text); any other file,
and any file whose values that pass finds invalid, is parsed again row by
row, which accepts the lenient forms (CRLF, blank lines, ``+5``) and names
the offending line in its error.  The choice follows from the text alone;
no setting selects between the two.

Two denoising filters operate on whole streams: :func:`remove_hot_pixels`
drops pixels that fire far more often than the sensor average, and
:func:`filter_bursts` drops short time slices in which an implausible
fraction of the array fired at once.
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import BoundsError, ConfigError, OrderingError, ParseError

EVENT_CSV_HEADER = "t,x,y,p"
# Each strict row is three commas, then a newline.
_ROW_SEPARATORS = np.frombuffer(b",,,\n", dtype=np.uint8)
# A field of at most 18 characters cannot overflow int64.
_MAX_FIELD_CHARS = 18
_CHECK_BLOCK_BYTES = 1 << 20
_WRITE_BLOCK_ROWS = 1 << 16

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
        # Validate the values as given, then narrow: a cast first would wrap
        # an out-of-range value (x = 2**32 + 1 becomes 1) and hide it.
        t, x, y, p = (np.asarray(a) for a in (self.t, self.x, self.y, self.p))
        if not (t.ndim == x.ndim == y.ndim == p.ndim == 1):
            raise ConfigError("event arrays must be one-dimensional")
        if not (t.size == x.size == y.size == p.size):
            raise ConfigError("event arrays must share one length")
        if t.size:
            if t[0] < 0:
                raise OrderingError("timestamps must be non-negative")
            if np.any(t[1:] < t[:-1]):
                raise OrderingError("timestamps must be sorted non-decreasing")
            if np.any((x < 0) | (x >= self.geometry.width)):
                raise BoundsError(f"x coordinate outside [0, {self.geometry.width})")
            if np.any((y < 0) | (y >= self.geometry.height)):
                raise BoundsError(f"y coordinate outside [0, {self.geometry.height})")
            if np.any((p != 1) & (p != -1)):
                raise ConfigError("polarity must be -1 or +1")
        for name, arr, dtype in (
            ("t", t, np.int64), ("x", x, np.int32), ("y", y, np.int32), ("p", p, np.int8)
        ):
            arr = np.array(arr, dtype=dtype)
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

    A file in the exact form :func:`write_event_csv` produces (an optional
    ``t,x,y,p`` header, then rows of four integer fields of at most 18
    characters each, LF endings) is parsed in one vectorized pass.  Anything
    else, and any file that pass finds invalid, is parsed again row by row,
    which accepts every form described below and reports the exact error.
    Both paths give the same stream or the same error; no setting selects
    between them.

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
    if hasattr(source, "read"):
        source = source.read()
    data = source.encode("ascii") if isinstance(source, str) and source.isascii() else source
    if isinstance(data, bytes):
        try:
            stream = _parse_strict(data, geometry)
        except (BoundsError, ConfigError, OrderingError):
            stream = None
        if stream is not None:
            return stream
    return _parse_rows(source, geometry)


def _parse_strict(data: bytes, geometry: SensorGeometry) -> EventStream | None:
    """The stream of a strictly formatted file, or ``None`` to refuse it.

    Accepts exactly: an optional ``t,x,y,p`` header, then rows of four
    fields matching ``-?[0-9]+`` of at most 18 characters (so no value can
    overflow int64), ending in LF (optional after the last row).  Values
    are checked by :class:`EventStream`, whose errors carry no line number;
    the caller re-parses row by row on a refusal or any such error.
    """
    header = EVENT_CSV_HEADER.encode() + b"\n"
    body = data[len(header):] if data.startswith(header) else data
    if not body:
        return EventStream.empty(geometry)
    if not body.endswith(b"\n"):
        body += b"\n"
    if body.translate(None, b"0123456789,-\n"):
        return None
    # Check whole rows a block at a time, so the checks' index arrays stay
    # small next to the values.
    n_values = 0
    start = 0
    while start < len(body):
        end = body.find(b"\n", start + _CHECK_BLOCK_BYTES) + 1 or len(body)
        n_fields = _strict_field_count(np.frombuffer(body, np.uint8, end - start, start))
        if n_fields is None:
            return None
        n_values += n_fields
        start = end
    flat = body.replace(b"\n", b",")
    del body
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = np.fromstring(flat, dtype=np.int64, count=n_values, sep=",")
    except (ValueError, DeprecationWarning):
        return None
    del flat
    if values.size != n_values:
        return None
    rows = values.reshape(-1, 4)
    p = np.where(rows[:, 3] == 0, -1, rows[:, 3])
    return EventStream(geometry, rows[:, 0], rows[:, 1], rows[:, 2], p)


def _strict_field_count(a: np.ndarray) -> int | None:
    """Field count of whole strict rows (bytes ending in LF), or ``None``."""
    sep = np.flatnonzero((a == ord(",")) | (a == ord("\n")))
    if sep.size % 4 or np.any(a[sep].reshape(-1, 4) != _ROW_SEPARATORS):
        return None
    gap = np.diff(sep, prepend=-1)  # field length + 1
    if gap.min() < 2 or gap.max() > _MAX_FIELD_CHARS + 1:
        return None
    # A sign opens its field and is followed by a digit; the byte before
    # a sign at offset 0 is the block's final newline.
    sign = np.flatnonzero(a == ord("-"))
    if np.any(a[sign - 1] > ord(",")) or np.any(a[sign + 1] < ord("0")):
        return None
    return sep.size


def _parse_rows(source, geometry: SensorGeometry) -> EventStream:
    """Row-by-row :func:`parse_event_csv`: every accepted form, exact errors."""
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
    parts = [EVENT_CSV_HEADER + "\n"]
    # One %-format per block of rows; blocks bound the Python ints alive at once.
    for start in range(0, len(stream), _WRITE_BLOCK_ROWS):
        block = slice(start, start + _WRITE_BLOCK_ROWS)
        rows = np.column_stack([stream.t[block], stream.x[block], stream.y[block], stream.p[block]])
        parts.append("%d,%d,%d,%d\n" * len(rows) % tuple(rows.ravel().tolist()))
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
    # Distinct pixels per bin: sort the (bin, pixel) keys and count each key
    # that differs from its predecessor.  t is sorted, so the sort only
    # reorders within a bin and bin_idx stays the bin of every sorted key.
    pair = np.sort(bin_idx * n_pix + stream.pixel_index())
    new_pixel = np.r_[True, pair[1:] != pair[:-1]]
    bin_start = np.flatnonzero(np.r_[True, bin_idx[1:] != bin_idx[:-1]])
    distinct = np.add.reduceat(new_pixel, bin_start, dtype=np.int64)
    burst = distinct > fraction * n_pix
    if not burst.any():
        return stream
    return stream.select(~np.repeat(burst, np.diff(bin_start, append=pair.size)))
