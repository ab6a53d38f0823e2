"""Event-camera data model, CSV serialization, and noise filters.

An event camera reports a sparse stream of per-pixel brightness changes.
Each event is a tuple ``(t, x, y, p)``: a microsecond timestamp, pixel
coordinates, and a polarity in ``{-1, +1}``.  Streams are stored as
parallel numpy arrays sorted by time, which keeps windowing and
accumulation vectorized.

Event CSV files are read by :func:`parse_event_csv` as binary files, one
block at a time, in one of two ways.  A file in the strict form
:func:`write_event_csv` produces is parsed in two passes: one counts its
rows, which sizes preallocated narrowed arrays, and the next reads
``_CHECK_BLOCK_BYTES`` plus the rest of the last row at a time, checks the
block and parses it with ``np.fromstring`` into those arrays.  The parse
holds the stream it returns and one block of text, never the whole text.
Any other file, and any file whose values that pass finds invalid, is
rewound and parsed again row by row, which accepts the lenient forms
(CRLF, blank lines, ``+5``) and names the offending line in its error.
The choice follows from the text alone; no setting selects between the
two.  :func:`event_csv_blocks` encodes a stream ``_WRITE_BLOCK_ROWS`` rows
at a time, so a file can be written without its whole text.

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
# Each strict row is three commas, then a newline: one native uint32.
_ROW_SEPARATORS = np.frombuffer(b",,,\n", dtype=np.uint32)[0]
# A field of at most 18 characters cannot overflow int64.
_MAX_FIELD_CHARS = 18
# Block sizes of the parser (bytes, plus the rest of the last row) and of
# the writer (rows); small enough that a block's temporaries stay in cache.
_CHECK_BLOCK_BYTES = 1 << 17
_WRITE_BLOCK_ROWS = 8192

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

    The four arrays share one length.  Instances are immutable: the
    constructor checks and copies the arrays it is given, and every array
    is marked read-only, so filters and windowing can hand out views
    without defensive copies.
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
    def _adopt(
        cls, geometry: SensorGeometry, t: np.ndarray, x: np.ndarray, y: np.ndarray, p: np.ndarray
    ) -> "EventStream":
        """Wrap arrays this module has just built and checked, without a copy.

        The arrays must already be valid int64/int32/int32/int8 columns that
        nothing else references; they are marked read-only here.
        """
        stream = object.__new__(cls)
        object.__setattr__(stream, "geometry", geometry)
        for name, arr in (("t", t), ("x", x), ("y", y), ("p", p)):
            arr.flags.writeable = False
            object.__setattr__(stream, name, arr)
        return stream

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
        """New stream keeping the selected events (order preserved).

        ``mask_or_index`` is a boolean mask or an increasing index array.
        Either picks a subsequence, and a subsequence of a valid stream is
        valid, so the selected copies are adopted without a second check.
        """
        m = mask_or_index
        return EventStream._adopt(self.geometry, self.t[m], self.x[m], self.y[m], self.p[m])

    def pixel_index(self) -> np.ndarray:
        """Flat ``y * width + x`` index per event (row-major pixel id)."""
        index = self.y.astype(np.int64)
        index *= self.geometry.width
        index += self.x
        return index


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

    The source is read as a binary file, one block at a time.  A file in
    the exact form :func:`write_event_csv` produces (an optional
    ``t,x,y,p`` header, then rows of four integer fields of at most 18
    characters each, LF endings) is parsed block by block straight into
    the stream's narrowed arrays, so the parse holds the stream and one
    block of text, never the whole text.  Anything else, and any file
    that pass finds invalid, is rewound and parsed again row by row, which
    accepts every form described below and reports the exact error.  Both
    paths give the same stream or the same error; no setting selects
    between them.

    Parameters
    ----------
    source : str, bytes, or file-like
        CSV text, or a file opened at the first byte to parse.  A binary
        file is read in blocks (the caller closes it); ``bytes`` and ASCII
        text go through the same loop, other text straight to the row
        loop.  An optional leading ``t,x,y,p`` header row is skipped.  Both
        LF and CRLF line endings are accepted.
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
    if hasattr(source, "read") and isinstance(source.read(0), str):
        source = source.read()
    if isinstance(source, str):
        if not source.isascii():
            return _parse_rows(source, geometry)
        source = source.encode("ascii")
    fh = io.BytesIO(source) if isinstance(source, bytes) else source
    if not fh.seekable():
        fh = io.BytesIO(fh.read())  # a pipe: both passes need to rewind
    start = fh.tell()
    stream = _parse_strict(fh, geometry)
    if stream is not None:
        return stream
    fh.seek(start)
    return _parse_rows(fh, geometry)


def _parse_strict(fh, geometry: SensorGeometry) -> EventStream | None:
    """The stream of a strictly formatted binary file, or ``None`` to refuse it.

    Accepts exactly: an optional ``t,x,y,p`` header, then rows of four
    fields matching ``-?[0-9]+`` of at most 18 characters (so no value can
    overflow int64), ending in LF (optional after the last row).  The file
    is read twice from its current position, one block at a time:

    1. the LF bytes are counted, which sizes the preallocated int64 ``t``,
       int32 ``x``/``y`` and int8 ``p``;
    2. each block of ``_CHECK_BLOCK_BYTES`` plus the rest of its last row
       is checked for form, parsed to int64, its values are checked as
       :class:`EventStream` would check them (``t`` non-negative and not
       below the previous block's last ``t``, sorted, coordinates in
       bounds, polarity in ``{-1, 0, 1}``), and written into those arrays.

    The rows parsed must be the rows counted.  A refusal carries no line
    number and leaves the file at an arbitrary position; the caller
    rewinds it and re-parses row by row.
    """
    start = fh.tell()
    n_lines = 0
    tail = b"\n"
    while chunk := fh.read(_CHECK_BLOCK_BYTES):
        n_lines += np.count_nonzero(np.frombuffer(chunk, np.uint8) == ord("\n"))
        tail = chunk[-1:]
    n_lines += tail != b"\n"  # an unterminated last row
    fh.seek(start)
    header = EVENT_CSV_HEADER.encode() + b"\n"
    if fh.read(len(header)) == header:
        n_lines -= 1
    else:
        fh.seek(start)
    t = np.empty(n_lines, np.int64)
    x = np.empty(n_lines, np.int32)
    y = np.empty(n_lines, np.int32)
    p = np.empty(n_lines, np.int8)
    row = 0
    last_t = 0
    while block := fh.read(_CHECK_BLOCK_BYTES) + fh.readline():
        values = _block_values(block)
        if values is None or row + len(values) > n_lines:
            return None
        bt, bx, by, bp = values.T
        if (
            bt[0] < last_t
            or np.any(bt[1:] < bt[:-1])
            or bx.min() < 0
            or bx.max() >= geometry.width
            or by.min() < 0
            or by.max() >= geometry.height
            or bp.min() < -1
            or bp.max() > 1
        ):
            return None
        rows = slice(row, row + bt.size)
        t[rows] = bt
        x[rows] = bx
        y[rows] = by
        p[rows] = np.where(bp == 0, -1, bp)
        row += bt.size
        last_t = bt[-1]
        # free this block's values before the next block is read
        del values, bt, bx, by, bp
    if row != n_lines:
        return None
    return EventStream._adopt(geometry, t, x, y, p)


def _block_values(block: bytes) -> np.ndarray | None:
    """The whole strict rows of ``block`` as an int64 (rows, 4) array.

    The last row's LF may be missing (the end of the file).  ``None`` when
    the form checks or ``np.fromstring`` refuse the rows.
    """
    if not block.endswith(b"\n"):
        block += b"\n"
    if block.translate(None, b"0123456789,-\n"):
        return None
    n_fields = _strict_field_count(np.frombuffer(block, np.uint8))
    if n_fields is None:
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = np.fromstring(
                block.replace(b"\n", b","), dtype=np.int64, count=n_fields, sep=","
            )
    except (ValueError, DeprecationWarning):
        return None
    return values.reshape(-1, 4) if values.size == n_fields else None


def _strict_field_count(a: np.ndarray) -> int | None:
    """Field count of whole strict rows, or ``None``.

    ``a`` holds bytes of the strict alphabet (digits, ``,``, ``-``, LF) and
    ends in LF; in that alphabet the separators are the bytes below ``-``.
    """
    # A sign opens its field and is followed by a digit.  A sign at offset 0
    # opens the block's first field, and the final LF is no sign.
    sign = a == ord("-")
    if np.any(sign[1:] & (a[:-1] > ord(","))) or np.any(sign[:-1] & (a[1:] < ord("0"))):
        return None
    sep = np.flatnonzero(a < ord("-"))
    if sep.size % 4 or np.any(a[sep].view(np.uint32) != _ROW_SEPARATORS):
        return None
    gap = np.diff(sep)  # field length + 1, for every field but the first
    if not 1 <= sep[0] <= _MAX_FIELD_CHARS or gap.min() < 2 or gap.max() > _MAX_FIELD_CHARS + 1:
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


def event_csv_blocks(stream: EventStream) -> Iterator[bytes]:
    """The ``t,x,y,p`` CSV of a stream (header row, LF endings) in blocks.

    One %-format per ``_WRITE_BLOCK_ROWS`` rows, encoded at once: a block
    bounds the Python ints alive at a time, and writing each block as it
    comes holds one block of text, not the whole file.
    """
    yield (EVENT_CSV_HEADER + "\n").encode("ascii")
    for start in range(0, len(stream), _WRITE_BLOCK_ROWS):
        block = slice(start, start + _WRITE_BLOCK_ROWS)
        rows = np.column_stack([stream.t[block], stream.x[block], stream.y[block], stream.p[block]])
        text = "%d,%d,%d,%d\n" * len(rows) % tuple(rows.ravel().tolist())
        yield text.encode("ascii")


def write_event_csv(stream: EventStream) -> bytes:
    """Serialize a stream as ``t,x,y,p`` CSV (header row, LF endings).

    The whole text as one ``bytes``: the blocks of :func:`event_csv_blocks`
    joined, so the peak is the encoded blocks plus the result.  To write a
    file, write those blocks one at a time instead.
    """
    return b"".join(event_csv_blocks(stream))


def remove_hot_pixels(
    stream: EventStream, sigma: float = DEFAULT_HOT_PIXEL_SIGMA
) -> tuple[EventStream, list[tuple[int, int]]]:
    """Remove pixels whose event count is a statistical outlier.

    A pixel is flagged when its event count exceeds ``mean + sigma * std``
    of the per-pixel count distribution taken over the whole array
    (including silent pixels).  Flagging and removal repeat until the
    distribution is stable, so applying the filter twice changes nothing.

    The rounds run on the count vector alone: removing a pixel's events
    changes no other pixel's count, so each round zeroes the flagged
    counts, and the events are selected once at the end.

    Parameters
    ----------
    stream : EventStream
    sigma : float
        Outlier threshold in standard deviations, must be positive.

    Returns
    -------
    (EventStream, list of (x, y))
        The filtered stream and the flagged pixels in the order found
        (row-major scan within each round).  With nothing flagged the
        stream is the input itself.
    """
    if sigma <= 0:
        raise ConfigError(f"sigma must be positive, got {sigma}")
    flagged: list[tuple[int, int]] = []
    width = stream.geometry.width
    pixel = stream.pixel_index()
    counts = np.bincount(pixel, minlength=stream.geometry.n_pixels)
    hot_mask = np.zeros(counts.size, dtype=bool)
    while True:
        threshold = counts.mean() + sigma * counts.std()
        hot = np.flatnonzero(counts > threshold)
        if hot.size == 0:
            break
        flagged.extend((int(i % width), int(i // width)) for i in hot)
        hot_mask[hot] = True
        counts[hot] = 0
    if not flagged:
        return stream, flagged
    keep = (~hot_mask)[pixel]
    del pixel
    return stream.select(keep), flagged


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
    g = stream.geometry
    n = len(stream)
    key = stream.t // bin_us
    changed = np.empty(n, dtype=bool)
    changed[0] = True
    np.not_equal(key[1:], key[:-1], out=changed[1:])
    bin_start = np.flatnonzero(changed)
    # Distinct pixels per bin: turn the bin index into the (bin, pixel) key
    # (bin * n_pixels + y * width + x) in place, sort it and count each key
    # that differs from its predecessor.  t is sorted, so the sort only
    # reorders within a bin and bin_start still marks every bin.
    key *= g.height
    key += stream.y
    key *= g.width
    key += stream.x
    key.sort()
    np.not_equal(key[1:], key[:-1], out=changed[1:])
    del key
    distinct = np.add.reduceat(changed, bin_start, dtype=np.int64)
    del changed
    burst = distinct > fraction * g.n_pixels
    if not burst.any():
        return stream
    return stream.select(~np.repeat(burst, np.diff(bin_start, append=n)))
