"""Event-camera data model, CSV serialization, and noise filters.

An event camera reports a sparse stream of per-pixel brightness changes.
Each event is a tuple ``(t, x, y, p)``: a microsecond timestamp, pixel
coordinates, and a polarity in ``{-1, +1}``.  Streams are stored as three
parallel numpy arrays sorted by time: ``t`` int64, ``pixel`` int32 (the
row-major pixel id ``y * width + x``) and ``p`` int8, 13 bytes per event.
Every consumer reads the pixel id, so this module is the one place that
converts between it and ``(x, y)``: the parser checks ``x`` and ``y``
separately and stores their id, and the writer splits the ids again a
block at a time.

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
at a time, so a file can be written without its whole text.  A block is a
``uint32`` matrix, one row per event, of words looked up in tables of
right-aligned, NUL-padded text (``t`` a 4-digit group at a time, then
``",x"``, ``",y"`` and ``",p\\n"``); dropping its NUL bytes leaves the CSV.

Two denoising filters operate on whole streams: :func:`remove_hot_pixels`
drops pixels that fire far more often than the sensor average, and
:func:`filter_bursts` drops short time slices in which an implausible
fraction of the array fired at once.  Each computes its keep mask
(:func:`hot_pixel_mask`, :func:`burst_mask`) ``_FILTER_CHUNK_EVENTS``
events at a time, so a filter's temporaries do not grow with the stream
beyond the one-byte-per-event mask.  The public filters select the kept
events into a new stream; :func:`compact_in_place` instead moves them
forward within the arrays of a stream nothing else holds and shrinks them,
which is how the command line filters a stream it has just parsed.
"""

from __future__ import annotations

import decimal
import functools
import io
import math
import sys
from array import array
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
# Events per chunk of the filters' mask passes and of the in-place
# compaction: each pass holds one chunk's temporaries besides the stream.
_FILTER_CHUNK_EVENTS = 1 << 16

# Pixel ids are int32, so a sensor has at most this many pixels.
_MAX_PIXELS = 2**31 - 1

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
        if self.width * self.height > _MAX_PIXELS:
            raise ConfigError(
                f"sensor geometry {self.width}x{self.height} has "
                f"{self.width * self.height} pixels; int32 pixel ids allow at most {_MAX_PIXELS}"
            )

    @property
    def n_pixels(self) -> int:
        return self.width * self.height


@dataclass(frozen=True, init=False)
class EventStream:
    """A time-sorted event stream as a structure of arrays.

    Three arrays of one length are stored: ``t`` int64, ``pixel`` int32
    (``y * width + x``) and ``p`` int8.  The constructor takes ``x`` and
    ``y`` and checks them separately; :attr:`x` and :attr:`y` are derived
    from ``pixel`` on each access.  Instances are immutable: the
    constructor checks and copies the arrays it is given, and every array
    is marked read-only, so filters and windowing can hand out views
    without defensive copies.  The one exception is
    :func:`compact_in_place`, which takes the arrays of a stream that
    nothing else references.
    """

    geometry: SensorGeometry
    t: np.ndarray
    pixel: np.ndarray
    p: np.ndarray

    def __init__(self, geometry: SensorGeometry, t, x, y, p):
        # Validate the values as given, then narrow: a cast first would wrap
        # an out-of-range value (x = 2**32 + 1 becomes 1) and hide it.
        t, x, y, p = (np.asarray(a) for a in (t, x, y, p))
        if not (t.ndim == x.ndim == y.ndim == p.ndim == 1):
            raise ConfigError("event arrays must be one-dimensional")
        if not (t.size == x.size == y.size == p.size):
            raise ConfigError("event arrays must share one length")
        if t.size:
            if t[0] < 0:
                raise OrderingError("timestamps must be non-negative")
            if np.any(t[1:] < t[:-1]):
                raise OrderingError("timestamps must be sorted non-decreasing")
            if np.any((x < 0) | (x >= geometry.width)):
                raise BoundsError(f"x coordinate outside [0, {geometry.width})")
            if np.any((y < 0) | (y >= geometry.height)):
                raise BoundsError(f"y coordinate outside [0, {geometry.height})")
            if np.any((p != 1) & (p != -1)):
                raise ConfigError("polarity must be -1 or +1")
        # In bounds, y * width + x < n_pixels, which the geometry keeps in int32.
        pixel = np.array(y, dtype=np.int32)
        pixel *= geometry.width
        pixel += np.asarray(x, dtype=np.int32)
        self._set(geometry, np.array(t, dtype=np.int64), pixel, np.array(p, dtype=np.int8))

    def _set(self, geometry: SensorGeometry, t: np.ndarray, pixel: np.ndarray, p: np.ndarray):
        object.__setattr__(self, "geometry", geometry)
        for name, arr in (("t", t), ("pixel", pixel), ("p", p)):
            object.__setattr__(self, name, _read_only(arr))

    @classmethod
    def _adopt(
        cls, geometry: SensorGeometry, t: np.ndarray, pixel: np.ndarray, p: np.ndarray
    ) -> "EventStream":
        """Wrap arrays this package has just built and checked, without a copy.

        The arrays must already be valid int64/int32/int8 columns that
        nothing else references; they are marked read-only here.
        """
        stream = object.__new__(cls)
        stream._set(geometry, t, pixel, p)
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
        return cls(geometry, z, z, z, z)

    def __len__(self) -> int:
        return int(self.t.size)

    @property
    def x(self) -> np.ndarray:
        """Column of each event, a new read-only int32 array."""
        return _read_only(self.pixel % self.geometry.width)

    @property
    def y(self) -> np.ndarray:
        """Row of each event, a new read-only int32 array."""
        return _read_only(self.pixel // self.geometry.width)

    def select(self, mask_or_index: np.ndarray) -> "EventStream":
        """New stream keeping the selected events (order preserved).

        ``mask_or_index`` is a boolean mask or an increasing index array.
        Either picks a subsequence, and a subsequence of a valid stream is
        valid, so the selected copies are adopted without a second check.
        A mask is turned into an index once: gathering by index is several
        times faster than by a scattered mask.
        """
        index = np.asarray(mask_or_index)
        if index.dtype == bool:
            index = np.flatnonzero(index)
        return EventStream._adopt(self.geometry, self.t[index], self.pixel[index], self.p[index])


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _freeze(record, **dtypes) -> list[np.ndarray]:
    """Set each named field of a frozen record to a read-only array of its dtype.

    A read-only array of that dtype that owns its memory is kept as it is,
    which is how the package's producers hand over what they have built.
    Anything else (a writeable array, a view, a list) is copied, so no later
    write by a caller reaches the record.  An array kept as it is must stay
    read-only: its owner must not set ``writeable`` again.
    """
    arrays = []
    for name, dtype in dtypes.items():
        arr = getattr(record, name)
        owned = isinstance(arr, np.ndarray) and arr.dtype == dtype and arr.flags.owndata
        if not owned or arr.flags.writeable:
            arr = _read_only(np.array(arr, dtype=dtype))
        object.__setattr__(record, name, arr)
        arrays.append(arr)
    return arrays


def _check_increasing(ts: np.ndarray, what: str) -> None:
    # Neighbours are compared, not differenced: an int64 difference can wrap.
    if np.any(ts[1:] <= ts[:-1]):
        raise OrderingError(f"{what} must be strictly increasing")


def csv_rows(source) -> Iterator[tuple[int, list[str]]]:
    """``(1-based line number, fields)`` of each non-blank line of CSV text.

    ``source`` is a ``str``, UTF-8 ``bytes`` or a file-like object, read a
    line at a time; a bytes line is decoded on its own, so one that is not
    UTF-8 is a :class:`ParseError` naming it; a byte-order mark opening line
    1 is dropped.  Every CSV reader iterates these stripped, comma-split
    lines, so all count and skip lines alike.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    elif isinstance(source, bytes):
        source = io.BytesIO(source)
    for lineno, line in enumerate(source, start=1):
        if isinstance(line, bytes):
            try:
                line = line.decode()
            except UnicodeDecodeError:
                raise ParseError("not UTF-8 text", lineno) from None
        if lineno == 1:
            line = line.removeprefix("\ufeff")
        if line := line.strip():
            yield lineno, line.split(",")


def csv_table(rows, time, unit: str, width: int = 0, value=float, typecode: str = "q"):
    """``(times, values)`` of the ``time,v1,...,vW`` rows of :func:`csv_rows`.

    ``time`` converts each first field into an ``array`` of ``typecode``,
    ``value`` the others to float; ``width=0`` takes the first row's.  A
    wrong field count, a field that does not convert, a non-finite number
    or a time beyond int64 (``unit`` is the time field's) is a
    :class:`ParseError`, and a time not above the one before an
    :class:`OrderingError`, each naming its line.  Returns 1-D times and
    ``(n, width)`` float64 values, views of their buffers; no rows is no error.
    """
    inf = math.inf
    n_fields = width + 1 if width else 0
    times, values, lines = array(typecode), array("d"), array("q")
    prev = -inf
    try:
        for lineno, fields in rows:
            if len(fields) != n_fields:
                if n_fields or len(fields) < 2:
                    want = n_fields or "at least 2"
                    raise ParseError(f"expected {want} fields, got {len(fields)}", lineno)
                n_fields = len(fields)
            try:
                t = time(fields[0])
                values.extend(map(value, fields[1:]))
            except (ValueError, ArithmeticError) as e:  # decimal's errors are ArithmeticErrors
                what = "out-of-range" if isinstance(e, decimal.Overflow) else "non-numeric"
                raise ParseError(f"{what} field in row {','.join(fields)[:40]!r}", lineno) from None
            if not -inf < t < inf:
                raise ParseError("non-finite value", lineno)
            try:
                times.append(t)
            except OverflowError:
                raise ParseError(f"time {fields[0]} {unit} beyond int64 microseconds", lineno) from None
            if t <= prev:
                raise OrderingError(f"line {lineno}: time {fields[0]} {unit} does not increase")
            prev = t
            lines.append(lineno)
    finally:
        # The values are checked at once, here: the first non-finite one is
        # the error, as the row loops met it, whatever came after it.
        bad = np.flatnonzero(~np.isfinite(np.frombuffer(values)))
        if bad.size:
            row = bad[0] // (n_fields - 1)
            raise ParseError("non-finite value", lines[row] if row < len(lines) else lineno)
    values = np.frombuffer(values).reshape(len(times), max(n_fields - 1, 0))
    return np.frombuffer(times, typecode), values


def _seconds_to_us(field: str) -> float:
    """A seconds field in microseconds, rounded once: ``float(field) * 1e6`` rounds twice.

    A field that is not a number raises :class:`decimal.InvalidOperation`.
    """
    return float(decimal.Decimal(field).scaleb(6))


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
        file is read in blocks (the caller closes it); a ``str`` is encoded
        once and a text file a block at a time, as UTF-8 (a lone surrogate
        then fails as a line that is not UTF-8), and both go through the
        same two passes.  An optional leading ``t,x,y,p`` header row is
        skipped.  Both LF and CRLF line endings are accepted.
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
    if isinstance(source, str):
        source = source.encode("utf-8", "surrogatepass")
    fh = io.BytesIO(source) if isinstance(source, bytes) else source
    if isinstance(fh.read(0), str):
        fh = _EncodedText(fh)
    if not fh.seekable():
        fh = io.BytesIO(fh.read())  # a pipe: both passes need to rewind
    start = fh.tell()
    stream = _parse_strict(fh, geometry)
    if stream is not None:
        return stream
    fh.seek(start)
    return _parse_rows(fh, geometry)


class _EncodedText:
    """A text file as the binary file of its UTF-8 text, encoded a read at a time."""

    def __init__(self, fh):
        self._fh, self.seekable, self.tell, self.seek = fh, fh.seekable, fh.tell, fh.seek

    def read(self, size: int = -1) -> bytes:
        return self._fh.read(size).encode("utf-8", "surrogatepass")

    def readline(self) -> bytes:
        return self._fh.readline().encode("utf-8", "surrogatepass")

    def __iter__(self):
        return iter(self.readline, b"")


def _parse_strict(fh, geometry: SensorGeometry) -> EventStream | None:
    """The stream of a strictly formatted binary file, or ``None`` to refuse it.

    Accepts exactly: an optional ``t,x,y,p`` header, then rows of four
    fields matching ``-?[0-9]+`` of at most 18 characters (so no value can
    overflow int64), ending in LF (optional after the last row).  The file
    is read twice from its current position, one block at a time:

    1. the LF bytes are counted, which sizes the preallocated int64 ``t``,
       int32 ``pixel`` and int8 ``p``;
    2. each block of ``_CHECK_BLOCK_BYTES`` plus the rest of its last row
       is checked for form, parsed to int64, its values are checked as
       :class:`EventStream` would check them (``t`` non-negative and not
       below the previous block's last ``t``, sorted, coordinates in
       bounds, polarity in ``{-1, 0, 1}``), and written into those arrays,
       ``x`` and ``y`` as their pixel id.

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
    pixel = np.empty(n_lines, np.int32)
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
        pixel[rows] = by * geometry.width + bx
        p[rows] = np.where(bp == 0, -1, bp)
        row += bt.size
        last_t = bt[-1]
        # free this block's values before the next block is read
        del values, bt, bx, by, bp
    if row != n_lines:
        return None
    return EventStream._adopt(geometry, t, pixel, p)


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
    # ``count`` must be the exact field count: asked for more fields than
    # the text holds, fromstring pads with uninitialised values, silently.
    try:
        values = np.fromstring(
            block.replace(b"\n", b","), dtype=np.int64, count=n_fields, sep=","
        )
    except ValueError:  # unmatched data, which the form checks already rule out
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
    """Row-by-row :func:`parse_event_csv`: every accepted form, exact errors.

    Each checked row joins int64, int32 and int8 columns: ~13 bytes an event.
    """
    width, height = geometry.width, geometry.height
    t_col, pixel_col, p_col = array("q"), array("i"), array("b")
    prev_t = 0  # so that a negative t is caught by the regression check
    seen_data = False
    for lineno, fields in csv_rows(source):
        if not seen_data:
            seen_data = True
            if ",".join(fields).lower() == EVENT_CSV_HEADER:
                continue
        if len(fields) != 4:
            raise ParseError(f"expected 4 fields, got {len(fields)}", lineno)
        try:
            t, x, y, p = map(int, fields)
        except ValueError:
            raise ParseError(f"non-integer field in row {','.join(fields)!r}", lineno) from None
        if t < prev_t:
            if t < 0:
                raise ParseError(f"negative timestamp {t}", lineno)
            raise OrderingError(f"line {lineno}: timestamp {t} regresses below {prev_t}")
        prev_t = t
        if not (0 <= x < width):
            raise BoundsError(f"line {lineno}: x={x} outside [0, {width})")
        if not (0 <= y < height):
            raise BoundsError(f"line {lineno}: y={y} outside [0, {height})")
        if p == 0:
            p = -1
        elif p not in (-1, 1):
            raise ParseError(f"polarity {p} not in {{-1, 0, 1}}", lineno)
        try:
            t_col.append(t)
        except OverflowError:
            raise ParseError(f"timestamp {t} beyond int64", lineno) from None
        pixel_col.append(y * width + x)
        p_col.append(p)
    # copies that own their memory, which compact_in_place resizes
    return EventStream._adopt(geometry, np.array(t_col), np.array(pixel_col), np.array(p_col))


def event_csv_blocks(stream: EventStream) -> Iterator[bytes]:
    """The ``t,x,y,p`` CSV of a stream (header row, LF endings) in blocks.

    One ``bytes`` per ``_WRITE_BLOCK_ROWS`` rows, encoded as a ``uint32``
    matrix with one row per event and then stripped of its NUL bytes.  A
    row holds ``t`` as one word per 4-digit group (:func:`_t_group_words`),
    as many groups as the block's last, largest ``t`` needs, then ``",x"``,
    ``",y"`` and ``",p\\n"`` looked up in tables of ``width``, ``height``
    and 3 right-aligned, NUL-padded words, ``x`` and ``y`` split from the
    block's pixel ids.  Writing each block as it comes holds one block of
    text, not the whole file.
    """
    yield (EVENT_CSV_HEADER + "\n").encode("ascii")
    g = stream.geometry
    lead, inside = _t_group_words()
    x_words, y_words = _field_words(g.width), _field_words(g.height)
    p_words = np.frombuffer(b"\0,0\n" b"\0,1\n" b",-1\n", np.uint32)  # indexed by p itself
    zero = np.frombuffer(b"\0\0\0" b"0", np.uint32)  # the one group of t = 0
    fields = x_words.shape[1] + y_words.shape[1] + 1
    for start in range(0, len(stream), _WRITE_BLOCK_ROWS):
        block = slice(start, start + _WRITE_BLOCK_ROWS)
        t = stream.t[block]
        n_groups = (len(str(int(t[-1]))) + 3) // 4  # t is sorted: the last is the longest
        words = np.empty((t.size, n_groups + fields), np.uint32)
        rest = t
        for column in range(n_groups - 1, 0, -1):  # each group below the top one
            high = rest // 10_000
            group = rest - high * 10_000
            # rows from ``split`` on have digits above this group
            split = int(np.searchsorted(t, 10 ** (4 * (n_groups - column))))
            words[:split, column] = lead[group[:split]]
            words[split:, column] = inside[group[split:]]
            rest = high
        words[:, 0] = lead[rest]
        words[: int(np.searchsorted(t, 1)), n_groups - 1] = zero
        y, x = np.divmod(stream.pixel[block], g.width)
        x_end = n_groups + x_words.shape[1]
        words[:, n_groups:x_end] = x_words[x]
        words[:, x_end:-1] = y_words[y]
        words[:, -1] = p_words[stream.p[block]]
        yield words.tobytes().translate(None, b"\0")


@functools.cache
def _t_group_words() -> tuple[np.ndarray, np.ndarray]:
    """The words of a 4-digit group of ``t``: ``(lead, inside)``, uint32.

    ``inside[v]`` is ``v`` zero-padded to 4 digits, for a group with digits
    above it; ``lead[v]`` is ``v`` right-aligned and NUL-padded, for the
    number's top group, so ``lead[0]`` is all NUL.  Built at the first
    write, never at import.
    """
    chars, before = _digit_chars(np.arange(10_000), 4)
    inside = chars.view(np.uint32)[:, 0].copy()
    chars[before] = 0
    return _read_only(chars.view(np.uint32)[:, 0]), _read_only(inside)


def _field_words(n: int) -> np.ndarray:
    """``",v"`` for each ``v`` in ``range(n)``: right-aligned, NUL-padded uint32 words.

    An ``(n, k)`` array, ``k`` words wide enough for ``",{n - 1}"``.
    """
    n_chars = 4 * ((len(str(n - 1)) + 4) // 4)
    chars, before = _digit_chars(np.arange(n), n_chars)
    before[:, -1] = False  # zero is the one digit "0"
    chars[before] = 0
    chars[np.arange(n), np.count_nonzero(before, axis=1) - 1] = ord(",")
    return chars.view(np.uint32)


def _digit_chars(values: np.ndarray, n_chars: int) -> tuple[np.ndarray, np.ndarray]:
    """ASCII digits of non-negative ``values``, zero-padded to ``n_chars``.

    Returns the ``(len(values), n_chars)`` uint8 digits and a mask of the
    positions before each value's first significant digit (every position
    of a zero).
    """
    power = 10 ** np.arange(n_chars - 1, -1, -1, dtype=np.int64)
    v = values[:, None]
    return (v // power % 10 + ord("0")).astype(np.uint8), v < power


def write_event_csv(stream: EventStream) -> bytes:
    """Serialize a stream as ``t,x,y,p`` CSV (header row, LF endings).

    The whole text as one ``bytes``: the blocks of :func:`event_csv_blocks`
    joined, so the peak is the encoded blocks plus the result.  To write a
    file, write those blocks one at a time instead.
    """
    return b"".join(event_csv_blocks(stream))


def _chunks(n_events: int) -> Iterator[slice]:
    """Consecutive slices of ``_FILTER_CHUNK_EVENTS`` events covering ``n_events``."""
    for start in range(0, n_events, _FILTER_CHUNK_EVENTS):
        yield slice(start, start + _FILTER_CHUNK_EVENTS)


def hot_pixel_mask(
    stream: EventStream, sigma: float = DEFAULT_HOT_PIXEL_SIGMA
) -> tuple[np.ndarray | None, list[tuple[int, int]]]:
    """The keep mask of :func:`remove_hot_pixels` and the pixels it flags.

    The per-pixel counts are summed one ``np.bincount`` of ``stream.pixel``
    per chunk of events.  The rounds then run on the count vector alone:
    removing a pixel's events changes no other pixel's count, so each round
    zeroes the flagged counts.  The mask is filled a chunk at a time, so
    beyond its one byte per event the pass holds two count vectors and
    the index copy numpy makes of one chunk.

    Returns
    -------
    (ndarray of bool or None, list of (x, y))
        The events to keep, ``None`` when nothing is flagged, and the
        flagged pixels in the order found (row-major scan within each round).
    """
    if not sigma > 0:  # NaN fails too
        raise ConfigError(f"sigma must be positive, got {sigma}")
    n_pixels = stream.geometry.n_pixels
    counts = np.zeros(n_pixels, dtype=np.int64)
    for rows in _chunks(len(stream)):
        counts += np.bincount(stream.pixel[rows], minlength=n_pixels)
    flagged: list[tuple[int, int]] = []
    width = stream.geometry.width
    hot_mask = np.zeros(n_pixels, dtype=bool)
    while True:
        threshold = counts.mean() + sigma * counts.std()
        hot = np.flatnonzero(counts > threshold)
        if hot.size == 0:
            break
        flagged.extend((int(i % width), int(i // width)) for i in hot)
        hot_mask[hot] = True
        counts[hot] = 0
    if not flagged:
        return None, flagged
    cold_mask = ~hot_mask
    keep = np.empty(len(stream), dtype=bool)
    for rows in _chunks(len(stream)):
        np.take(cold_mask, stream.pixel[rows], out=keep[rows])
    return keep, flagged


def burst_mask(
    stream: EventStream,
    bin_us: int = DEFAULT_BURST_BIN_US,
    fraction: float = DEFAULT_BURST_FRACTION,
) -> np.ndarray | None:
    """The keep mask of :func:`filter_bursts`, ``None`` when no bin is a burst.

    Computed a chunk of whole bins at a time: a chunk of
    ``_FILTER_CHUNK_EVENTS`` events is extended to the end of its last
    bin, so beyond the mask's one byte per event the pass holds one chunk,
    or one bin when a bin holds more events than that.
    """
    if bin_us <= 0:
        raise ConfigError(f"bin_us must be positive, got {bin_us}")
    if not (0.0 < fraction <= 1.0):
        raise ConfigError(f"fraction must be in (0, 1], got {fraction}")
    g = stream.geometry
    t = stream.t
    n = len(stream)
    keep = np.empty(n, dtype=bool)
    start = 0
    while start < n:
        stop = min(start + _FILTER_CHUNK_EVENTS, n)
        next_bin_t = (int(t[stop - 1]) // bin_us + 1) * bin_us  # a Python int cannot wrap
        stop = int(np.searchsorted(t, next_bin_t)) if next_bin_t <= int(t[-1]) else n
        rows = slice(start, stop)
        key = t[rows] // bin_us
        new = np.empty(key.size, dtype=bool)
        new[0] = True
        np.not_equal(key[1:], key[:-1], out=new[1:])
        bin_start = np.flatnonzero(new)
        # Distinct pixels per bin: key each event by its bin's rank in the
        # chunk and its pixel, rank * n_pixels + pixel, which stays below
        # (chunk events + 1) * n_pixels whatever t is.  Sort the keys and
        # count each that differs from its predecessor; the ranks rise with
        # t, so the sort only reorders within a bin.
        np.cumsum(new, out=key)
        key *= g.n_pixels
        key += stream.pixel[rows]
        key.sort()
        np.not_equal(key[1:], key[:-1], out=new[1:])
        del key
        distinct = np.add.reduceat(new, bin_start, dtype=np.int64)
        burst = distinct > fraction * g.n_pixels
        keep[rows] = np.repeat(~burst, np.diff(bin_start, append=stop - start))
        start = stop
    return None if keep.all() else keep


def compact_in_place(stream: EventStream, keep: np.ndarray | None) -> EventStream:
    """``stream.select(keep)``, written over the arrays of ``stream``.

    For a stream that nothing else references, such as one just parsed.
    Each array is taken from ``stream``, which is left without it; its kept
    events are moved forward a chunk at a time, it is shrunk in place, and
    the returned stream adopts it.  The peak is the stream and one chunk of
    one array, not a second stream.  ``ndarray.resize`` refuses, with a
    ``ValueError``, an array that a view or another name still references.
    Under a trace or profile function (a debugger, a coverage tool,
    cProfile), which adds references of its own, a refused column is
    replaced by a copy of its kept prefix instead: the same events.
    With ``keep`` ``None`` the stream is returned as it is.
    """
    if keep is None:
        return stream
    columns = []
    for name in ("t", "pixel", "p"):
        columns.append(getattr(stream, name))
        object.__setattr__(stream, name, None)
        columns[-1].flags.writeable = True
    n_kept = 0
    for rows in _chunks(keep.size):
        # an index gathers several times faster than a scattered boolean mask
        kept = np.flatnonzero(keep[rows])
        for column in columns:
            column[n_kept : n_kept + kept.size] = column[rows][kept]
        n_kept += kept.size
    # Shrink each column while only this frame references it, so that the
    # reference check of resize refuses a column held anywhere else.
    shrunk = []
    while columns:
        column = columns.pop(0)
        try:
            column.resize(n_kept)
        except ValueError:
            if sys.gettrace() is None and sys.getprofile() is None:
                raise
            # A trace or profile function holds references of its own (a
            # snapshot of this frame's locals, a bound method), which the
            # check cannot tell from a holder: keep a copy of the prefix.
            column = column[:n_kept].copy()
        shrunk.append(column)
    return EventStream._adopt(stream.geometry, *shrunk)


def remove_hot_pixels(
    stream: EventStream, sigma: float = DEFAULT_HOT_PIXEL_SIGMA
) -> tuple[EventStream, list[tuple[int, int]]]:
    """Remove pixels whose event count is a statistical outlier.

    A pixel is flagged when its event count exceeds ``mean + sigma * std``
    of the per-pixel count distribution taken over the whole array
    (including silent pixels).  Flagging and removal repeat until the
    distribution is stable, so applying the filter twice changes nothing.
    The events to keep are :func:`hot_pixel_mask`'s, selected into a new
    stream; the input is not modified.

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
    keep, flagged = hot_pixel_mask(stream, sigma)
    return (stream if keep is None else stream.select(keep)), flagged


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
    The events to keep are :func:`burst_mask`'s, selected into a new
    stream; the input is not modified.

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
        The surviving events, a subsequence of the input; the input itself
        when no bin is a burst.
    """
    keep = burst_mask(stream, bin_us, fraction)
    return stream if keep is None else stream.select(keep)
