"""Event model, CSV round trips, and the two stream filters."""

from __future__ import annotations

import dataclasses
import io
import sys
import tempfile
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evplace import events
from evplace.errors import BoundsError, ConfigError, OrderingError, ParseError
from evplace.events import (
    EVENT_CSV_HEADER,
    EventStream,
    SensorGeometry,
    _parse_rows,
    _parse_strict,
    burst_mask,
    compact_in_place,
    event_csv_blocks,
    filter_bursts,
    hot_pixel_mask,
    parse_event_csv,
    remove_hot_pixels,
    write_event_csv,
)

G4 = SensorGeometry(4, 4)
# The arrays a stream stores, and those plus the coordinates derived from them.
COLUMNS = ("t", "pixel", "p")
FIELDS = COLUMNS + ("x", "y")


def _stream(rows, geometry=G4):
    return EventStream.from_events(geometry, rows)


def _random_stream(rng, n, geometry=G4, t_max=100_000):
    t = np.sort(rng.integers(0, t_max, size=n))
    x = rng.integers(0, geometry.width, size=n)
    y = rng.integers(0, geometry.height, size=n)
    p = rng.integers(0, 2, size=n) * 2 - 1
    return EventStream(geometry, t, x, y, p)


# ---------------------------------------------------------------------------
# stream validation


def test_stream_rejects_timestamp_regression():
    with pytest.raises(OrderingError):
        _stream([(10, 0, 0, 1), (5, 0, 0, 1)])


def test_stream_rejects_negative_timestamp():
    with pytest.raises(OrderingError):
        _stream([(-1, 0, 0, 1)])


def test_stream_rejects_out_of_bounds():
    with pytest.raises(BoundsError):
        _stream([(0, 4, 0, 1)])
    with pytest.raises(BoundsError):
        _stream([(0, 0, 7, 1)])


def test_stream_rejects_bad_polarity():
    with pytest.raises(ConfigError):
        _stream([(0, 0, 0, 2)])


def test_stream_validates_before_narrowing():
    # A cast to int32/int8 before the checks would wrap 2**32 + 1 to 1 and
    # 257 to 1, and truncate t = -0.5 to 0, and accept all three.
    g = SensorGeometry(4, 4)
    for wrap in (list, lambda v: np.array(v, dtype=np.int64)):
        with pytest.raises(BoundsError):
            EventStream(g, wrap([0]), wrap([2**32 + 1]), wrap([0]), wrap([1]))
        with pytest.raises(BoundsError):
            EventStream(g, wrap([0]), wrap([0]), wrap([2**32 + 1]), wrap([1]))
        with pytest.raises(ConfigError):
            EventStream(g, wrap([0]), wrap([0]), wrap([0]), wrap([257]))
    with pytest.raises(OrderingError):
        EventStream(g, [-0.5], [0], [0], [1])


def test_stream_arrays_are_read_only():
    s = _stream([(0, 1, 2, 1)])
    with pytest.raises(ValueError):
        s.t[0] = 5


def test_stream_stores_time_pixel_id_and_polarity():
    g = SensorGeometry(5, 3)
    s = EventStream(g, [0, 1, 2], [0, 4, 2], [0, 2, 1], [1, -1, 1])
    assert [f.name for f in dataclasses.fields(s)] == ["geometry", *COLUMNS]
    assert s.pixel.tolist() == [0, 14, 7]
    assert [s.t.dtype, s.pixel.dtype, s.p.dtype] == [np.int64, np.int32, np.int8]
    assert s.x.tolist() == [0, 4, 2] and s.y.tolist() == [0, 2, 1]
    assert s.x.dtype == s.y.dtype == np.int32
    assert not s.x.flags.writeable and not s.y.flags.writeable
    with pytest.raises(AttributeError):
        s.x = np.zeros(3, np.int32)


def test_parsed_and_selected_arrays_are_read_only():
    rows = (b"%d,%d,%d,%d\n" % (i, i % 4, i // 4 % 4, i % 2) for i in range(40))
    text = b"t,x,y,p\n" + b"".join(rows)
    parsed = parse_event_csv(text, G4)
    mask = np.arange(len(parsed)) % 3 != 0
    picked = parsed.select(mask)
    before = [getattr(picked, k).copy() for k in COLUMNS]
    mask[:] = False
    for s in (parsed, picked):
        for k in COLUMNS:
            assert not getattr(s, k).flags.writeable
            with pytest.raises(ValueError):
                getattr(s, k)[0] = 1
    assert all(np.array_equal(getattr(picked, k), b) for k, b in zip(COLUMNS, before))
    assert [getattr(picked, k).dtype for k in COLUMNS] == [np.int64, np.int32, np.int8]


def test_constructor_copies_the_callers_arrays():
    t = np.arange(5, dtype=np.int64)
    x = np.zeros(5, dtype=np.int32)
    y = np.ones(5, dtype=np.int32)
    p = np.ones(5, dtype=np.int8)
    s = EventStream(G4, t, x, y, p)
    for arr in (t, x, y, p):
        assert arr.flags.writeable
        assert not any(np.shares_memory(getattr(s, k), arr) for k in COLUMNS)
        arr[:] = 3
    assert s.t.tolist() == [0, 1, 2, 3, 4]
    assert s.x.tolist() == [0] * 5 and s.y.tolist() == [1] * 5 and s.p.tolist() == [1] * 5


def test_geometry_must_fit_int32_pixel_ids():
    assert SensorGeometry(2**31 - 1, 1).n_pixels == 2**31 - 1
    assert SensorGeometry(46340, 46341).n_pixels < 2**31
    for width, height in ((2**31, 1), (46341, 46341), (1, 2**31)):
        with pytest.raises(ConfigError, match=f"{width}x{height} has {width * height} pixels"):
            SensorGeometry(width, height)


def test_geometry_must_be_positive():
    with pytest.raises(ConfigError):
        SensorGeometry(0, 5)


# ---------------------------------------------------------------------------
# CSV parsing


def test_parse_remaps_zero_polarity():
    s = parse_event_csv("0,0,0,1\n5,1,1,0", SensorGeometry(2, 2))
    assert len(s) == 2
    assert list(s.p) == [1, -1]


def test_parse_header_only_is_empty():
    s = parse_event_csv("t,x,y,p\n", G4)
    assert len(s) == 0


def test_parse_reports_ordering_error_with_line():
    with pytest.raises(OrderingError, match="line 2"):
        parse_event_csv("10,0,0,1\n5,0,0,1", G4)


def test_parse_reports_field_count_with_line():
    with pytest.raises(ParseError, match="line 3") as exc:
        parse_event_csv("t,x,y,p\n1,0,0,1\n2,0,0\n", G4)
    assert exc.value.line == 3


def test_parse_reports_non_numeric():
    with pytest.raises(ParseError, match="line 1"):
        parse_event_csv("a,0,0,1\n", G4)


def test_parse_rejects_out_of_bounds_with_line():
    with pytest.raises(BoundsError, match="line 2"):
        parse_event_csv("1,0,0,1\n2,9,0,1\n", G4)


def test_parse_accepts_crlf_and_blank_lines():
    s = parse_event_csv(b"t,x,y,p\r\n1,0,0,1\r\n\r\n2,1,1,0\r\n", G4)
    assert len(s) == 2


def test_parse_accepts_file_like():
    import io

    s = parse_event_csv(io.BytesIO(b"1,0,0,1\n"), G4)
    assert len(s) == 1


def test_write_empty_stream():
    assert write_event_csv(EventStream.empty(G4)) == b"t,x,y,p\n"


def test_write_single_event():
    s = _stream([(7, 3, 2, -1)])
    assert write_event_csv(s) == b"t,x,y,p\n7,3,2,-1\n"


def test_csv_round_trip_fuzz():
    rng = np.random.default_rng(11)
    for _ in range(25):
        s = _random_stream(rng, int(rng.integers(0, 200)))
        back = parse_event_csv(write_event_csv(s), s.geometry)
        for k in FIELDS:
            assert np.array_equal(getattr(back, k), getattr(s, k)), k


def _write_event_csv_loop(stream):
    """The per-row writer ``write_event_csv`` replaced: the byte oracle."""
    parts = [EVENT_CSV_HEADER, "\n"]
    t, x, y, p = stream.t, stream.x, stream.y, stream.p
    for i in range(len(stream)):
        parts.append(f"{t[i]},{x[i]},{y[i]},{p[i]}\n")
    return "".join(parts).encode("utf-8")


def _outcome(parse, source, geometry):
    """A parse's arrays with their dtypes, or its exception class and message."""
    try:
        s = parse(source, geometry)
    except Exception as e:  # the oracle comparison covers every failure
        return type(e), str(e)
    return [(getattr(s, k).dtype, getattr(s, k).tolist()) for k in FIELDS]


def _assert_parses_like_rows(text: str, geometry=G4):
    """``parse_event_csv`` equals ``_parse_rows`` on str, bytes and file input."""
    expected = _outcome(_parse_rows, text, geometry)
    data = text.encode("utf-8")
    assert _outcome(_parse_rows, data, geometry) == expected
    for make in (lambda: text, lambda: data, lambda: io.BytesIO(data), lambda: io.StringIO(text)):
        assert _outcome(parse_event_csv, make(), geometry) == expected, text


@st.composite
def _csv_files(draw):
    """A valid event CSV for G4 as (header, rows of field strings, final newline)."""
    n = draw(st.integers(0, 12))
    t = draw(st.integers(0, 10**15))
    rows = []
    for _ in range(n):
        t += draw(st.integers(0, 3))
        x, y = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        rows.append([str(t), str(x), str(y), str(draw(st.sampled_from([-1, 0, 1])))])
    return draw(st.booleans()), rows, draw(st.booleans())


def _render(header, rows, final_newline, header_text=EVENT_CSV_HEADER, newline="\n"):
    lines = ([header_text] if header else []) + [",".join(r) for r in rows]
    return newline.join(lines) + (newline if final_newline and lines else "")


# Replacement fields: each is accepted by int() but refused by the strict
# pass, or is malformed, or overflows int64, or is at the 18-character limit.
_ODD_FIELDS = [
    "+5", " 5", "5 ", "1_0", "\uff15", "-", "+", " ", "\t", "- 5", "", "--1", "1-2", "-0", "007",
    "123456789012345678", "-12345678901234567", "1234567890123456789", "9999999999999999999",
    "12345678901234567890", "-12345678901234567890", "9223372036854775807",
    "9223372036854775808", str(2**32 + 1), "0", "2", "-5",
]


def test_parse_matches_row_oracle_on_every_odd_field():
    rows = [["5", "1", "2", "1"], ["6", "3", "0", "0"], ["9", "0", "3", "-1"]]
    for field in _ODD_FIELDS:
        for row, column in np.ndindex(3, 4):
            odd = [list(r) for r in rows]
            odd[row][column] = field
            for header in (False, True):
                _assert_parses_like_rows(_render(header, odd, True))


# Check-block sizes: every row its own block, a few rows, the real size.
_CHECK_BLOCKS = st.sampled_from([1, 20, events._CHECK_BLOCK_BYTES])


@settings(max_examples=150, deadline=None)
@given(_csv_files(), _CHECK_BLOCKS)
def test_parse_matches_row_oracle_on_valid_files(case, block_bytes):
    header, rows, final_newline = case
    text = _render(header, rows, final_newline)
    # a file with LF endings never needs the row loop
    lf_text = _render(header, rows, final_newline or not rows)
    with mock.patch.object(events, "_CHECK_BLOCK_BYTES", block_bytes):
        _assert_parses_like_rows(text)
        assert _parse_strict(io.BytesIO(lf_text.encode()), G4) is not None


@settings(max_examples=400, deadline=None)
@given(_csv_files(), _CHECK_BLOCKS, st.data())
def test_parse_matches_row_oracle_on_mutated_files(case, block_bytes, data):
    header, rows, final_newline = case
    mutation = data.draw(
        st.sampled_from(
            ["crlf", "blank", "header", "field", "trailing_comma", "field_count",
             "polarity", "negative_t", "regression", "huge_x"]
        )
    )
    header_text, newline = EVENT_CSV_HEADER, "\n"
    rows = [list(r) for r in rows] or [["0", "0", "0", "1"]]
    i = data.draw(st.integers(0, len(rows) - 1))
    if mutation == "crlf":
        newline = "\r\n"
    elif mutation == "blank":
        k = data.draw(st.integers(1, 3))
        rows[i:i] = [[""]] * k
    elif mutation == "header":
        header = True
        header_text = data.draw(st.sampled_from(["T,X,Y,P", " t,x,y,p ", "t,X,y,P\t", "t, x, y, p"]))
    elif mutation == "field":
        rows[i][data.draw(st.integers(0, 3))] = data.draw(st.sampled_from(_ODD_FIELDS))
    elif mutation == "trailing_comma":
        rows[i][3] += ","
    elif mutation == "field_count":
        rows[i] = rows[i][: data.draw(st.integers(1, 3))] if data.draw(st.booleans()) else rows[i] + ["1"]
    elif mutation == "polarity":
        rows[i][3] = data.draw(st.sampled_from(["0", "2", "-2", "1", "-1"]))
    elif mutation == "negative_t":
        rows[i][0] = "-" + data.draw(st.sampled_from(["1", "5", "0"]))
    elif mutation == "regression":
        rows[i][0] = str(int(rows[i - 1][0]) - 1) if i else "-1"
    elif mutation == "huge_x":
        rows[i][1] = str(2**32 + 1)
    with mock.patch.object(events, "_CHECK_BLOCK_BYTES", block_bytes):
        _assert_parses_like_rows(_render(header, rows, final_newline, header_text, newline))


def test_parse_errors_keep_line_and_class_past_the_strict_pass():
    good = "t,x,y,p\n" + "".join(f"{i},1,2,1\n" for i in range(50))
    cases = [
        (good + "60,4,0,1\n", BoundsError, "line 52"),
        (good + "60,0,9,0\n", BoundsError, "line 52"),
        (good + "3,0,0,1\n", OrderingError, "line 52"),
        (good + "60,0,0,2\n", ParseError, "line 52"),
        (good + "-60,0,0,1\n", ParseError, "line 52"),
        (good + "60,0,0\n", ParseError, "line 52"),
        (good + "60,0,0\n1,61,0,0,1\n", ParseError, "line 52"),
        (good + "60,0,0,1,\n", ParseError, "line 52"),
        (good + "60,-,0,1\n", ParseError, "line 52"),
        (good + "12345678901234567890,0,0,1\n", OverflowError, "int"),
    ]
    for text, error, match in cases:
        with pytest.raises(error, match=match):
            parse_event_csv(text.encode(), G4)
        _assert_parses_like_rows(text)


def _file_outcomes(data: bytes, prefix: bytes) -> list:
    """``parse_event_csv`` on a ``BytesIO`` and on a real file, each opened
    just past ``prefix``, so a refused file must rewind to that offset."""
    with tempfile.TemporaryFile() as real:
        real.write(prefix + data)
        outcomes = []
        for fh in (io.BytesIO(prefix + data), real):
            fh.seek(len(prefix))
            outcomes.append(_outcome(parse_event_csv, fh, G4))
    return outcomes


@settings(max_examples=300, deadline=None)
@given(
    _csv_files(),
    _CHECK_BLOCKS,
    st.sampled_from([None, "regression", "huge_x", "polarity", "plus", "crlf", "field_count"]),
    st.binary(max_size=12),
)
def test_parse_from_a_file_matches_row_oracle(case, block_bytes, late, prefix):
    # ``late`` spoils the last row, which sits in the last block when blocks
    # are small: the strict pass refuses there, after filling earlier rows.
    header, rows, final_newline = case
    rows = [list(r) for r in rows]
    if late and rows:
        last = rows[-1]
        if late == "regression":
            last[0] = str(int(rows[-2][0]) - 1) if len(rows) > 1 else "-1"
        elif late == "huge_x":
            last[1] = str(2**32 + 1)
        elif late == "polarity":
            last[3] = "2"
        elif late == "plus":
            last[2] = "+" + last[2]
        elif late == "crlf":
            last[3] += "\r"
        else:
            last.append("1")
    text = _render(header, rows, final_newline)
    expected = _outcome(_parse_rows, text, G4)
    with mock.patch.object(events, "_CHECK_BLOCK_BYTES", block_bytes):
        assert _file_outcomes(text.encode(), prefix) == [expected, expected], text


@pytest.mark.parametrize(
    "text",
    ["t,x,y,p", "t,x,y,p\n", "t,x,y", "t,x,y,\n", "t,x,y,p\n5,0,0,1", "t,x,y,p5,0,0,1\n",
     "t,x,y,p\nt,x,y,p\n", "5,0,0,1\nt,x,y,p\n", "", "\n"],
)
def test_parse_from_a_file_reads_a_header_cut_by_the_first_read(text):
    expected = _outcome(_parse_rows, text, G4)
    for block_bytes in range(1, 10):
        with mock.patch.object(events, "_CHECK_BLOCK_BYTES", block_bytes):
            assert _file_outcomes(text.encode(), b"") == [expected, expected]
            _assert_parses_like_rows(text)


def test_parse_refusal_in_a_late_block_rewinds_to_the_row_loops_error():
    good = "t,x,y,p\n" + "".join(f"{i},1,2,1\n" for i in range(500))
    for bad, error in (("9,0,0,1", OrderingError), ("600,0,0,2", ParseError)):
        data = (good + bad + "\n" + "601,0,0,1").encode()
        expected = _outcome(_parse_rows, data, G4)
        assert expected[0] is error and expected[1].startswith("line 502")
        spy = mock.Mock(wraps=events._block_values)
        with mock.patch.object(events, "_CHECK_BLOCK_BYTES", 64), \
                mock.patch.object(events, "_block_values", spy):
            assert _file_outcomes(data, b"x,y\n") == [expected, expected]
        assert spy.call_count > 2 * 50  # two files, each refused after 50 blocks


# Rows of one width (11 bytes: t has 6 digits, x and y 1, p is 0 or 1), so
# every mutation below keeps the blocks of the valid file.
_EDGE_ROWS = [[str(100_000 + 7 * i), str(i % 4), str(i // 4 % 4), str(i % 2)] for i in range(40)]
_EDGE_BLOCK_BYTES = 64


def _edge_blocks(text: str) -> list[int]:
    """1-based line of the first row of each check block of ``text``.

    ``text`` must pass the strict form checks, so only a value can refuse it.
    The blocks are those the strict pass reads: ``_block_values`` is wrapped
    to record each block's rows after the real form checks and to return
    zeros, so no value check ends the loop early.
    """
    rows = []

    def record(block):
        values = block_values(block)
        assert values is not None
        rows.append(len(values))
        return np.zeros_like(values)

    block_values = events._block_values
    with mock.patch.object(events, "_CHECK_BLOCK_BYTES", _EDGE_BLOCK_BYTES), \
            mock.patch.object(events, "_block_values", record):
        assert _parse_strict(io.BytesIO(text.encode()), G4) is not None
    return np.cumsum([2] + rows[:-1]).tolist()  # line 1 is the header


def test_parse_many_blocks_matches_row_oracle_with_narrow_dtypes():
    text = _render(True, _EDGE_ROWS, True)
    assert len(_edge_blocks(text)) >= 5
    with mock.patch.object(events, "_CHECK_BLOCK_BYTES", _EDGE_BLOCK_BYTES):
        s = _parse_strict(io.BytesIO(text.encode()), G4)
        _assert_parses_like_rows(text)
    assert [s.t.dtype, s.x.dtype, s.y.dtype, s.p.dtype] == [np.int64, np.int32, np.int32, np.int8]


@pytest.mark.parametrize(
    "case, error",
    [
        ("regression_opens_block", OrderingError),
        ("x_at_width_closes_block", BoundsError),
        ("polarity_2_opens_block", ParseError),
        ("negative_t_opens_block_2", ParseError),
        ("negative_t_inside_block_2", ParseError),
    ],
)
def test_block_value_checks_refuse_with_the_row_loops_error(case, error):
    starts = _edge_blocks(_render(True, _EDGE_ROWS, True))
    rows = [list(r) for r in _EDGE_ROWS]
    if case == "regression_opens_block":
        line = starts[2]
        rows[line - 2][0] = str(int(rows[line - 3][0]) - 1)
    elif case == "x_at_width_closes_block":
        line = starts[2] - 1
        rows[line - 2][1] = "4"
    elif case == "polarity_2_opens_block":
        line = starts[3]
        rows[line - 2][3] = "2"
    elif case == "negative_t_opens_block_2":
        line = starts[1]
        rows[line - 2][0] = "-99999"
    else:
        line = starts[1] + 1
        rows[line - 2][0] = "-99999"
    text = _render(True, rows, True)
    assert _edge_blocks(text) == starts
    with mock.patch.object(events, "_CHECK_BLOCK_BYTES", _EDGE_BLOCK_BYTES):
        assert _parse_strict(io.BytesIO(text.encode()), G4) is None
        with pytest.raises(error, match=f"line {line}\\b") as exc:
            parse_event_csv(text.encode(), G4)
        assert _outcome(parse_event_csv, text.encode(), G4) == _outcome(_parse_rows, text, G4)
    if isinstance(exc.value, ParseError):
        assert exc.value.line == line


def test_parse_refuses_an_overflowing_field_that_opens_a_block():
    # np.fromstring saturates a field beyond int64 instead of failing, so
    # the 18-character limit must hold for a block's first field as well.
    for field in ("12345678901234567890", "9999999999999999999"):
        _assert_parses_like_rows(f"{field},0,0,1\n")
        with mock.patch.object(events, "_CHECK_BLOCK_BYTES", 1):  # a block per row
            _assert_parses_like_rows(f"t,x,y,p\n5,0,0,1\n{field},0,0,1\n")


def test_concurrent_parses_leave_the_warning_filters_as_they_were():
    # Blocks are parsed without touching process-wide state.  A
    # warnings.catch_warnings() around each block, entered and left by two
    # threads in turn, could restore one thread's "error" filter last and
    # leave it behind for the whole process.
    rng = np.random.default_rng(71)
    g = SensorGeometry(64, 48)
    texts = [write_event_csv(_random_stream(rng, 3000, g)) for _ in range(2)]
    expected = [parse_event_csv(text, g) for text in texts]
    filters = list(warnings.filters)
    results = [None, None]

    def parse(i):
        results[i] = parse_event_csv(texts[i], g)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(events, "_CHECK_BLOCK_BYTES", 256):  # hundreds of blocks
            for _ in range(5):
                results[:] = [None, None]
                threads = [threading.Thread(target=parse, args=(i,)) for i in range(2)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert warnings.filters == filters
                for got, want in zip(results, expected):
                    for k in COLUMNS:
                        assert np.array_equal(getattr(got, k), getattr(want, k)), k
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize(
    "block", [b"1,2-3,4\n", b"1,2,3,4-\n", b"1,2,3,--4\n", b"-,2,3,4\n", b"1,2,,4\n"]
)
def test_block_values_refuses_malformed_blocks_without_a_warning(block):
    # fromstring reads "--4" and "-" as 0 without a word, so the form
    # checks must refuse these blocks before it sees them.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert events._block_values(block) is None


@pytest.mark.parametrize("block", [b"1,2-3,4\n", b"1,2,,4\n"])
def test_block_values_turns_fromstrings_refusal_into_none(block):
    # Past the form checks (skipped here), fromstring refuses unmatched
    # data with a ValueError of its own: no warning filter is needed.
    n_fields = block.count(b",") + 1
    with mock.patch.object(events, "_strict_field_count", lambda a: n_fields):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert events._block_values(block) is None


@st.composite
def _streams(draw):
    g = SensorGeometry(draw(st.integers(1, 400)), draw(st.integers(1, 300)))
    n = draw(st.integers(0, 40))
    t = np.cumsum(draw(st.lists(st.integers(0, 10**12), min_size=n, max_size=n)), dtype=np.int64)
    x = draw(st.lists(st.integers(0, g.width - 1), min_size=n, max_size=n))
    y = draw(st.lists(st.integers(0, g.height - 1), min_size=n, max_size=n))
    p = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    return EventStream(g, t, np.array(x, dtype=np.int64), np.array(y, dtype=np.int64),
                       np.array(p, dtype=np.int64))


@settings(max_examples=150, deadline=None)
@given(_streams(), st.sampled_from([1, 3, 16, events._WRITE_BLOCK_ROWS]))
def test_write_matches_row_oracle_bytes(stream, block_rows):
    with mock.patch.object(events, "_WRITE_BLOCK_ROWS", block_rows):
        data = write_event_csv(stream)
    assert data == _write_event_csv_loop(stream)
    back = parse_event_csv(data, stream.geometry)
    assert all(np.array_equal(getattr(back, k), getattr(stream, k)) for k in FIELDS)


def test_write_matches_row_oracle_across_blocks():
    rng = np.random.default_rng(29)
    for n in (0, 1, events._WRITE_BLOCK_ROWS, events._WRITE_BLOCK_ROWS + 3):
        s = _random_stream(rng, n, SensorGeometry(346, 260), t_max=10**12)
        assert write_event_csv(s) == _write_event_csv_loop(s)


def _event_csv_blocks_formula(stream):
    """The ``%d`` block format ``event_csv_blocks`` replaced: its byte oracle."""
    yield (EVENT_CSV_HEADER + "\n").encode("ascii")
    for start in range(0, len(stream), events._WRITE_BLOCK_ROWS):
        block = slice(start, start + events._WRITE_BLOCK_ROWS)
        rows = np.column_stack([stream.t[block], stream.x[block], stream.y[block], stream.p[block]])
        yield ("%d,%d,%d,%d\n" * len(rows) % tuple(rows.ravel().tolist())).encode("ascii")


@pytest.mark.parametrize("geometry", [SensorGeometry(1, 1), SensorGeometry(346, 260),
                                      SensorGeometry(5000, 3)])
def test_write_blocks_match_the_int_format_at_the_extremes(geometry):
    rng = np.random.default_rng(47)
    n = 60
    t = np.sort(np.r_[0, 0, 10**18 - 1, rng.integers(0, 2**63 - 1, size=n - 5), 2**63 - 1, 2**63 - 1])
    x = rng.integers(0, geometry.width, size=n)
    y = rng.integers(0, geometry.height, size=n)
    p = rng.choice([-1, 1], size=n)
    x[:4], y[:4], p[:4] = [0, geometry.width - 1] * 2, [0, geometry.height - 1] * 2, [-1, 1, 1, -1]
    x[-2:], y[-2:], p[-2:] = [geometry.width - 1, 0], [geometry.height - 1, 0], [1, -1]
    stream = EventStream(geometry, t, x, y, p)
    with mock.patch.object(events, "_WRITE_BLOCK_ROWS", 7):
        assert list(event_csv_blocks(stream)) == list(_event_csv_blocks_formula(stream))
    assert list(event_csv_blocks(stream)) == list(_event_csv_blocks_formula(stream))


def test_write_holds_two_copies_of_the_text():
    # Many blocks: each block's text is encoded at once, so the peak is the
    # encoded blocks plus the joined result, and not a third copy besides.
    s = _random_stream(np.random.default_rng(37), 40_000, SensorGeometry(346, 260), t_max=10**12)
    with mock.patch.object(events, "_WRITE_BLOCK_ROWS", 1000):
        size = len(write_event_csv(s))
        tracemalloc.start()
        try:
            write_event_csv(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 2.5 * size


def test_parse_holds_the_stream_and_a_few_blocks():
    # Block by block into the narrowed arrays: beyond the text, the peak is
    # the 13-byte-per-event stream plus one block's text and values.  A
    # whole-text parse holds the text twice more and four int64 columns.
    s = _random_stream(np.random.default_rng(41), 200_000, SensorGeometry(346, 260), t_max=10**9)
    data = write_event_csv(s)
    tracemalloc.start()
    try:
        parse_event_csv(data, s.geometry)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24 * len(s) + 4 * 2**20


def test_parse_from_an_open_file_holds_the_stream_and_one_block(tmp_path):
    # Read a block at a time, the text is never whole: beyond the
    # 13-byte-per-event stream, the peak is one block's text and values.
    s = _random_stream(np.random.default_rng(41), 200_000, SensorGeometry(346, 260), t_max=10**9)
    path = tmp_path / "events.csv"
    path.write_bytes(write_event_csv(s))
    with open(path, "rb") as fh:
        tracemalloc.start()
        try:
            back = parse_event_csv(fh, s.geometry)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert all(np.array_equal(getattr(back, k), getattr(s, k)) for k in FIELDS)
    assert peak < 17 * len(s) + 2 * 2**20


# ---------------------------------------------------------------------------
# hot pixels


def test_hot_pixels_uniform_counts_untouched():
    rows = [(i, i % 4, i // 4, 1) for i in range(16)]
    s = _stream(rows)
    out, flagged = remove_hot_pixels(s)
    assert flagged == []
    assert len(out) == 16


def test_hot_pixels_huge_sigma_is_identity():
    rng = np.random.default_rng(3)
    s = _random_stream(rng, 500)
    out, flagged = remove_hot_pixels(s, sigma=1e9)
    assert flagged == []
    assert len(out) == len(s)


def test_hot_pixel_flagged_on_10x10():
    # 99 pixels firing once vs one firing 1000 times: counts have mean
    # 10.99 and std ~99.4, so the 5-sigma threshold sits near 508 and only
    # the loud pixel crosses it.
    g = SensorGeometry(10, 10)
    rows = []
    t = 0
    for i in range(99):
        rows.append((t, i % 10, i // 10, 1))
        t += 1
    for _ in range(1000):
        rows.append((t, 9, 9, 1))
        t += 1
    out, flagged = remove_hot_pixels(_stream(rows, g))
    assert flagged == [(9, 9)]
    assert len(out) == 99
    # and the surviving uniform counts are stable under a second pass
    out2, flagged2 = remove_hot_pixels(out)
    assert flagged2 == []
    assert len(out2) == len(out)


def test_hot_pixel_small_array_cannot_reach_5_sigma():
    # Over 16 pixels the largest possible z-score is sqrt(15) < 5, so even
    # a 1000:1 outlier is not flaggable at the default sigma.
    rows = []
    t = 0
    for i in range(15):
        rows.append((t, i % 4, i // 4, 1))
        t += 1
    for _ in range(1000):
        rows.append((t, 3, 3, 1))
        t += 1
    out, flagged = remove_hot_pixels(_stream(rows))
    assert flagged == []
    assert len(out) == 1015


def test_hot_pixels_idempotent_fuzz():
    rng = np.random.default_rng(7)
    for _ in range(20):
        s = _random_stream(rng, int(rng.integers(1, 400)), t_max=5000)
        once, _ = remove_hot_pixels(s, sigma=1.5)
        twice, flagged2 = remove_hot_pixels(once, sigma=1.5)
        assert flagged2 == []
        assert np.array_equal(once.t, twice.t)
        assert np.array_equal(once.x, twice.x)


def test_hot_pixels_output_is_subsequence():
    rng = np.random.default_rng(13)
    s = _random_stream(rng, 600, t_max=3000)
    out, flagged = remove_hot_pixels(s, sigma=1.0)
    # every surviving event exists in the input at the same relative order
    removed_pixels = {y * 4 + x for x, y in flagged}
    keep = [i for i in range(len(s)) if int(s.pixel[i]) not in removed_pixels]
    assert np.array_equal(out.t, s.t[keep])
    assert np.array_equal(out.p, s.p[keep])


def _remove_hot_pixels_rounds(stream, sigma):
    """The per-round select loop ``remove_hot_pixels`` replaced: its oracle.

    Also returns the number of rounds that flagged a pixel.
    """
    flagged = []
    rounds = 0
    width = stream.geometry.width
    current = stream
    while len(current):
        counts = np.bincount(current.pixel, minlength=current.geometry.n_pixels)
        hot = np.flatnonzero(counts > counts.mean() + sigma * counts.std())
        if hot.size == 0:
            break
        rounds += 1
        flagged.extend((int(i % width), int(i // width)) for i in hot)
        current = current.select(~np.isin(current.pixel, hot))
    return current, flagged, rounds


def test_hot_pixels_match_per_round_oracle_fuzz():
    rng = np.random.default_rng(31)
    max_rounds = 0
    for trial in range(60):
        g = SensorGeometry(int(rng.integers(1, 40)), int(rng.integers(1, 30)))
        n = int(rng.integers(0, 3000))
        # Zipf-like pixel popularity: a few loud pixels at several levels, so
        # removing the loudest exposes the next ones in later rounds.
        weights = rng.pareto(1.0, size=g.n_pixels) + 1e-3
        pixel = rng.choice(g.n_pixels, size=n, p=weights / weights.sum())
        s = EventStream(
            g, np.sort(rng.integers(0, 10**6, size=n)), pixel % g.width, pixel // g.width,
            rng.integers(0, 2, size=n) * 2 - 1,
        )
        sigma = float(rng.choice([0.5, 1.0, 2.0, 5.0]))
        out, flagged = remove_hot_pixels(s, sigma)
        expect, expect_flagged, rounds = _remove_hot_pixels_rounds(s, sigma)
        max_rounds = max(max_rounds, rounds)
        assert flagged == expect_flagged, trial
        assert out.geometry == expect.geometry
        for k in FIELDS:
            got_a, expect_a = getattr(out, k), getattr(expect, k)
            assert got_a.dtype == expect_a.dtype and np.array_equal(got_a, expect_a), (trial, k)
        if not flagged:
            assert out is s
    assert max_rounds >= 3  # the fuzz reaches streams that need several rounds


def test_hot_pixels_empty_stream():
    out, flagged = remove_hot_pixels(EventStream.empty(G4))
    assert len(out) == 0 and flagged == []


def test_hot_pixels_rejects_bad_sigma():
    with pytest.raises(ConfigError):
        remove_hot_pixels(EventStream.empty(G4), sigma=0)


# ---------------------------------------------------------------------------
# burst filter


def test_burst_bin_touching_all_pixels_removed():
    g = SensorGeometry(2, 2)
    rows = [(0, 0, 0, 1), (1, 1, 0, 1), (2, 0, 1, 1), (3, 1, 1, 1), (50, 0, 0, 1)]
    out = filter_bursts(_stream(rows, g), bin_us=10, fraction=0.5)
    # 4 distinct pixels > 0.5 * 4, so the first bin goes; the lone later
    # event survives.
    assert list(out.t) == [50]


def test_burst_single_pixel_bins_identity():
    rows = [(i * 100, i % 4, 0, 1) for i in range(10)]
    s = _stream(rows)
    out = filter_bursts(s, bin_us=10, fraction=0.25)
    assert len(out) == len(s)


def test_burst_threshold_is_strict():
    # 5 distinct pixels in the first bin exceeds 0.25*16 = 4; 3 distinct
    # in the second does not.
    rows = [(i, i, 0, 1) for i in range(4)] + [(4, 0, 1, 1)]
    rows += [(500 + i, i, 2, 1) for i in range(3)]
    out = filter_bursts(_stream(rows), bin_us=500, fraction=0.25)
    assert list(out.t) == [500, 501, 502]


def test_burst_exactly_at_threshold_kept():
    g = SensorGeometry(2, 2)
    rows = [(0, 0, 0, 1), (1, 1, 0, 1)]  # 2 distinct = 0.5 * 4 exactly
    out = filter_bursts(_stream(rows, g), bin_us=10, fraction=0.5)
    assert len(out) == 2


def test_burst_idempotent_fuzz():
    rng = np.random.default_rng(17)
    for _ in range(20):
        s = _random_stream(rng, int(rng.integers(1, 500)), t_max=4000)
        once = filter_bursts(s, bin_us=200, fraction=0.3)
        twice = filter_bursts(once, bin_us=200, fraction=0.3)
        assert np.array_equal(once.t, twice.t)
        assert np.array_equal(once.x, twice.x)


def test_burst_no_surviving_bin_over_threshold():
    rng = np.random.default_rng(19)
    for _ in range(10):
        # about 3.6 events per bin, so some bins are bursts and most are not
        s = _random_stream(rng, 400, t_max=28_000)
        out = filter_bursts(s, bin_us=250, fraction=0.3)
        assert 0 < len(out) < len(s)
        n_pix = out.geometry.n_pixels
        pair = (out.t // 250) * n_pix + out.pixel
        _, distinct = np.unique(np.unique(pair) // n_pix, return_counts=True)
        assert np.all(distinct <= 0.3 * n_pix)


def test_burst_output_is_subsequence():
    rng = np.random.default_rng(23)
    s = _random_stream(rng, 300, t_max=2000)
    out = filter_bursts(s, bin_us=100, fraction=0.3)
    kept_bins = set(np.unique(out.t // 100))
    keep = [i for i in range(len(s)) if int(s.t[i]) // 100 in kept_bins]
    assert np.array_equal(out.t, s.t[keep])
    assert np.array_equal(out.x, s.x[keep])


def _filter_bursts_unique(stream, bin_us, fraction):
    """The two-``np.unique`` distinct-pixel count: the burst filter's oracle."""
    n_pix = stream.geometry.n_pixels
    bin_idx = stream.t // bin_us
    pair = bin_idx * n_pix + stream.pixel
    bins, distinct = np.unique(np.unique(pair) // n_pix, return_counts=True)
    return stream.select(~np.isin(bin_idx, bins[distinct > fraction * n_pix])), distinct


def test_burst_matches_unique_oracle_fuzz():
    # On 16 pixels every fraction c/16 is exact, so sweeping c hits bins
    # at exactly fraction * n_pix and pins every distinct count.
    rng = np.random.default_rng(31)
    at_threshold = 0
    for _ in range(40):
        s = _random_stream(rng, int(rng.integers(1, 600)), t_max=int(rng.integers(1, 5000)))
        bin_us = int(rng.integers(1, 400))
        for c in range(0, 17):
            fraction = max(c, 0.5) / 16
            out = filter_bursts(s, bin_us=bin_us, fraction=fraction)
            expected, distinct = _filter_bursts_unique(s, bin_us, fraction)
            at_threshold += int(np.sum(distinct == fraction * 16))
            for k in FIELDS:
                assert np.array_equal(getattr(out, k), getattr(expected, k))
    assert at_threshold > 100


def test_burst_holds_one_key_and_the_output():
    # 200 k scattered events on 32x24, plus every 40th bin firing all 768
    # pixels: the key is one int64 per event, and the kept events are
    # selected once, without a second validating copy.
    rng = np.random.default_rng(43)
    g = SensorGeometry(32, 24)
    t = rng.integers(0, 2 * 10**6, size=200_000)
    x = rng.integers(0, 32, size=t.size)
    y = rng.integers(0, 24, size=t.size)
    burst_t = np.repeat(np.arange(0, 2 * 10**6, 40 * 500), g.n_pixels)
    t = np.r_[t, burst_t]
    x = np.r_[x, np.tile(np.arange(g.n_pixels) % 32, burst_t.size // g.n_pixels)]
    y = np.r_[y, np.tile(np.arange(g.n_pixels) // 32, burst_t.size // g.n_pixels)]
    order = np.argsort(t, kind="stable")
    s = EventStream(g, t[order], x[order], y[order], np.ones(t.size, dtype=np.int8))
    del t, x, y, order
    tracemalloc.start()
    try:
        out = filter_bursts(s, bin_us=500, fraction=0.25)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(s) - len(out) >= burst_t.size
    assert peak < 8 * len(s) + sum(getattr(out, k).nbytes for k in COLUMNS)


@pytest.mark.parametrize("chunk", [1000, events._FILTER_CHUNK_EVENTS])
def test_burst_keys_do_not_wrap_near_the_int64_limit(chunk):
    # At bin_us 1 on 346x260, a key of (t * height + y) * width + x wraps
    # int64 past t = 2**63 / 89960.  The sort then no longer groups a bin,
    # and such a key kept the burst below and dropped the one-pixel bin.
    g = SensorGeometry(346, 260)
    n_burst = int(0.4 * g.n_pixels)
    pix = np.r_[np.arange(100) * 7, np.arange(n_burst), np.full(30_000, 5)]

    def stream_at(t0):
        t = np.r_[t0 - 1000 + np.arange(100), np.full(n_burst, t0), np.full(30_000, t0 + 20)]
        return EventStream(g, t, pix % g.width, pix // g.width, np.ones(t.size, dtype=np.int8))

    late_t0 = 2**63 // g.n_pixels - 10
    with mock.patch.object(events, "_FILTER_CHUNK_EVENTS", chunk):
        late = filter_bursts(stream_at(late_t0), bin_us=1)
        early = filter_bursts(stream_at(10**6), bin_us=1)
    assert len(late) == len(early) == 30_100
    assert np.array_equal(late.t - (late_t0 - 10**6), early.t)
    for k in ("pixel", "p", "x", "y"):
        assert np.array_equal(getattr(late, k), getattr(early, k))


def _noisy_small_stream(seed):
    """A 8x6 stream with two loud pixels and one bin in which every pixel fires."""
    rng = np.random.default_rng(seed)
    g = SensorGeometry(8, 6)
    pix = np.r_[rng.integers(0, g.n_pixels, size=300), np.full(80, 9), np.full(60, 30),
                np.arange(g.n_pixels)]
    t = np.r_[rng.integers(0, 10**5, size=440), np.full(g.n_pixels, 5 * 10**4)]
    order = np.argsort(t, kind="stable")
    return EventStream(g, t[order], pix[order] % 8, pix[order] // 8, rng.choice([-1, 1], size=t.size))


@pytest.mark.parametrize("chunk", [1, 5, events._FILTER_CHUNK_EVENTS])
def test_public_filters_never_modify_their_input(chunk):
    s = _noisy_small_stream(59)
    arrays = {k: getattr(s, k) for k in COLUMNS}
    before = {k: a.copy() for k, a in arrays.items()}
    with mock.patch.object(events, "_FILTER_CHUNK_EVENTS", chunk):
        cleaned, flagged = remove_hot_pixels(s, 2.0)
        cleaned_before = {k: getattr(cleaned, k).copy() for k in COLUMNS}
        both = filter_bursts(cleaned, 100, 0.25)
        bursts = filter_bursts(s, 100, 0.25)
        hot_pixel_mask(s, 2.0)
        burst_mask(s, 100, 0.25)
    assert flagged and len(both) < len(cleaned) < len(s) and len(bursts) < len(s)
    for k, a in arrays.items():
        assert getattr(s, k) is a and not a.flags.writeable and np.array_equal(a, before[k])
        assert np.array_equal(getattr(cleaned, k), cleaned_before[k])
        for out in (cleaned, both, bursts):
            assert not np.shares_memory(getattr(out, k), a)


@pytest.mark.parametrize("chunk", [1, 7, events._FILTER_CHUNK_EVENTS])
def test_compact_in_place_matches_select(chunk):
    s = _noisy_small_stream(61)
    rng = np.random.default_rng(chunk)
    for keep in (rng.random(len(s)) < 0.6, np.zeros(len(s), bool), np.ones(len(s), bool)):
        expected = s.select(keep)
        taken = EventStream(s.geometry, s.t, s.x, s.y, s.p)
        with mock.patch.object(events, "_FILTER_CHUNK_EVENTS", chunk):
            got = compact_in_place(taken, keep)
        assert taken.t is None and taken.pixel is None  # the arrays moved to the result
        for k in FIELDS:
            a = getattr(got, k)
            assert a.dtype == getattr(expected, k).dtype and np.array_equal(a, getattr(expected, k))
        for k in COLUMNS:
            a = getattr(got, k)
            assert a.flags.owndata and not a.flags.writeable
    assert compact_in_place(s, None) is s


def test_compact_in_place_refuses_an_array_held_elsewhere():
    s = _noisy_small_stream(67)
    held = EventStream(s.geometry, s.t, s.x, s.y, s.p)
    view = held.pixel[:3]  # keeps pixel referenced during the call
    with pytest.raises(ValueError, match="resize"):
        compact_in_place(held, np.arange(len(s)) % 2 == 0)
    del view


@pytest.mark.parametrize("install", [sys.settrace, sys.setprofile], ids=["trace", "profile"])
def test_compact_in_place_under_a_trace_or_profile_function(install):
    # A trace or profile function (a debugger, a coverage tool, cProfile)
    # adds references of its own that resize's check cannot tell from a
    # holder's; the refused columns are copied instead.
    s = _noisy_small_stream(73)
    keep = np.arange(len(s)) % 3 != 0
    expected = s.select(keep)
    taken = EventStream(s.geometry, s.t, s.x, s.y, s.p)
    previous = sys.gettrace() if install is sys.settrace else sys.getprofile()
    install(lambda *args: None)
    try:
        got = compact_in_place(taken, keep)
    finally:
        install(previous)
    for k in FIELDS:
        a = getattr(got, k)
        assert a.dtype == getattr(expected, k).dtype and np.array_equal(a, getattr(expected, k))
    for k in COLUMNS:
        assert not getattr(got, k).flags.writeable


def test_burst_rejects_bad_params():
    with pytest.raises(ConfigError):
        filter_bursts(EventStream.empty(G4), bin_us=0)
    with pytest.raises(ConfigError):
        filter_bursts(EventStream.empty(G4), fraction=1.5)
