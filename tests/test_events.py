"""Event model, CSV round trips, and the two stream filters."""

from __future__ import annotations

import io
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
    filter_bursts,
    parse_event_csv,
    remove_hot_pixels,
    write_event_csv,
)

G4 = SensorGeometry(4, 4)


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
        assert np.array_equal(back.t, s.t)
        assert np.array_equal(back.x, s.x)
        assert np.array_equal(back.y, s.y)
        assert np.array_equal(back.p, s.p)


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
    return [(a.dtype, a.tolist()) for a in (s.t, s.x, s.y, s.p)]


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
        assert _parse_strict(lf_text.encode(), G4) is not None


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
    assert all(np.array_equal(getattr(back, k), getattr(stream, k)) for k in "txyp")


def test_write_matches_row_oracle_across_blocks():
    rng = np.random.default_rng(29)
    for n in (0, 1, events._WRITE_BLOCK_ROWS, events._WRITE_BLOCK_ROWS + 3):
        s = _random_stream(rng, n, SensorGeometry(346, 260), t_max=10**12)
        assert write_event_csv(s) == _write_event_csv_loop(s)


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
    keep = [i for i in range(len(s)) if int(s.pixel_index()[i]) not in removed_pixels]
    assert np.array_equal(out.t, s.t[keep])
    assert np.array_equal(out.p, s.p[keep])


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
        s = _random_stream(rng, 400, t_max=3000)
        out = filter_bursts(s, bin_us=250, fraction=0.3)
        if not len(out):
            continue
        n_pix = out.geometry.n_pixels
        pair = (out.t // 250) * n_pix + out.pixel_index()
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
    pair = bin_idx * n_pix + stream.pixel_index()
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
            for k in "txyp":
                assert np.array_equal(getattr(out, k), getattr(expected, k))
    assert at_threshold > 100


def test_burst_rejects_bad_params():
    with pytest.raises(ConfigError):
        filter_bursts(EventStream.empty(G4), bin_us=0)
    with pytest.raises(ConfigError):
        filter_bursts(EventStream.empty(G4), fraction=1.5)
