"""Window splitting, the multi-family window set, and time alignment."""

from __future__ import annotations

import numpy as np
import pytest

from evplace.errors import AlignmentError, ConfigError
from evplace.events import EventStream, SensorGeometry
from evplace.windowing import (
    DEFAULT_COUNT_FRACTIONS,
    DEFAULT_SPANS_US,
    align_to_time,
    build_window_set,
    normalized_count,
    sample_grid,
    WindowFamily,
    split_fixed_count,
    split_fixed_time,
    window_families,
)

G = SensorGeometry(4, 4)


def _stream_at(ts, geometry=G):
    ts = np.asarray(ts, dtype=np.int64)
    n = ts.size
    return EventStream(
        geometry,
        ts,
        np.zeros(n, dtype=np.int32),
        np.zeros(n, dtype=np.int32),
        np.ones(n, dtype=np.int8),
    )


def _random_stream(rng, n, t_max=50_000):
    return _stream_at(np.sort(rng.integers(0, t_max, size=n)))


# ---------------------------------------------------------------------------
# fixed-count splitting


def _ranges(family):
    return list(zip(family.start_idx.tolist(), family.end_idx.tolist()))


def test_fixed_count_drops_remainder():
    fam = split_fixed_count(_stream_at(range(10)), 3)
    assert _ranges(fam) == [(0, 3), (3, 6), (6, 9)]


def test_fixed_count_exact_fit():
    fam = split_fixed_count(_stream_at(range(5)), 5)
    assert len(fam) == 1
    assert _ranges(fam) == [(0, 5)]


def test_fixed_count_insufficient_events():
    fam = split_fixed_count(_stream_at(range(4)), 5)
    assert len(fam) == 0
    assert fam.label == "count_5"


def test_fixed_count_window_time_bounds_are_half_open():
    s = _stream_at([0, 5, 5, 9])
    fam = split_fixed_count(s, 4)
    # end bound is exclusive, so it sits one past the last timestamp
    assert fam.t_start_us.tolist() == [0]
    assert fam.t_end_us.tolist() == [10]
    assert fam.n_events.tolist() == [4]


def test_fixed_count_properties_fuzz():
    rng = np.random.default_rng(29)
    for _ in range(30):
        n = int(rng.integers(0, 300))
        count = int(rng.integers(1, 20))
        s = _random_stream(rng, n)
        fam = split_fixed_count(s, count)
        assert len(fam) == n // count
        covered = []
        prev_end = 0
        for start, end in _ranges(fam):
            assert end - start == count
            assert start == prev_end  # disjoint and gap-free
            prev_end = end
            covered.extend(range(start, end))
        assert covered == list(range((n // count) * count))
        for name in ("start_idx", "end_idx", "t_start_us", "t_end_us"):
            arr = getattr(fam, name)
            assert arr.dtype == np.int64 and not arr.flags.writeable


def test_fixed_count_rejects_bad_count():
    with pytest.raises(ConfigError):
        split_fixed_count(_stream_at([0]), 0)


# ---------------------------------------------------------------------------
# fixed-time splitting


def test_fixed_time_intervals():
    fam = split_fixed_time(_stream_at([0, 10, 20]), 15)
    assert list(zip(fam.t_start_us.tolist(), fam.t_end_us.tolist())) == [(0, 15), (15, 30)]
    assert fam.n_events.tolist() == [2, 1]


def test_fixed_time_retains_empty_windows():
    fam = split_fixed_time(_stream_at([0, 40]), 15)
    assert len(fam) == 3
    assert fam.n_events.tolist() == [1, 0, 1]
    assert fam.start_idx[1] == fam.end_idx[1]


def test_fixed_time_single_event():
    fam = split_fixed_time(_stream_at([7]), 5)
    assert _ranges(fam) == [(0, 1)]
    assert (fam.t_start_us.tolist(), fam.t_end_us.tolist()) == ([7], [12])


def test_fixed_time_empty_stream_rejected():
    with pytest.raises(ConfigError):
        split_fixed_time(EventStream.empty(G), 10)


@pytest.mark.parametrize("label", ["", None, 5, b"count_2", ("count_2",)])
def test_family_rejects_bad_label(label):
    with pytest.raises(ConfigError, match="label"):
        WindowFamily(label, [0], [2], [0], [11])


def test_fixed_time_partition_fuzz():
    rng = np.random.default_rng(31)
    for _ in range(30):
        s = _random_stream(rng, int(rng.integers(1, 300)))
        span = int(rng.integers(1, 5000))
        fam = split_fixed_time(s, span)
        t0 = int(s.t[0])
        # windows tile [t0, beyond last event) without gaps
        k = np.arange(len(fam))
        assert np.array_equal(fam.t_start_us, t0 + k * span)
        assert np.array_equal(fam.t_end_us, fam.t_start_us + span)
        assert fam.t_start_us[-1] <= int(s.t[-1]) < fam.t_end_us[-1]
        # each event lands in exactly one window, by half-open membership
        assignment = np.repeat(k, fam.n_events)
        expected = (s.t - t0) // span
        assert np.array_equal(assignment, expected)
        assert int(fam.n_events.sum()) == len(s)


# ---------------------------------------------------------------------------
# normalized counts and window sets


def test_normalized_count_full_resolution():
    assert normalized_count(0.1, SensorGeometry(346, 260)) == 8996


def test_normalized_count_unit_fraction():
    assert normalized_count(1.0, SensorGeometry(10, 10)) == 100


def test_normalized_count_rounds_half_away_from_zero():
    assert normalized_count(0.5, SensorGeometry(3, 3)) == 5


def test_normalized_count_minimum_one():
    assert normalized_count(0.001, SensorGeometry(2, 2)) == 1


def test_normalized_count_rejects_out_of_range():
    with pytest.raises(ConfigError):
        normalized_count(0.0, G)
    with pytest.raises(ConfigError):
        normalized_count(1.5, G)


def test_build_window_set_defaults_give_nine_families():
    rng = np.random.default_rng(37)
    big = SensorGeometry(346, 260)
    n = 200_000
    t = np.sort(rng.integers(0, 1_000_000, size=n))
    s = EventStream(
        big,
        t,
        rng.integers(0, 346, size=n),
        rng.integers(0, 260, size=n),
        np.ones(n, dtype=np.int8),
    )
    ws = build_window_set(s)
    assert len(ws) == len(DEFAULT_COUNT_FRACTIONS) + len(DEFAULT_SPANS_US)
    assert ws[0].label == "count_8996"
    assert ws[-1].label == "span_140000us"


def test_build_window_set_counts_then_spans_order():
    s = _stream_at(range(0, 100, 10))
    ws = build_window_set(s, counts=[2], spans_us=[30])
    assert [f.label for f in ws] == ["count_2", "span_30us"]
    assert len(ws[0]) == 5
    assert ws[1].n_events.tolist() == [3, 3, 3, 1]


def test_build_window_set_fraction_vs_absolute():
    s = _stream_at(range(32))
    # 0.5 of a 16-pixel array is 8 events; explicit integers pass through,
    # so these are two families of one label, whose outputs would collide
    with pytest.raises(ConfigError, match="share the label count_8"):
        build_window_set(s, counts=[0.5, 8], spans_us=[])
    assert [f.label for f in build_window_set(s, counts=[0.5, 9], spans_us=[])] == [
        "count_8", "count_9"
    ]


def test_window_families_are_the_families_of_the_window_set():
    # the command line refuses two families of one label before reading a stream
    counts, spans_us = [0.5, 3, 1.0, 0.01], [30, 7]
    ws = build_window_set(_stream_at(range(32)), counts, spans_us)
    families = window_families(counts, spans_us, G)
    assert [label for label, _, _ in families] == [f.label for f in ws]
    assert [f.label for f in ws] == [
        "count_8", "count_3", "count_16", "count_1", "span_30us", "span_7us"
    ]
    assert [(count, span) for _, count, span in families] == [
        (8, None), (3, None), (16, None), (1, None), (None, 30), (None, 7)
    ]


def test_window_families_refuse_bad_sizes_and_shared_labels():
    for counts, spans_us in (([], []), ([True], []), ([1.5], []), ([0], []), ([], [0])):
        with pytest.raises(ConfigError):
            window_families(counts, spans_us, G)
    with pytest.raises(ConfigError, match="share the label span_30us"):
        window_families([], [30, 30], G)


def test_build_window_set_requires_some_family():
    with pytest.raises(ConfigError):
        build_window_set(_stream_at([0]), counts=[], spans_us=[])


def test_build_window_set_rejects_bool_count():
    with pytest.raises(ConfigError):
        build_window_set(_stream_at(range(10)), counts=[True], spans_us=[])


# ---------------------------------------------------------------------------
# alignment


def test_align_picks_window_of_nearest_event():
    s = _stream_at([0, 10, 20])
    # at 12 event 10 is nearer than 20; at 19 event 20 is nearer
    assert align_to_time(s, [12, 19], span_us=15)[0].tolist() == [0, 1]


def test_align_tie_goes_to_earlier_event():
    s = _stream_at([10, 20])
    assert align_to_time(s, [15], span_us=10)[0].tolist() == [0]


def test_align_clamps_beyond_last_event():
    s = _stream_at([0, 40])
    # the last window holds the last event, the first one the first event
    assert align_to_time(s, [10_000, -10_000], span_us=15)[0].tolist() == [2, 0]


def test_align_skips_empty_windows():
    s = _stream_at([0, 40])
    # t*=22 is inside the empty middle window; nearest events are 40 (|18|)
    # and 0 (|22|), so the final window wins
    assert align_to_time(s, [22], span_us=15)[0].tolist() == [2]


def test_align_requires_events():
    s = _stream_at(range(4))
    with pytest.raises(AlignmentError):
        align_to_time(s, [0], count=5)
    with pytest.raises(AlignmentError):
        align_to_time(EventStream.empty(G), [0], span_us=10)


def test_align_needs_one_positive_size():
    s = _stream_at(range(4))
    for size in ({}, {"count": 2, "span_us": 10}, {"count": 0}, {"span_us": 0}):
        with pytest.raises(ConfigError):
            align_to_time(s, [0], **size)


def _brute_force_align(s, fam, t_star):
    """Index of the window holding the nearest covered event (ties: earlier)."""
    lo, hi = int(fam.start_idx[0]), int(fam.end_idx[-1])
    best_i = min(
        range(lo, hi),
        key=lambda i: (abs(int(s.t[i]) - t_star), int(s.t[i])),
    )
    (expect,) = [k for k, (a, b) in enumerate(_ranges(fam)) if a <= best_i < b]
    return expect


def test_align_matches_brute_force_fuzz():
    rng = np.random.default_rng(41)
    for _ in range(40):
        s = _random_stream(rng, int(rng.integers(2, 150)), t_max=10_000)
        if rng.random() < 0.5:
            size = {"span_us": int(rng.integers(50, 3000))}
            fam = split_fixed_time(s, size["span_us"])
        else:
            size = {"count": int(rng.integers(1, len(s) + 1))}
            fam = split_fixed_count(s, size["count"])
        t = s.t.astype(np.int64)
        gaps = np.flatnonzero((np.diff(t) % 2 == 0) & (np.diff(t) > 0))
        grid = np.concatenate(
            [
                rng.integers(-2000, 14_000, size=20),  # reaches beyond both ends
                [int(t[0]) - 1, int(t[-1]) + 1],
                (t[gaps] + t[gaps + 1]) // 2,  # exact ties between neighbours
                t[rng.integers(0, t.size, size=5)],  # exactly on an event
            ]
        )
        got, start, end = align_to_time(s, grid, **size)
        assert got.shape == start.shape == end.shape == grid.shape
        for t_star, w, a, b in zip(grid.tolist(), got.tolist(), start.tolist(), end.tolist()):
            assert w == _brute_force_align(s, fam, t_star)
            assert (a, b) == _ranges(fam)[w]


# ---------------------------------------------------------------------------
# sample grid


def test_sample_grid_spans_stream():
    s = _stream_at([0, 1_500_000, 3_500_000])
    assert list(sample_grid(s, 1_000_000)) == [0, 1_000_000, 2_000_000, 3_000_000]


def test_sample_grid_short_stream():
    s = _stream_at([5, 10])
    assert list(sample_grid(s, 1_000_000)) == [5]


def test_sample_grid_exact_span():
    s = _stream_at([100, 1_000_100])
    assert list(sample_grid(s, 1_000_000)) == [100, 1_000_100]


def test_sample_grid_spacing_fuzz():
    rng = np.random.default_rng(43)
    for _ in range(20):
        s = _random_stream(rng, int(rng.integers(2, 100)), t_max=1_000_000)
        dt = int(rng.integers(1, 200_000))
        grid = sample_grid(s, dt)
        assert grid[0] == s.t[0]
        assert np.all(np.diff(grid) == dt)
        assert grid[-1] <= s.t[-1]
        assert grid[-1] + dt > s.t[-1]


def test_sample_grid_empty_stream():
    assert sample_grid(EventStream.empty(G), 100).size == 0
