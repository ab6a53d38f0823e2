"""Event accumulation, patch-normalized descriptors, and descriptor I/O."""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest

from evplace import descriptors
from evplace.descriptors import (
    DEGENERATE_STD,
    AccumulationMode,
    DescriptorParams,
    DescriptorSequence,
    _area_band,
    _area_resize,
    _area_weights,
    accumulate_image,
    describe_window_set,
    load_descriptors,
    sad_descriptor,
    write_descriptors,
)
from evplace.distance import Metric, build_distance_matrix
from evplace.errors import (
    ConfigError,
    DegenerateDescriptorError,
    OrderingError,
    ParseError,
)
from evplace.events import EventStream, SensorGeometry
from evplace.windowing import align_to_time, build_window_set, sample_grid, window_families

G = SensorGeometry(4, 4)


def _stream(rows, geometry=G):
    return EventStream.from_events(geometry, rows)


# ---------------------------------------------------------------------------
# accumulation


def _accumulate_all(stream, mode):
    return accumulate_image(stream, 0, len(stream), DescriptorParams(mode=mode, clip=3.0))


def test_accumulate_signed_sum():
    s = _stream([(0, 1, 1, 1), (1, 1, 1, 1)])
    img = _accumulate_all(s, AccumulationMode.SIGNED_SUM)
    assert img[1, 1] == 2.0


def test_accumulate_signed_cancellation():
    s = _stream([(0, 1, 1, 1), (1, 1, 1, -1)])
    img = _accumulate_all(s, AccumulationMode.SIGNED_SUM)
    assert img[1, 1] == 0.0


def test_accumulate_clipping():
    s = _stream([(i, 2, 3, 1) for i in range(5)])
    img = _accumulate_all(s, AccumulationMode.SIGNED_SUM)
    assert img[3, 2] == 3.0


def test_accumulate_count_is_unclipped():
    s = _stream([(i, 2, 3, 1 if i % 2 else -1) for i in range(7)])
    img = _accumulate_all(s, AccumulationMode.COUNT)
    assert img[3, 2] == 7.0
    assert img.sum() == len(s)


def test_accumulate_binary():
    s = _stream([(0, 0, 0, 1), (1, 0, 0, 1), (2, 3, 1, -1)])
    img = _accumulate_all(s, AccumulationMode.BINARY)
    assert img[0, 0] == 1.0
    assert img[1, 3] == 1.0
    assert img.sum() == 2.0


def test_accumulate_count_total_fuzz():
    rng = np.random.default_rng(47)
    for _ in range(10):
        n = int(rng.integers(1, 200))
        t = np.sort(rng.integers(0, 1000, size=n))
        s = EventStream(
            G,
            t,
            rng.integers(0, 4, size=n),
            rng.integers(0, 4, size=n),
            rng.integers(0, 2, size=n) * 2 - 1,
        )
        img = _accumulate_all(s, AccumulationMode.COUNT)
        assert img.sum() == n
        lo, hi = sorted(rng.integers(0, n + 1, size=2).tolist())
        count = DescriptorParams(mode=AccumulationMode.COUNT)
        assert accumulate_image(s, lo, hi, count).sum() == hi - lo
    with pytest.raises(ConfigError):
        accumulate_image(s, 0, len(s) + 1)


def _accumulate_add_at(stream, start_idx, end_idx, mode, clip):
    """Scatter-add rasterization ``accumulate_image`` replaced: its oracle."""
    img = np.zeros((stream.geometry.height, stream.geometry.width), dtype=np.float64)
    y, x, p = (a[start_idx:end_idx] for a in (stream.y, stream.x, stream.p))
    if mode is AccumulationMode.SIGNED_SUM:
        np.add.at(img, (y, x), p.astype(np.float64))
        np.clip(img, -clip, clip, out=img)
    elif mode is AccumulationMode.COUNT:
        np.add.at(img, (y, x), 1.0)
    else:
        img[y, x] = 1.0
    return img


def test_accumulate_matches_add_at_oracle_bit_for_bit():
    rng = np.random.default_rng(89)
    geometries = (G, SensorGeometry(7, 5), SensorGeometry(346, 260))
    for geometry in geometries:
        for _ in range(6):
            n = int(rng.integers(1, 3000))
            s = EventStream(
                geometry,
                np.sort(rng.integers(0, 10**6, size=n)),
                rng.integers(0, geometry.width, size=n),
                rng.integers(0, geometry.height, size=n),
                rng.integers(0, 2, size=n) * 2 - 1,
            )
            lo, hi = sorted(rng.integers(0, n + 1, size=2).tolist())
            for mode in AccumulationMode:
                for start, end in ((0, n), (lo, hi), (lo, lo)):  # (lo, lo) is empty
                    clip = float(rng.choice([0.5, 2.0, 3.0, 1e9]))
                    got = accumulate_image(s, start, end, DescriptorParams(mode=mode, clip=clip))
                    expect = _accumulate_add_at(s, start, end, mode, clip)
                    assert got.dtype == np.float64 and got.shape == expect.shape
                    assert got.tobytes() == expect.tobytes(), (geometry, mode, start, end)


def test_accumulate_cancelling_pixel_and_empty_range_are_positive_zero():
    s = _stream([(0, 1, 2, 1), (1, 1, 2, -1), (2, 3, 0, -1), (3, 3, 0, -1)])
    for mode in AccumulationMode:
        img = accumulate_image(s, 0, len(s), DescriptorParams(mode=mode, clip=3.0))
        assert img.tobytes() == _accumulate_add_at(s, 0, len(s), mode, 3.0).tobytes()
        empty = accumulate_image(s, 2, 2, DescriptorParams(mode=mode, clip=3.0))
        assert empty.dtype == np.float64 and empty.shape == (4, 4)
        assert not np.signbit(empty).any() and not empty.any()
    img = accumulate_image(
        s, 0, len(s), DescriptorParams(mode=AccumulationMode.SIGNED_SUM, clip=3.0)
    )
    assert img[2, 1] == 0.0 and not np.signbit(img[2, 1])
    assert img[0, 3] == -2.0


# ---------------------------------------------------------------------------
# SAD descriptor


def test_sad_constant_image_is_all_zero():
    img = np.full((4, 4), 7.0)
    d = sad_descriptor(img, DescriptorParams(down_width=4, down_height=4, patch=2))
    assert np.all(d == 0.0)


def test_sad_shift_invariance():
    rng = np.random.default_rng(53)
    img = rng.random((8, 8))
    params = DescriptorParams(down_width=8, down_height=8, patch=4)
    a = sad_descriptor(img, params)
    b = sad_descriptor(img + 11.5, params)
    np.testing.assert_allclose(a, b, atol=1e-9)


def test_sad_positive_scale_invariance():
    rng = np.random.default_rng(59)
    img = rng.random((8, 8))
    params = DescriptorParams(down_width=8, down_height=8, patch=4)
    a = sad_descriptor(img, params)
    b = sad_descriptor(img * 3.25, params)
    np.testing.assert_allclose(a, b, atol=1e-9)


def test_sad_two_by_two_patch_normalization():
    # column pattern [[0,2],[0,2]]: mean 1, population std 1, so values
    # normalize to exactly (-1, 1, -1, 1) in row-major order
    params = DescriptorParams(down_width=2, down_height=2, patch=2)
    d = sad_descriptor([[0.0, 2.0], [0.0, 2.0]], params)
    assert list(d) == [-1.0, 1.0, -1.0, 1.0]


def test_sad_downsample_is_box_average():
    # 4x4 -> 2x2 with one bright quadrant: after averaging, that patch cell
    # differs from the rest, and one 2x2 patch normalizes it exactly
    img = np.zeros((4, 4))
    img[:2, :2] = 4.0
    d = sad_descriptor(img, DescriptorParams(down_width=2, down_height=2, patch=2))
    # downsampled image is [[4,0],[0,0]]; mean 1, std sqrt(3)
    expect = np.array([3.0, -1.0, -1.0, -1.0]) / np.sqrt(3.0)
    np.testing.assert_allclose(d, expect, rtol=1e-12)


def test_sad_identity_resize_keeps_values():
    rng = np.random.default_rng(61)
    img = rng.random((6, 6))
    d = sad_descriptor(img, DescriptorParams(down_width=6, down_height=6, patch=6))
    manual = (img - img.mean()) / img.std()
    np.testing.assert_allclose(d, manual.ravel(), rtol=1e-12)


def test_sad_dimension_checks():
    img = np.zeros((4, 4))
    with pytest.raises(ConfigError):
        # patch must divide width
        sad_descriptor(img, DescriptorParams(down_width=3, down_height=4, patch=2))
    with pytest.raises(ConfigError):
        # cannot upsample
        sad_descriptor(img, DescriptorParams(down_width=8, down_height=4, patch=2))
    with pytest.raises(ConfigError):
        # needs a 2-D image
        sad_descriptor(img.ravel(), DescriptorParams(down_width=4, down_height=4, patch=2))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_sad_rejects_non_finite_image(bad):
    img = np.random.default_rng(97).random((260, 346))
    img[100, 200] = bad
    with pytest.raises(ConfigError, match="non-finite"):
        sad_descriptor(img)


def _area_weights_loop(n_in, n_out):
    """Reference box-average weights, one overlap at a time."""
    scale = n_in / n_out
    w = np.zeros((n_out, n_in), dtype=np.float64)
    for r in range(n_out):
        lo = r * scale
        hi = (r + 1) * scale
        i0 = int(np.floor(lo))
        i1 = min(n_in, int(np.ceil(hi)))
        for i in range(i0, i1):
            overlap = min(i + 1.0, hi) - max(float(i), lo)
            if overlap > 0:
                w[r, i] = overlap / scale
    return w


def test_area_weights_match_loop_oracle_bit_for_bit():
    sizes_in = (1, 2, 3, 5, 7, 8, 12, 16, 24, 32, 33, 64, 100, 260, 346, 399)
    sizes_out = (1, 2, 3, 6, 7, 8, 24, 32, 64)
    for n_in in sizes_in:
        for n_out in sizes_out:
            got = _area_weights(n_in, n_out)
            expect = _area_weights_loop(n_in, n_out)
            assert got.shape == expect.shape
            assert got.tobytes() == expect.tobytes(), (n_in, n_out)
            assert not got.flags.writeable  # shared by every caller of the cache


def test_area_resize_matches_oracle_weights_at_sensor_size():
    rng = np.random.default_rng(83)
    geometry = SensorGeometry(346, 260)
    n = 20_000
    s = EventStream(
        geometry,
        np.sort(rng.integers(0, 1_000_000, size=n)),
        rng.integers(0, 346, size=n),
        rng.integers(0, 260, size=n),
        rng.integers(0, 2, size=n) * 2 - 1,
    )
    wr, wc = _area_weights_loop(260, 24), _area_weights_loop(346, 32)
    for mode in (AccumulationMode.SIGNED_SUM, AccumulationMode.COUNT):
        img = accumulate_image(s, 0, n, DescriptorParams(mode=mode, clip=3.0))
        tmp = (wr[:, :, None] * img[None, :, :]).sum(axis=1)
        expect = (tmp[:, :, None] * wc.T[None, :, :]).sum(axis=1)
        assert _area_resize(img, 24, 32).tobytes() == expect.tobytes(), mode


def _area_resize_dense(img, out_h, out_w):
    """Every input row in every output row: the banded row step's oracle."""
    wr = _area_weights_loop(img.shape[0], out_h)
    wc = _area_weights_loop(img.shape[1], out_w)
    tmp = (wr[:, :, None] * img[None, :, :]).sum(axis=1)
    return (tmp[:, :, None] * wc.T[None, :, :]).sum(axis=1)


@pytest.mark.parametrize(
    "shape",
    [
        (260, 346, 24, 32),
        (260, 346, 12, 16),
        (77, 100, 24, 32),
        (399, 399, 8, 8),
        (33, 47, 9, 13),
        (24, 32, 12, 16),
        (7, 5, 3, 2),
        (130, 1, 3, 1),  # one column: numpy sums the rows pairwise
    ],
)
def test_area_resize_banded_rows_match_dense_product(shape):
    in_h, in_w, out_h, out_w = shape
    rng = np.random.default_rng(in_h * 1000 + in_w)
    signed_zeros = np.where(rng.random((in_h, in_w)) < 0.5, 0.0, -0.0)
    sparse_negative = np.where(
        rng.random((in_h, in_w)) < 0.05, -rng.integers(1, 4, size=(in_h, in_w)), 0.0
    )
    # Every pixel -0.0 but one outside row 0's band: the zero-weight terms
    # the band skips differ in the sign of their zeros.
    one_positive = np.full((in_h, in_w), -0.0)
    one_positive[-1, in_w // 2] = 1.0
    images = [rng.standard_normal((in_h, in_w)) for _ in range(5)]
    images += [rng.integers(-3, 4, size=(in_h, in_w)).astype(np.float64)]
    images += [signed_zeros, -signed_zeros, sparse_negative, one_positive]
    images += [np.full((in_h, in_w), -0.0)]
    for k, img in enumerate(images):
        got = _area_resize(img, out_h, out_w)
        assert got.tobytes() == _area_resize_dense(img, out_h, out_w).tobytes(), (shape, k)


def test_area_band_holds_the_nonzero_weights_in_order():
    for n_in, n_out in ((260, 24), (346, 32), (7, 3), (24, 12), (399, 8), (5, 5)):
        idx, wband = _area_band(n_in, n_out)
        w = _area_weights_loop(n_in, n_out)
        assert idx.shape == wband.shape and idx.shape[0] == n_out
        assert not idx.flags.writeable and not wband.flags.writeable
        assert idx.min() >= 0 and idx.max() < n_in
        for r in range(n_out):
            (nonzero,) = np.nonzero(w[r])
            k = nonzero.size
            assert np.array_equal(idx[r, :k], nonzero)
            assert wband[r, :k].tobytes() == w[r, nonzero].tobytes()
            assert not wband[r, k:].any()
    assert _area_band(260, 24)[0].shape == (24, 12)


def test_area_resize_temporaries_stay_small_at_sensor_size():
    # A whole (24, 260, 346) float64 product would be 17 MB.  The banded
    # rows add one band offset at a time into one (24, 346) buffer (66 kB,
    # with two like it per offset), where a gather of the whole band took
    # 0.8 MB and its weighted copy as much again.  The column product is
    # 0.7 MB a block of rows at a time (2.1 MB for all 24 rows at once).
    img = np.random.default_rng(84).random((260, 346))
    _area_resize(img, 24, 32)  # fills the weight cache outside the measurement
    tracemalloc.start()
    try:
        _area_resize(img, 24, 32)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * img.nbytes


def test_descriptor_dim_matches_params():
    p = DescriptorParams(down_width=8, down_height=4, patch=4)
    assert p.dim == 32


@pytest.mark.parametrize("width, height", [(0, 0), (0, 8), (8, 0), (-4, -4), (-8, 8)])
def test_params_refuse_a_target_size_below_one(width, height):
    # 0 passes the patch-divides check and once reached a ZeroDivisionError
    with pytest.raises(ConfigError, match=f"^target size {width}x{height} must be positive$"):
        DescriptorParams(down_width=width, down_height=height, patch=4)


@pytest.mark.parametrize("clip", [0.0, -1.0, float("nan")])
def test_params_refuse_a_clip_that_is_not_positive(clip):
    with pytest.raises(ConfigError, match="clip must be positive"):
        DescriptorParams(clip=clip)


# ---------------------------------------------------------------------------
# describing a window set


def _dense_stream(rng, n, t_max, geometry=G):
    t = np.sort(rng.integers(0, t_max, size=n))
    return EventStream(
        geometry,
        t,
        rng.integers(0, geometry.width, size=n),
        rng.integers(0, geometry.height, size=n),
        rng.integers(0, 2, size=n) * 2 - 1,
    )


def test_describe_window_set_shapes_and_grid():
    rng = np.random.default_rng(67)
    s = _dense_stream(rng, 500, 100_000)
    families = window_families([10, 40], [20_000], s.geometry)
    ws = build_window_set(s, counts=[10, 40], spans_us=[20_000])
    grid = sample_grid(s, 25_000)
    params = DescriptorParams(down_width=4, down_height=4, patch=2)
    seqs = describe_window_set(families, s, grid, params)
    assert [q.label for q in seqs] == ["count_10", "count_40", "span_20000us"]
    for q in seqs:
        assert len(q) == grid.size
        assert np.array_equal(q.t_us, grid)
        assert q.dim == params.dim
    # every row is the descriptor of the split_fixed_* window holding the
    # covered event nearest its grid time (ties: the earlier time), then
    # nearest in stream order to the sample's place, after every earlier event
    for family, q in zip(ws, seqs):
        covered = s.t[: int(family.end_idx[-1])]
        for j, t_star in enumerate(grid.tolist()):
            slot = int(np.count_nonzero(covered < t_star))
            i = np.arange(covered.size)
            order = np.where(i < slot, slot - i, i - slot + 1)
            nearest = int(np.lexsort((order, covered, np.abs(covered - t_star)))[0])
            (w,) = np.flatnonzero((family.start_idx <= nearest) & (nearest < family.end_idx))
            image = accumulate_image(
                s, int(family.start_idx[w]), int(family.end_idx[w]), params
            )
            assert np.array_equal(q.values[j], sad_descriptor(image, params))


def test_describe_empty_grid_rejected():
    rng = np.random.default_rng(71)
    s = _dense_stream(rng, 50, 1000)
    families = window_families([5], [], s.geometry)
    with pytest.raises(ConfigError):
        describe_window_set(families, s, np.array([], dtype=np.int64), DescriptorParams())


def test_describe_family_without_windows_fails_alignment():
    from evplace.errors import AlignmentError

    rng = np.random.default_rng(73)
    s = _dense_stream(rng, 20, 1000)
    families = window_families([50], [], s.geometry)  # more than len(s)
    with pytest.raises(AlignmentError):
        describe_window_set(families, s, sample_grid(s, 100), DescriptorParams(down_width=4, down_height=4, patch=2))


def _sad_descriptor_2d(image, params):
    """One frame's descriptor by 2-D ops alone, the resize by the dense
    product: the oracle of the block path."""
    dh, dw, p = params.down_height, params.down_width, params.patch
    small = image.copy() if image.shape == (dh, dw) else _area_resize_dense(image, dh, dw)
    tiles = small.reshape(dh // p, p, dw // p, p)
    mean = tiles.mean(axis=(1, 3), keepdims=True)
    centered = tiles - mean
    std = np.sqrt((centered**2).mean(axis=(1, 3), keepdims=True))
    normed = np.where(std < DEGENERATE_STD, 0.0, centered / np.maximum(std, DEGENERATE_STD))
    return normed.ravel()


def _describe_per_frame(families, stream, grid, params):
    """Each family's rows from one accumulate_image and one 2-D descriptor
    per distinct window."""
    rows = []
    for _, count, span_us in families:
        w, start, end = align_to_time(stream, grid, count, span_us)
        _, first, row_window = np.unique(w, return_index=True, return_inverse=True)
        frames = np.array(
            [
                _sad_descriptor_2d(accumulate_image(stream, int(start[i]), int(end[i]), params), params)
                for i in first
            ]
        )
        rows.append(frames[row_window])
    return rows


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("mode", list(AccumulationMode))
@pytest.mark.parametrize(
    "geometry, down, patch, grid_dt_us",
    [
        (SensorGeometry(32, 24), (16, 12), 4, 10_000),
        (SensorGeometry(346, 260), (32, 24), 8, 100_000),
        (SensorGeometry(45, 30), (12, 9), 3, 10_000),  # non-integer ratios
        (SensorGeometry(1, 40), (1, 6), 1, 10_000),  # one column
    ],
)
def test_describe_window_set_equals_the_per_frame_loop(geometry, down, patch, grid_dt_us, mode):
    rng = np.random.default_rng(geometry.n_pixels)
    s = _dense_stream(rng, 4_000, 400_000, geometry)
    params = DescriptorParams(
        mode=mode, clip=2.0, down_width=down[0], down_height=down[1], patch=patch
    )
    families = window_families([150, 900], [30_000], geometry)
    grid = sample_grid(s, grid_dt_us)
    seqs = describe_window_set(families, s, grid, params)
    for seq, expect in zip(seqs, _describe_per_frame(families, s, grid, params)):
        assert _same_bits(seq.values, expect), (seq.label, mode)


@pytest.mark.parametrize(
    "shape", [(24, 32, 12, 16, 4), (260, 346, 24, 32, 8), (30, 45, 9, 12, 3), (40, 1, 6, 1, 1)]
)
def test_a_stack_is_described_as_its_frames_one_at_a_time(shape):
    in_h, in_w, out_h, out_w, patch = shape
    rng = np.random.default_rng(in_h * in_w)
    signed_zeros = np.where(rng.random((in_h, in_w)) < 0.5, 0.0, -0.0)
    sparse_negative = np.where(
        rng.random((in_h, in_w)) < 0.05, -rng.integers(1, 4, size=(in_h, in_w)), -0.0
    )
    stack = np.stack(
        [
            signed_zeros,
            -signed_zeros,
            sparse_negative,
            rng.integers(0, 5, size=(in_h, in_w)).astype(np.float64),
            rng.standard_normal((in_h, in_w)),
        ]
    )
    params = DescriptorParams(down_width=out_w, down_height=out_h, patch=patch)
    small = _area_resize(stack, out_h, out_w)
    frames = sad_descriptor(stack, params)
    for k, image in enumerate(stack):
        assert _same_bits(small[k], _area_resize_dense(image, out_h, out_w)), k
        assert _same_bits(frames[k], _sad_descriptor_2d(image, params)), k
        assert _same_bits(frames[k], sad_descriptor(image, params)), k


def _record_stacks():
    """Patch ``sad_descriptor`` to record each stack it is given."""
    stacks = []

    def record(images, params):
        stacks.append(images)
        return sad_descriptor(images, params)

    return stacks, mock.patch.object(descriptors, "sad_descriptor", side_effect=record)


def test_describe_window_set_fills_blocks_with_a_partial_last_one():
    geometry = SensorGeometry(32, 24)
    per_block = descriptors._BLOCK_BYTES // (geometry.n_pixels * 8)
    assert per_block == 10
    rng = np.random.default_rng(89)
    s = _dense_stream(rng, 20_000, 2_400_000, geometry)
    params = DescriptorParams(
        mode=AccumulationMode.COUNT, down_width=16, down_height=12, patch=4
    )
    # count_400 picks a window per grid point; count_20000 has one window.
    families = window_families([400, len(s)], [], geometry)
    grid = sample_grid(s, 100_000)
    n_windows = np.unique(align_to_time(s, grid, count=400)[0]).size
    assert n_windows > 2 * per_block and n_windows % per_block
    stacks, patch = _record_stacks()
    with patch:
        seqs = describe_window_set(families, s, grid, params)
    sizes = [min(per_block, n_windows - b) for b in range(0, n_windows, per_block)]
    assert [len(stack) for stack in stacks] == sizes + [1]
    for seq, expect in zip(seqs, _describe_per_frame(families, s, grid, params)):
        assert _same_bits(seq.values, expect), seq.label


@pytest.mark.parametrize("mode", list(AccumulationMode))
def test_describe_window_set_calls_sad_descriptor_once_per_block(mode):
    geometry = SensorGeometry(32, 24)
    per_block = descriptors._BLOCK_BYTES // (geometry.n_pixels * 8)
    s = _dense_stream(np.random.default_rng(103), 6_000, 1_200_000, geometry)
    params = DescriptorParams(mode=mode, clip=2.0, down_width=16, down_height=12, patch=4)
    families = window_families([60, 700], [45_000], geometry)
    grid = sample_grid(s, 20_000)
    n_windows = [np.unique(align_to_time(s, grid, c, span)[0]).size for _, c, span in families]
    stacks, patch = _record_stacks()
    with patch:
        seqs = describe_window_set(families, s, grid, params)
    expect_sizes = [
        min(per_block, n - b) for n in n_windows for b in range(0, n, per_block)
    ]
    assert [stack.shape for stack in stacks] == [(k, 24, 32) for k in expect_sizes]
    for seq, expect in zip(seqs, _describe_per_frame(families, s, grid, params)):
        assert _same_bits(seq.values, expect), (seq.label, mode)


def test_sad_descriptor_takes_one_image_or_a_block():
    rng = np.random.default_rng(107)
    params = DescriptorParams(down_width=16, down_height=12, patch=4)
    block = rng.integers(-3, 4, size=(7, 24, 32)).astype(np.float64)
    frames = sad_descriptor(block, params)
    assert frames.shape == (7, params.dim)
    for k, image in enumerate(block):
        one = sad_descriptor(image, params)
        assert one.shape == (params.dim,) and _same_bits(one, frames[k]), k
        assert _same_bits(sad_descriptor(block[k : k + 1], params)[0], one), k
    for bad in (block[0, 0], block[None]):
        with pytest.raises(ConfigError, match="2-D or a 3-D block"):
            sad_descriptor(bad, params)


def test_a_block_at_sensor_size_is_the_accumulated_image_uncopied():
    geometry = SensorGeometry(346, 260)
    assert descriptors._BLOCK_BYTES < geometry.n_pixels * 8
    s = _dense_stream(np.random.default_rng(97), 3_000, 300_000, geometry)
    images = []

    def accumulate(*args):
        images.append(accumulate_image(*args))
        return images[-1]

    stacks, patch = _record_stacks()
    with patch, mock.patch.object(descriptors, "accumulate_image", side_effect=accumulate):
        describe_window_set(window_families([500], [], geometry), s, sample_grid(s, 50_000))
    assert len(stacks) == len(images) > 1
    for stack, image in zip(stacks, images):
        assert stack.shape == (1, 260, 346) and np.shares_memory(stack, image)


def test_describe_window_set_peak_follows_the_block_not_the_frame_count():
    geometry = SensorGeometry(32, 24)
    rng = np.random.default_rng(101)
    s = _dense_stream(rng, 100_000, 10_000_000, geometry)
    params = DescriptorParams(
        mode=AccumulationMode.COUNT, down_width=16, down_height=12, patch=4
    )
    families = window_families([77], [], geometry)
    per_block = descriptors._BLOCK_BYTES // (geometry.n_pixels * 8)
    for grid_dt_us in (300_000, 25_000):  # 34 and 400 frames: 4 and 40 blocks
        grid = sample_grid(s, grid_dt_us)
        assert grid.size > 3 * per_block
        describe_window_set(families, s, grid, params)  # fills the weight caches
        tracemalloc.start()
        try:
            describe_window_set(families, s, grid, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The result holds each distinct frame and each grid row once; a
        # block's images, products and sums stay under 12 blocks of bytes.
        # All 400 frames at once would be 2.5 MB of images and 13 MB of
        # column products.
        result = 2 * grid.size * params.dim * 8
        assert peak < result + 12 * descriptors._BLOCK_BYTES, (grid.size, peak)


# ---------------------------------------------------------------------------
# descriptor CSV I/O


def test_load_descriptors_basic():
    seq = load_descriptors("0.5,1,0,0\n1.5,0,1,0\n")
    assert len(seq) == 2
    assert seq.dim == 3
    assert list(seq.t_us) == [500_000, 1_500_000]
    assert seq.label == "external_external"


def test_load_descriptors_ragged_row_rejected():
    with pytest.raises(ParseError, match="line 2"):
        load_descriptors("0.5,1,0,0\n1.5,0,1\n")


def test_load_descriptors_empty_file():
    seq = load_descriptors("")
    assert len(seq) == 0


def test_load_descriptors_requires_increasing_time():
    with pytest.raises(OrderingError):
        load_descriptors("2.0,1,0\n1.0,0,1\n")


def test_load_descriptors_keeps_a_zero_vector_that_only_cosine_refuses():
    # SAD compares a zero row like any other; cosine refuses it at distance.
    zero = load_descriptors("1.0,0,0,0\n", "q")
    assert zero.values.tolist() == [[0.0, 0.0, 0.0]]
    other = load_descriptors("1.0,1,2,3\n", "r")
    assert build_distance_matrix(zero, other, Metric.SAD).values.tolist() == [[2.0]]
    with pytest.raises(DegenerateDescriptorError, match=r"^query external_q: 1 zero-norm"):
        build_distance_matrix(zero, other, Metric.COSINE)


def test_load_descriptors_rejects_non_numeric():
    with pytest.raises(ParseError, match="line 1"):
        load_descriptors("1.0,a,b\n")


def test_descriptor_csv_round_trip_fuzz():
    rng = np.random.default_rng(79)
    for _ in range(15):
        n = int(rng.integers(1, 30))
        dim = int(rng.integers(1, 16))
        t_us = np.cumsum(rng.integers(1, 10_000_000, size=n)).astype(np.int64)
        values = rng.standard_normal((n, dim))
        seq = DescriptorSequence("external_fuzz", t_us, values)
        back = load_descriptors(write_descriptors(seq), "fuzz")
        assert np.array_equal(back.t_us, seq.t_us)
        assert np.array_equal(back.values, seq.values)  # bit-exact round trip


def test_descriptor_times_past_2033_survive_a_round_trip():
    # t * 1e6 of a parsed float rounds twice: ~0.8 % of these came back 1 us off
    rng = np.random.default_rng(227)
    t_us = np.unique(rng.integers(2 * 10**15, 8 * 10**15, size=20_000))
    seq = DescriptorSequence("external_far", t_us, np.zeros((t_us.size, 1)))
    assert np.array_equal(load_descriptors(write_descriptors(seq), "far").t_us, t_us)


def test_load_descriptors_keeps_its_errors_for_time_fields():
    cases = [
        ("1e400,1.0\n", ParseError, "non-finite value"),
        ("1e300,1.0\n", ParseError, "time 1e300 s beyond int64 microseconds"),
        ("0x1,1.0\n", ParseError, "non-numeric field in row '0x1,1.0'"),
        ("nan,1.0\n", ParseError, "non-finite value"),
    ]
    for text, error, message in cases:
        with pytest.raises(error, match=f"^line 1: {message}$"):
            load_descriptors(text)
    # exact shift, then half to even: 0.0000025 s is 2.5 us, read as 2
    assert load_descriptors("0.0000025,1.0\n0.0000035,1.0\n").t_us.tolist() == [2, 4]


def _write_descriptors_loop(seq: DescriptorSequence) -> bytes:
    """The per-value ``repr`` writer the one-format-per-row writer replaced."""
    out = []
    for i in range(len(seq)):
        t_s = seq.t_us[i] / 1e6
        out.append(repr(float(t_s)) + "," + ",".join(repr(float(v)) for v in seq.values[i]) + "\n")
    return "".join(out).encode("utf-8")


def test_write_descriptors_equals_the_per_value_loop():
    rng = np.random.default_rng(229)
    values = rng.standard_normal((120, 768)) * 10.0 ** rng.integers(-300, 300, (120, 768))
    values.flat[:6] = [0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300]
    t_us = np.concatenate([[0], np.cumsum(rng.integers(1, 10**9, 119))])
    seq = DescriptorSequence("external_w", t_us, values)
    assert write_descriptors(seq) == _write_descriptors_loop(seq)
    empty = DescriptorSequence("external_e", np.array([7]), np.ones((1, 0)))
    assert write_descriptors(empty) == _write_descriptors_loop(empty) == b"7e-06,\n"


@pytest.mark.parametrize("label", ["", None, 3, b"external_x"])
def test_sequence_rejects_bad_label(label):
    with pytest.raises(ConfigError, match="label"):
        DescriptorSequence(label, np.array([5], dtype=np.int64), np.ones((1, 3)))


def test_sequence_requires_strictly_increasing_times():
    with pytest.raises(OrderingError):
        DescriptorSequence("external_x", np.array([5, 5], dtype=np.int64), np.ones((2, 3)))
