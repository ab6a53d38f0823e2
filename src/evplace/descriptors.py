"""Turning event windows into fixed-length place descriptors.

The built-in descriptor rasterizes a window's events into a plain
``(height, width)`` float array, area-averages it down to a small frame,
normalizes each patch to zero mean and unit variance, and flattens the
result into a 1-D vector.  Patch normalization makes the vector invariant
to global changes in event rate, which is what varies most between visits
to the same place.

Resize and normalization work on a ``(B, height, width)`` stack of
images, so :func:`describe_window_set` describes a block of windows per
numpy call rather than one: at small sizes a frame costs little more than
the overhead of each call.  Every output value is the same sum in the same
order whatever the block: :func:`sad_descriptor` takes one image or a
block.

Descriptors computed elsewhere (e.g. by a learned image model on
reconstructed frames) can be loaded from CSV and used interchangeably:
downstream code only sees :class:`DescriptorSequence` objects, a
timestamp vector plus an ``(n, dim)`` value matrix under a label string.
A computed sequence carries its window family's label (``count_230``,
``span_44000us``); a loaded one is labelled ``external_<name>``.
"""

from __future__ import annotations

import decimal
import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .events import EventStream, _check_increasing, _freeze, _read_only, csv_rows, csv_table
from .windowing import align_to_time

DEFAULT_CLIP = 3.0
DEFAULT_DOWN_WIDTH = 32
DEFAULT_DOWN_HEIGHT = 24
DEFAULT_PATCH = 8
# Patches with standard deviation below this are emitted as zeros.
DEGENERATE_STD = 1e-9
# Output rows per block of the area resize's column products.
_RESIZE_BLOCK_ROWS = 8
# Image bytes per block of frames that describe_window_set resizes and
# normalizes together: 10 frames at 32x24, and one frame, the accumulated
# image itself uncopied, at 346x260 (720 kB), where the per-call overhead
# is small beside the work.  Larger blocks buy little and raise the peak.
_BLOCK_BYTES = 64 * 1024


class AccumulationMode(enum.Enum):
    SIGNED_SUM = "signed_sum"
    COUNT = "count"
    BINARY = "binary"


@dataclass(frozen=True)
class DescriptorSequence:
    """Time-ordered descriptors of one source over one traverse.

    ``label`` names the source: the window family's label (``count_<N>``
    or ``span_<S>us``) for descriptors computed here, ``external_<name>``
    for descriptors loaded from CSV.  It must be a non-empty string.
    Stored as a timestamp vector plus an ``(n, dim)`` value matrix so the
    distance stage can work on whole arrays.
    """

    label: str
    t_us: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if not isinstance(self.label, str) or not self.label:
            raise ConfigError(f"sequence label must be a non-empty string, got {self.label!r}")
        t, v = _freeze(self, t_us=np.int64, values=np.float64)
        if t.ndim != 1 or v.ndim != 2 or t.size != v.shape[0]:
            raise ConfigError("descriptor sequence arrays are inconsistent")
        _check_increasing(t, "descriptor timestamps")

    @property
    def dim(self) -> int:
        return int(self.values.shape[1])

    def __len__(self) -> int:
        return int(self.t_us.size)


@dataclass(frozen=True)
class DescriptorParams:
    """Knobs of the built-in descriptor pipeline."""

    mode: AccumulationMode = AccumulationMode.SIGNED_SUM
    clip: float = DEFAULT_CLIP
    down_width: int = DEFAULT_DOWN_WIDTH
    down_height: int = DEFAULT_DOWN_HEIGHT
    patch: int = DEFAULT_PATCH

    def __post_init__(self):
        if not self.clip > 0:  # NaN fails too
            raise ConfigError(f"clip must be positive, got {self.clip}")
        if self.patch < 1:
            raise ConfigError(f"patch must be >= 1, got {self.patch}")
        if self.down_width < 1 or self.down_height < 1:
            raise ConfigError(f"target size {self.down_width}x{self.down_height} must be positive")
        if self.down_width % self.patch or self.down_height % self.patch:
            raise ConfigError(
                f"patch {self.patch} must divide {self.down_width}x{self.down_height}"
            )

    @property
    def dim(self) -> int:
        return self.down_width * self.down_height


def accumulate_image(
    stream: EventStream,
    start_idx: int,
    end_idx: int,
    params: DescriptorParams = DescriptorParams(),
) -> np.ndarray:
    """Rasterize events ``[start_idx, end_idx)`` onto the pixel array.

    Returns a float64 ``(height, width)`` array in ``params.mode``:
    ``SIGNED_SUM`` adds each event's polarity and clips the result to
    ``[-params.clip, +params.clip]``; ``COUNT`` counts events per pixel (no
    clipping); ``BINARY`` marks pixels that fired at least once.  An empty
    range yields an all-zero image.

    Every mode is one ``np.bincount`` over the stream's row-major pixel ids
    (``stream.pixel``).  It adds each pixel's events in stream order from
    ``+0.0``, as a scatter-add into a zero image does, and the sums are
    small integers, so they are exact.
    """
    if not (0 <= start_idx <= end_idx <= len(stream)):
        raise ConfigError("window indices fall outside the stream")
    geom = stream.geometry
    sl = slice(start_idx, end_idx)
    flat = stream.pixel[sl]
    if params.mode is AccumulationMode.SIGNED_SUM:
        weights = stream.p[sl].astype(np.float64)
        # With no events, bincount returns int64 even when weighted.
        img = np.bincount(flat, weights=weights, minlength=geom.n_pixels)
        img = img.astype(np.float64, copy=False)
        np.clip(img, -params.clip, params.clip, out=img)
    elif params.mode is AccumulationMode.COUNT:
        img = np.bincount(flat, minlength=geom.n_pixels).astype(np.float64)
    elif params.mode is AccumulationMode.BINARY:
        img = (np.bincount(flat, minlength=geom.n_pixels) > 0).astype(np.float64)
    else:
        raise ConfigError(f"unknown accumulation mode {params.mode!r}")
    return img.reshape(geom.height, geom.width)


@functools.lru_cache(maxsize=64)
def _area_weights(n_in: int, n_out: int) -> np.ndarray:
    """Row-stochastic ``(n_out, n_in)`` box-average weights, read-only.

    Output cell ``r`` averages the input interval ``[r, r + 1) * n_in / n_out``;
    each weight is that interval's overlap with input cell ``i``.
    """
    scale = n_in / n_out
    r = np.arange(n_out, dtype=np.int64)[:, None]
    i = np.arange(n_in, dtype=np.int64)[None, :]
    overlap = np.minimum(i + 1.0, (r + 1) * scale) - np.maximum(i * 1.0, r * scale)
    return _read_only(np.where(overlap > 0, overlap / scale, 0.0))


@functools.lru_cache(maxsize=64)
def _area_band(n_in: int, n_out: int) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero entries of each row of :func:`_area_weights`, read-only.

    Returns ``(idx, wband)``, both ``(n_out, L)`` with ``L`` the widest
    band: the input cells of each output cell in ascending order, then
    padding at weight zero (in-range cells, so a gather needs no mask).
    """
    w = _area_weights(n_in, n_out)
    width = np.count_nonzero(w, axis=1)
    offset = np.arange(int(width.max()))
    idx = np.minimum(np.argmax(w > 0, axis=1)[:, None] + offset, n_in - 1)
    wband = np.where(offset < width[:, None], np.take_along_axis(w, idx, axis=1), 0.0)
    return _read_only(idx), _read_only(wband)


def _area_resize(pixels: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Downsample the last two axes by exact box averaging (handles
    non-integer ratios); leading axes are a stack of images.

    ``pixels`` must be finite: the row step below skips zero-weight rows,
    which is exact only because ``0 * x`` is a zero for finite ``x``.
    """
    in_h, in_w = pixels.shape[-2:]
    if (in_h, in_w) == (out_h, out_w):
        return pixels.copy()
    wc = _area_weights(in_w, out_w)
    if in_w == 1:
        # One column makes the rows the contiguous axis, which numpy sums
        # pairwise, zero-weight rows included; the product is out_h x in_h.
        tmp = (_area_weights(in_h, out_h)[:, :, None] * pixels[..., None, :, :]).sum(axis=-2)
    else:
        # Each output row sums only its band of input rows, in ascending
        # order, one band offset at a time into one (..., out_h, in_w)
        # buffer: the order in which numpy sums a band axis, starting from
        # +0.0, so a partial sum is never -0.0 and the skipped zero-weight
        # terms would not have changed it.
        idx, wband = _area_band(in_h, out_h)
        tmp = np.zeros(pixels.shape[:-2] + (out_h, in_w))
        for k in range(idx.shape[1]):
            tmp += pixels[..., idx[:, k], :] * wband[:, k, None]
    # Columns: a broadcast-and-sum over the full weights, which keeps their
    # zero terms: dropping them would change the values.  Each output row
    # is its own sum, so taking _RESIZE_BLOCK_ROWS of them at a time gives
    # the same bits with a third of the product (0.7 MB, not 2.1 MB, per
    # 346x260 frame to 32x24).
    wct = wc.T
    out = np.empty(pixels.shape[:-2] + (out_h, out_w))
    for r in range(0, out_h, _RESIZE_BLOCK_ROWS):
        rows = slice(r, r + _RESIZE_BLOCK_ROWS)
        out[..., rows, :] = (tmp[..., rows, :, None] * wct).sum(axis=-2)
    return out


def sad_descriptor(
    image: np.ndarray, params: DescriptorParams = DescriptorParams()
) -> np.ndarray:
    """The patch-normalized frame descriptor of a ``(height, width)`` event
    image, ``(dim,)``, or of each image of a ``(B, height, width)`` block,
    ``(B, dim)``.

    Each image is area-averaged down to ``params.down_height x
    params.down_width``, each non-overlapping ``params.patch x params.patch``
    tile is shifted to zero mean and scaled to unit (population) standard
    deviation, and the frame is flattened row-major.  Tiles with nearly
    zero variance come out as zeros.  An image's values are the same sums in
    the same order whatever block it is in, and as on its own: the
    broadcast-and-sum ops reduce only within a frame, along the same axes.
    """
    images = np.asarray(image, dtype=np.float64)
    if images.ndim not in (2, 3):
        raise ConfigError(f"image must be 2-D or a 3-D block, got shape {images.shape}")
    down_width, down_height, patch = params.down_width, params.down_height, params.patch
    if not np.isfinite(images).all():
        raise ConfigError("image contains non-finite values")
    in_h, in_w = images.shape[-2:]
    if down_width > in_w or down_height > in_h:
        raise ConfigError(
            f"target {down_height}x{down_width} exceeds image {in_h}x{in_w}"
        )
    small = _area_resize(images, down_height, down_width)
    blocks = small.reshape(-1, down_height // patch, patch, down_width // patch, patch)
    mean = blocks.mean(axis=(2, 4), keepdims=True)
    centered = blocks - mean
    std = np.sqrt((centered**2).mean(axis=(2, 4), keepdims=True))
    normed = np.where(std < DEGENERATE_STD, 0.0, centered / np.maximum(std, DEGENERATE_STD))
    return normed.reshape(images.shape[:-2] + (params.dim,))


def describe_window_set(
    families,
    stream: EventStream,
    grid: np.ndarray,
    params: DescriptorParams = DescriptorParams(),
) -> list[DescriptorSequence]:
    """One descriptor sequence per window family, sampled on a common grid.

    ``families`` are ``(label, count, span_us)`` triples, as
    :func:`evplace.windowing.window_families` resolves them.  For every
    grid time, each family's window holding the covered event nearest in
    time is selected (see :func:`evplace.windowing.align_to_time`); no
    other window is built.  Each distinct selected window is rasterized and
    described once.  All returned sequences carry exactly the grid's
    timestamps, so matrices built from them are index-aligned.

    A family's windows are described in blocks of up to ``_BLOCK_BYTES`` of
    images (at least one), one :func:`sad_descriptor` call per block, with
    the same bits as one call per window.  A block of one is the
    accumulated image itself, not a copy.
    """
    # One read-only copy, which every returned sequence shares.
    grid = _read_only(np.array(grid, dtype=np.int64, ndmin=1))
    if grid.size == 0:
        raise ConfigError("sample grid is empty")
    _check_increasing(grid, "sample grid")
    per_block = max(1, _BLOCK_BYTES // (stream.geometry.n_pixels * 8))
    sequences = []
    for label, count, span_us in families:
        w, start, end = align_to_time(stream, grid, count, span_us)
        _, first, row_window = np.unique(w, return_index=True, return_inverse=True)
        frames = np.empty((first.size, params.dim), dtype=np.float64)
        for b in range(0, first.size, per_block):
            images = [
                accumulate_image(stream, int(start[i]), int(end[i]), params)
                for i in first[b : b + per_block]
            ]
            stack = np.stack(images) if len(images) > 1 else images[0][None]
            frames[b : b + len(images)] = sad_descriptor(stack, params)
        sequences.append(DescriptorSequence(label, grid, _read_only(frames[row_window])))
    return sequences


def load_descriptors(source, name: str = "external") -> DescriptorSequence:
    """Load externally computed descriptors from CSV.

    Rows are ``t_seconds,v1,...,vD`` with no header; timestamps must be
    strictly increasing and every row must have the same dimension.  Times
    are shifted to microseconds exactly, then rounded half to even, so any
    time under 2**33 s that :func:`write_descriptors` wrote reads back as
    written.  The returned sequence is labelled ``external_<name>``.
    """
    times, values = csv_table(csv_rows(source), _exact_us, "s")
    return DescriptorSequence(f"external_{name}", times, values)


def _exact_us(field: str) -> int | float:
    """Seconds as whole microseconds, shifted exactly, then half to even; a
    non-finite time as it parses, for the table to refuse."""
    t_s = float(field)
    return round(decimal.Decimal(field).scaleb(6)) if math.isfinite(t_s) else t_s


def _float_rows(lead_format: str, lead: np.ndarray, values: np.ndarray) -> list[str]:
    """CSV lines ``lead,v1,...,vD``: one ``%``-format per row of Python values,
    ``%r`` of a float being its shortest round-tripping ``repr``."""
    row_format = lead_format + "," + ",".join(["%r"] * values.shape[1]) + "\n"
    return [row_format % (t, *row) for t, row in zip(lead.tolist(), values.tolist())]


def write_descriptors(seq: DescriptorSequence) -> bytes:
    """Serialize a descriptor sequence as ``t_seconds,v1,...,vD`` CSV."""
    return "".join(_float_rows("%r", seq.t_us / 1e6, seq.values)).encode("utf-8")
