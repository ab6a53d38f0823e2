"""Turning event windows into fixed-length place descriptors.

The built-in descriptor rasterizes a window's events into a plain
``(height, width)`` float array, area-averages it down to a small frame,
normalizes each patch to zero mean and unit variance, and flattens the
result into a 1-D vector.  Patch normalization makes the vector invariant
to global changes in event rate, which is what varies most between visits
to the same place.

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
        if self.clip <= 0:
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
    """Downsample by exact box averaging (handles non-integer ratios).

    ``pixels`` must be finite: the row step below skips zero-weight rows,
    which is exact only because ``0 * x`` is a zero for finite ``x``.
    """
    in_h, in_w = pixels.shape
    if (in_h, in_w) == (out_h, out_w):
        return pixels.copy()
    wc = _area_weights(in_w, out_w)
    if in_w == 1:
        # One column makes the rows the contiguous axis, which numpy sums
        # pairwise, zero-weight rows included; the product is out_h x in_h.
        tmp = (_area_weights(in_h, out_h)[:, :, None] * pixels).sum(axis=1)
    else:
        # Each output row sums only its band of input rows, in ascending
        # order, as one gather (0.8 MB at 346x260 to 32x24, freed before
        # the column products).  numpy adds the terms of this axis one
        # after another, starting from +0.0, so a partial sum is never -0.0
        # and the skipped zero-weight terms would not have changed it.
        idx, wband = _area_band(in_h, out_h)
        tmp = (pixels[idx] * wband[:, :, None]).sum(axis=1)
    # Columns: a broadcast-and-sum over the full weights, which keeps their
    # zero terms: dropping them would change the values.  Each output row
    # is its own sum, so taking _RESIZE_BLOCK_ROWS of them at a time gives
    # the same bits with a third of the product (0.7 MB, not 2.1 MB, at
    # 346x260 to 32x24).
    wct = wc.T[None, :, :]
    out = np.empty((out_h, out_w))
    for r in range(0, out_h, _RESIZE_BLOCK_ROWS):
        rows = slice(r, r + _RESIZE_BLOCK_ROWS)
        out[rows] = (tmp[rows, :, None] * wct).sum(axis=1)
    return out


def sad_descriptor(
    image: np.ndarray, params: DescriptorParams = DescriptorParams()
) -> np.ndarray:
    """Compute the patch-normalized frame descriptor of a 2-D event image.

    The image is area-averaged down to ``params.down_height x
    params.down_width``, each non-overlapping ``params.patch x params.patch``
    tile is shifted to zero mean and scaled to unit (population) standard
    deviation, and the frame is flattened row-major.  Tiles with nearly
    zero variance come out as zeros.  The vector length is ``params.dim``.
    """
    down_width, down_height, patch = params.down_width, params.down_height, params.patch
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ConfigError(f"image must be 2-D, got shape {image.shape}")
    if not np.isfinite(image).all():
        raise ConfigError("image contains non-finite values")
    in_h, in_w = image.shape
    if down_width > in_w or down_height > in_h:
        raise ConfigError(
            f"target {down_height}x{down_width} exceeds image {in_h}x{in_w}"
        )
    small = _area_resize(image, down_height, down_width)
    blocks = small.reshape(down_height // patch, patch, down_width // patch, patch)
    mean = blocks.mean(axis=(1, 3), keepdims=True)
    centered = blocks - mean
    std = np.sqrt((centered**2).mean(axis=(1, 3), keepdims=True))
    normed = np.where(std < DEGENERATE_STD, 0.0, centered / np.maximum(std, DEGENERATE_STD))
    return normed.reshape(down_height, down_width).ravel()


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
    """
    # One read-only copy, which every returned sequence shares.
    grid = _read_only(np.array(grid, dtype=np.int64, ndmin=1))
    if grid.size == 0:
        raise ConfigError("sample grid is empty")
    _check_increasing(grid, "sample grid")
    sequences = []
    for label, count, span_us in families:
        w, start, end = align_to_time(stream, grid, count, span_us)
        _, first, row_window = np.unique(w, return_index=True, return_inverse=True)
        frames = np.empty((first.size, params.dim), dtype=np.float64)
        for k, i in enumerate(first):
            image = accumulate_image(stream, int(start[i]), int(end[i]), params)
            frames[k] = sad_descriptor(image, params)
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
