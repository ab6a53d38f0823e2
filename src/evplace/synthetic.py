"""Seeded synthetic traverses with exact ground truth.

Real event recordings are gigabytes and their annotations hand-made; this
module stands in with a miniature world that preserves the structure the
toolkit cares about.  A world is a sequence of places, each a sparse map
of edge pixels firing at a couple hundred events per second.  A traverse
visits the places in order, drawing per-pixel Poisson event counts from
the place pattern plus uniform background noise.  Two traverses of the
same world under different seeds, rates, and dropout mimic revisiting a
route under changed conditions, and because dwell times are known, the
ground truth is exact by construction.

Everything is driven by numpy's seeded PCG64 generator, so a (seed,
params) pair reproduces a traverse bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .descriptors import AccumulationMode, DescriptorParams
from .errors import ConfigError, OrderingError
from .evaluation import GroundTruth
from .events import EventStream, SensorGeometry, _freeze, _read_only
from .pipeline import PipelineResult, run_place_recognition

# Firing rate painted onto edge pixels, events per second.
EDGE_RATE = 200.0
DEFAULT_SEGMENTS_PER_PLACE = 4


@dataclass(frozen=True)
class SyntheticWorld:
    """Per-place edge maps: intensity in events/second per pixel."""

    seed: int
    n_places: int
    geometry: SensorGeometry
    place_patterns: np.ndarray

    def __post_init__(self):
        (pat,) = _freeze(self, place_patterns=np.float64)
        expected = (self.n_places, self.geometry.height, self.geometry.width)
        if pat.shape != expected:
            raise ConfigError(f"pattern shape {pat.shape}, expected {expected}")
        if not np.all(pat >= 0):
            raise ConfigError("pattern intensities must be non-negative")
        # Equal patterns have equal bytes once -0.0 is folded into 0.0.
        first: dict[bytes, int] = {}
        for i, p in enumerate(pat):
            j = first.setdefault((p + 0.0).tobytes(), i)
            if j != i:
                raise ConfigError(f"places {j} and {i} have identical patterns")


@dataclass(frozen=True)
class TraverseParams:
    """Conditions of one pass along the route."""

    seed: int
    dwell_s: float = 1.0
    rate_scale: float = 1.0
    noise_rate: float = 0.0
    dropout: float = 0.0

    def __post_init__(self):
        # each test written so that NaN and infinity fail it
        if not 0 < self.dwell_s < np.inf:
            raise ConfigError(f"dwell_s must be positive and finite, got {self.dwell_s}")
        if not 0 < self.rate_scale < np.inf:
            raise ConfigError(f"rate_scale must be positive and finite, got {self.rate_scale}")
        if not 0 <= self.noise_rate < np.inf:
            raise ConfigError(f"noise_rate must be >= 0 and finite, got {self.noise_rate}")
        if not (0.0 <= self.dropout < 1.0):
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")


def _raster_segment(x0: int, y0: int, x1: int, y1: int) -> list[tuple[int, int]]:
    """Integer line rasterization (Bresenham)."""
    points = []
    dx, dy = abs(x1 - x0), -abs(y1 - y0)
    sx = 1 if x0 < x1 else -1
    sy = 1 if y0 < y1 else -1
    err = dx + dy
    x, y = x0, y0
    while True:
        points.append((x, y))
        if x == x1 and y == y1:
            return points
        e2 = 2 * err
        if e2 >= dy:
            err += dy
            x += sx
        if e2 <= dx:
            err += dx
            y += sy


def generate_world(
    seed: int,
    n_places: int,
    geometry: SensorGeometry,
    segments_per_place: int = DEFAULT_SEGMENTS_PER_PLACE,
) -> SyntheticWorld:
    """Deterministically draw one edge map per place.

    Each place gets ``segments_per_place`` random line segments rasterized
    at ``EDGE_RATE`` events/s per pixel.  A draw that collides with an
    earlier place's map is redrawn, so patterns always differ.
    """
    if n_places < 2:
        raise ConfigError(f"need at least 2 places, got {n_places}")
    if segments_per_place < 1:
        raise ConfigError("segments_per_place must be >= 1")
    rng = np.random.default_rng(seed)
    patterns = np.zeros((n_places, geometry.height, geometry.width), dtype=np.float64)
    seen: set[bytes] = set()
    for i in range(n_places):
        while True:
            pat = np.zeros((geometry.height, geometry.width), dtype=np.float64)
            for _ in range(segments_per_place):
                x0, x1 = rng.integers(0, geometry.width, size=2)
                y0, y1 = rng.integers(0, geometry.height, size=2)
                for x, y in _raster_segment(int(x0), int(y0), int(x1), int(y1)):
                    pat[y, x] = EDGE_RATE
            key = pat.tobytes()
            if key not in seen:
                break
        seen.add(key)
        patterns[i] = pat
    return SyntheticWorld(seed, n_places, geometry, _read_only(patterns))


def generate_traverse(
    world: SyntheticWorld, params: TraverseParams
) -> tuple[EventStream, GroundTruth]:
    """Simulate one pass along the route.

    The traverse dwells ``dwell_s`` at each place in order.  Every pixel
    fires as a Poisson process at ``rate_scale * pattern + noise_rate``
    events/s with uniform timestamps inside the dwell and random polarity;
    ``dropout`` then thins events independently.  The returned ground
    truth anchors one pair per place center, in the traverse's own
    timeline (pair two traverses with :func:`pair_ground_truth`).  Place
    ``i``'s times lie in ``[i * dwell_us, (i + 1) * dwell_us)``, so sorting
    each place stably and joining them once sorts the whole traverse.
    Each place is drawn straight into the ``t``, ``pixel`` and ``p``
    columns, valid by construction, and only the places' order is checked.
    """
    rng = np.random.default_rng(params.seed)
    geom = world.geometry
    dwell_us = int(round(params.dwell_s * 1e6))
    if dwell_us < 1:
        raise ConfigError("dwell_s is below one microsecond")
    centers = np.arange(world.n_places, dtype=np.float64) * dwell_us + dwell_us / 2.0
    truth = GroundTruth(centers, centers)  # refuses a world of no places
    columns, end = ([], [], []), 0  # t, pixel, p: one array per place each
    pixel_ids = np.arange(geom.n_pixels, dtype=np.int32)
    for i in range(world.n_places):
        lam = (params.rate_scale * world.place_patterns[i] + params.noise_rate) * params.dwell_s
        counts = rng.poisson(lam).ravel()
        n_i = int(counts.sum())
        # Draw the dropout mask even when dropout is zero, so traverses
        # that differ only in dropout share the underlying event set.
        t = i * dwell_us + np.floor(rng.random(n_i) * dwell_us).astype(np.int64)
        pol = (rng.integers(0, 2, size=n_i) * 2 - 1).astype(np.int8)
        kept = np.flatnonzero(rng.random(n_i) >= params.dropout)
        kept = kept[np.argsort(t[kept], kind="stable")]
        t = t[kept]
        if t.size and t[0] < end:
            raise OrderingError(f"place {i} starts before the places before it end")
        end = t[-1] if t.size else end
        for column, values in zip(columns, (t, np.repeat(pixel_ids, counts)[kept], pol[kept])):
            column.append(values)
    return EventStream._adopt(geom, *map(np.concatenate, columns)), truth


def pair_ground_truth(query_gt: GroundTruth, reference_gt: GroundTruth) -> GroundTruth:
    """Anchor correspondences between two traverses of the same world.

    Place ``i``'s center time in the query traverse maps to place ``i``'s
    center time in the reference traverse, which stays exact even when the
    two traverses dwell for different durations.
    """
    if len(query_gt) != len(reference_gt):
        raise ConfigError("traverses visited different place counts")
    return GroundTruth(query_gt.query_t_us, reference_gt.query_t_us)


def run_synthetic_experiment(
    world: SyntheticWorld,
    reference: TraverseParams,
    query: TraverseParams,
    descriptor: DescriptorParams = DescriptorParams(mode=AccumulationMode.COUNT),
    **options,
) -> PipelineResult:
    """Generate both traverses and run the full pipeline.

    ``options`` go unchanged to :func:`evplace.pipeline.run_place_recognition`.
    The one default that differs is the descriptor's: ``COUNT`` rather than
    the signed sum, because synthetic polarities are random coin flips, so
    signed images would average to zero and carry no structure.
    """
    ref_stream, ref_gt = generate_traverse(world, reference)
    q_stream, q_gt = generate_traverse(world, query)
    anchors = pair_ground_truth(q_gt, ref_gt)
    return run_place_recognition(q_stream, ref_stream, anchors, descriptor=descriptor, **options)
