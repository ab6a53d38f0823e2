"""Synthetic world generation, traverse statistics, and structural claims."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evplace import synthetic
from evplace.descriptors import AccumulationMode, DescriptorParams
from evplace.distance import Metric
from evplace.ensemble import EnsembleRule, RuleKind
from evplace.errors import ConfigError, OrderingError
from evplace.evaluation import GroundTruth
from evplace.events import EventStream, SensorGeometry
from evplace.pipeline import run_place_recognition
from evplace.synthetic import (
    EDGE_RATE,
    SyntheticWorld,
    TraverseParams,
    generate_traverse,
    generate_world,
    pair_ground_truth,
    run_synthetic_experiment,
)

GEOM = SensorGeometry(16, 12)


def _stream_key(stream):
    return (
        stream.t.tobytes(),
        stream.x.tobytes(),
        stream.y.tobytes(),
        stream.p.tobytes(),
    )


# ---------------------------------------------------------------------------
# worlds


def test_world_same_seed_is_identical():
    a = generate_world(7, 4, GEOM)
    b = generate_world(7, 4, GEOM)
    np.testing.assert_array_equal(a.place_patterns, b.place_patterns)


def test_world_different_seeds_differ():
    a = generate_world(7, 4, GEOM)
    b = generate_world(8, 4, GEOM)
    assert not np.array_equal(a.place_patterns, b.place_patterns)


def test_world_minimal_two_places():
    w = generate_world(3, 2, SensorGeometry(8, 8))
    assert w.place_patterns.shape == (2, 8, 8)
    assert not np.array_equal(w.place_patterns[0], w.place_patterns[1])


def _pairwise_generate_world(seed, n_places, geometry, segments_per_place):
    """The redraw loop with a pairwise comparison against every earlier place."""
    rng = np.random.default_rng(seed)
    patterns = np.zeros((n_places, geometry.height, geometry.width))
    for i in range(n_places):
        while True:
            pat = np.zeros((geometry.height, geometry.width))
            for _ in range(segments_per_place):
                x0, x1 = rng.integers(0, geometry.width, size=2)
                y0, y1 = rng.integers(0, geometry.height, size=2)
                for x, y in synthetic._raster_segment(int(x0), int(y0), int(x1), int(y1)):
                    pat[y, x] = EDGE_RATE
            if not any(np.array_equal(pat, patterns[j]) for j in range(i)):
                break
        patterns[i] = pat
    return patterns


@pytest.mark.parametrize("seed", range(6))
def test_world_redraws_collisions_like_the_pairwise_loop(seed):
    # A 3x2 sensor with one segment per place has few distinct patterns,
    # so twelve places force many redraws.
    geom = SensorGeometry(3, 2)
    w = generate_world(seed, 12, geom, segments_per_place=1)
    expect = _pairwise_generate_world(seed, 12, geom, 1)
    assert w.place_patterns.tobytes() == expect.tobytes()


def test_world_rejects_identical_places():
    pat = np.zeros((4, 2, 2))
    pat[:, 0, 0] = [1.0, 2.0, 3.0, 2.0]
    with pytest.raises(ConfigError, match="places 1 and 3 have identical patterns"):
        SyntheticWorld(0, 4, SensorGeometry(2, 2), pat)
    # -0.0 equals 0.0, so these two places are identical too.
    pat = np.zeros((2, 2, 2))
    pat[1, 1, 1] = -0.0
    with pytest.raises(ConfigError, match="places 0 and 1 have identical patterns"):
        SyntheticWorld(0, 2, SensorGeometry(2, 2), pat)


def test_world_rejects_nan_intensities():
    pat = np.zeros((2, 2, 2))
    pat[0, 0, 0] = np.nan
    with pytest.raises(ConfigError, match="non-negative"):
        SyntheticWorld(0, 2, SensorGeometry(2, 2), pat)


def test_world_patterns_are_edge_rate_or_zero():
    w = generate_world(11, 3, GEOM)
    values = np.unique(w.place_patterns)
    assert set(values.tolist()) <= {0.0, EDGE_RATE}
    assert EDGE_RATE in values  # every place rasterizes at least one segment


def test_world_rejects_single_place():
    with pytest.raises(ConfigError):
        generate_world(1, 1, GEOM)


def test_world_type_rejects_duplicate_patterns():
    pat = np.zeros((2, 12, 16))
    pat[:, 0, 0] = EDGE_RATE
    with pytest.raises(ConfigError):
        SyntheticWorld(0, 2, GEOM, pat)


def test_world_type_rejects_negative_intensity():
    pat = np.zeros((2, 12, 16))
    pat[0, 0, 0] = -1.0
    pat[1, 0, 0] = 1.0
    with pytest.raises(ConfigError):
        SyntheticWorld(0, 2, GEOM, pat)


# ---------------------------------------------------------------------------
# traverses


def test_traverse_same_seed_is_identical():
    w = generate_world(5, 3, GEOM)
    p = TraverseParams(seed=42, noise_rate=5.0)
    s1, g1 = generate_traverse(w, p)
    s2, g2 = generate_traverse(w, p)
    assert _stream_key(s1) == _stream_key(s2)
    np.testing.assert_array_equal(g1.query_t_us, g2.query_t_us)


def test_traverse_zero_rates_is_empty():
    w = generate_world(5, 3, GEOM)
    pat = np.zeros_like(w.place_patterns)
    pat[0, 0, 0] = 1e-12
    pat[1, 0, 1] = 1e-12
    pat[2, 0, 2] = 1e-12  # effectively zero but pairwise distinct
    quiet = SyntheticWorld(5, 3, GEOM, pat)
    stream, gt = generate_traverse(quiet, TraverseParams(seed=1))
    assert len(stream) == 0
    assert len(gt) == 3


def _whole_traverse(world, params):
    """The traverse drawn place by place, then sorted once as a whole.

    The same draws as :func:`generate_traverse`; the places are
    concatenated, stably sorted by time over the whole traverse, and split
    into ``x`` and ``y`` for the stream's constructor.
    """
    rng = np.random.default_rng(params.seed)
    geom = world.geometry
    dwell_us = int(round(params.dwell_s * 1e6))
    ts, pixs, pols = [], [], []
    pixel_ids = np.arange(geom.n_pixels, dtype=np.int64)
    for i in range(world.n_places):
        lam = (params.rate_scale * world.place_patterns[i] + params.noise_rate) * params.dwell_s
        counts = rng.poisson(lam).ravel()
        n_i = int(counts.sum())
        t = i * dwell_us + np.floor(rng.random(n_i) * dwell_us).astype(np.int64)
        pol = (rng.integers(0, 2, size=n_i) * 2 - 1).astype(np.int8)
        keep = rng.random(n_i) >= params.dropout
        ts.append(t[keep])
        pixs.append(np.repeat(pixel_ids, counts)[keep])
        pols.append(pol[keep])
    t, pix, pol = np.concatenate(ts), np.concatenate(pixs), np.concatenate(pols)
    order = np.argsort(t, kind="stable")
    stream = EventStream(
        geom, t[order], pix[order] % geom.width, pix[order] // geom.width, pol[order]
    )
    centers = np.arange(world.n_places, dtype=np.float64) * dwell_us + dwell_us / 2.0
    return stream, GroundTruth(centers, centers.copy())


@settings(max_examples=100, deadline=None)
@given(
    world_seed=st.integers(0, 2**16),
    n_places=st.integers(2, 6),
    width=st.integers(4, 40),
    height=st.integers(3, 30),
    seed=st.integers(0, 2**16),
    dwell_s=st.floats(0.01, 0.3),
    rate_scale=st.floats(0.1, 3.0),
    noise_rate=st.one_of(st.just(0.0), st.floats(0.5, 20.0)),
    dropout=st.sampled_from([0.0, 0.4]),
)
def test_traverse_sorted_place_by_place_equals_the_whole_traverse_sort(
    world_seed, n_places, width, height, seed, dwell_s, rate_scale, noise_rate, dropout
):
    world = generate_world(world_seed, n_places, SensorGeometry(width, height))
    params = TraverseParams(
        seed=seed, dwell_s=dwell_s, rate_scale=rate_scale, noise_rate=noise_rate, dropout=dropout
    )
    stream, gt = generate_traverse(world, params)
    expect, expect_gt = _whole_traverse(world, params)
    for name in ("t", "pixel", "p"):
        got, want = getattr(stream, name), getattr(expect, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert not (stream.t.flags.writeable or stream.pixel.flags.writeable or stream.p.flags.writeable)
    assert gt.query_t_us.tobytes() == expect_gt.query_t_us.tobytes()
    assert gt.ref_t_us.tobytes() == expect_gt.ref_t_us.tobytes()


def test_traverse_refuses_a_place_that_starts_before_the_last_ended(monkeypatch):
    # Timestamps drawn at 2.5 dwells put place 0 after place 1, drawn at 0.
    draws = iter([2.5, 0.0, 0.0, 0.0])  # place 0's times and dropout, then place 1's
    real_rng = np.random.default_rng

    class ScriptedTimes:
        def __init__(self, seed):
            self._rng = real_rng(seed)
            self.poisson, self.integers = self._rng.poisson, self._rng.integers

        def random(self, n):
            return np.full(n, next(draws))

    world = generate_world(5, 2, GEOM)
    monkeypatch.setattr(synthetic.np.random, "default_rng", ScriptedTimes)
    with pytest.raises(OrderingError, match="place 1 starts before"):
        generate_traverse(world, TraverseParams(seed=1))


def test_traverse_ground_truth_anchors_place_centers():
    w = generate_world(5, 4, GEOM)
    _, gt = generate_traverse(w, TraverseParams(seed=1, dwell_s=2.0))
    np.testing.assert_array_equal(
        gt.query_t_us, [1_000_000.0, 3_000_000.0, 5_000_000.0, 7_000_000.0]
    )
    np.testing.assert_array_equal(gt.query_t_us, gt.ref_t_us)


def test_traverse_event_count_within_poisson_bounds():
    w = generate_world(13, 3, GEOM)
    params = TraverseParams(seed=99, dwell_s=1.5, rate_scale=0.8, noise_rate=2.0)
    stream, _ = generate_traverse(w, params)
    lam = (params.rate_scale * w.place_patterns + params.noise_rate).sum() * params.dwell_s
    assert abs(len(stream) - lam) <= 3.0 * np.sqrt(lam)


def test_traverse_event_count_scales_with_dropout():
    w = generate_world(13, 3, GEOM)
    base = TraverseParams(seed=99, noise_rate=20.0)
    half = TraverseParams(seed=99, noise_rate=20.0, dropout=0.5)
    s_base, _ = generate_traverse(w, base)
    s_half, _ = generate_traverse(w, half)
    assert len(s_base) >= 10_000
    ratio = len(s_half) / len(s_base)
    assert 0.45 <= ratio <= 0.55  # binomial thinning, ±10%


def test_dropout_yields_subsequence_of_undropped_stream():
    w = generate_world(17, 3, GEOM)
    base = TraverseParams(seed=7, noise_rate=10.0)
    thinned = TraverseParams(seed=7, noise_rate=10.0, dropout=0.3)
    s_full, _ = generate_traverse(w, base)
    s_thin, _ = generate_traverse(w, thinned)
    # same seed draws the same events; dropout only masks some out, so the
    # thinned (t, x, y, p) rows must all appear in the full stream in order
    full = list(zip(s_full.t, s_full.x, s_full.y, s_full.p))
    thin = list(zip(s_thin.t, s_thin.x, s_thin.y, s_thin.p))
    it = iter(full)
    assert all(row in it for row in thin)


def test_traverse_respects_stream_invariants():
    w = generate_world(19, 4, GEOM)
    stream, _ = generate_traverse(w, TraverseParams(seed=3, noise_rate=1.0))
    assert np.all(np.diff(stream.t) >= 0)
    assert stream.x.min() >= 0 and stream.x.max() < GEOM.width
    assert stream.y.min() >= 0 and stream.y.max() < GEOM.height
    assert set(np.unique(stream.p).tolist()) <= {-1, 1}
    # events stay inside their place's dwell slot
    slot = stream.t // 1_000_000
    assert slot.min() >= 0 and slot.max() < 4


def test_pair_ground_truth_uses_each_timeline():
    w = generate_world(5, 3, GEOM)
    _, gt_q = generate_traverse(w, TraverseParams(seed=1, dwell_s=1.0))
    _, gt_r = generate_traverse(w, TraverseParams(seed=2, dwell_s=2.0))
    paired = pair_ground_truth(gt_q, gt_r)
    np.testing.assert_array_equal(paired.query_t_us, [500_000, 1_500_000, 2_500_000])
    np.testing.assert_array_equal(paired.ref_t_us, [1_000_000, 3_000_000, 5_000_000])


def test_pair_ground_truth_length_mismatch():
    w3 = generate_world(5, 3, GEOM)
    w4 = generate_world(5, 4, GEOM)
    _, g3 = generate_traverse(w3, TraverseParams(seed=1))
    _, g4 = generate_traverse(w4, TraverseParams(seed=1))
    with pytest.raises(ConfigError):
        pair_ground_truth(g3, g4)


def test_traverse_params_validation():
    for bad in (
        dict(dwell_s=0.0),
        dict(rate_scale=0.0),
        dict(noise_rate=-1.0),
        dict(dropout=1.0),
        dict(dropout=-0.1),
    ):
        with pytest.raises(ConfigError):
            TraverseParams(seed=0, **bad)


# ---------------------------------------------------------------------------
# end-to-end experiments


def _experiment(**kwargs):
    w = generate_world(23, 6, GEOM)
    defaults = dict(
        counts=[0.3, 0.6],
        spans_us=[400_000, 700_000],
        descriptor=DescriptorParams(
            mode=AccumulationMode.COUNT, down_width=8, down_height=6, patch=2
        ),
        grid_dt_us=500_000,
        loc_threshold_us=900_000,
    )
    defaults.update(kwargs)
    return w, defaults


def test_identical_traverses_score_one():
    w, kw = _experiment()
    p = TraverseParams(seed=31, noise_rate=3.0)
    result = run_synthetic_experiment(w, p, p, **kw)
    assert result.fused_eval.precision == 1.0
    assert result.approximate_eval.precision == 1.0
    assert all(p == 1.0 for p in result.member_precisions)


def test_single_family_ensemble_is_that_member():
    # empty span list means no span families; None would mean the defaults
    w, kw = _experiment(counts=[0.5], spans_us=[], approximate_fraction=None)
    ref = TraverseParams(seed=31, noise_rate=3.0)
    qry = TraverseParams(seed=37, noise_rate=4.0, dropout=0.1)
    result = run_synthetic_experiment(w, ref, qry, **kw)
    assert len(result.members) == 1
    assert np.array_equal(result.fused.values, result.members[0].values)
    assert result.fused_eval.precision == result.member_evals[0].precision
    assert result.approximate is None


def test_noisy_recovery_beats_chance():
    w, kw = _experiment()
    ref = TraverseParams(seed=41, noise_rate=4.0)
    qry = TraverseParams(seed=43, rate_scale=0.8, noise_rate=8.0, dropout=0.2)
    result = run_synthetic_experiment(w, ref, qry, **kw)
    assert result.fused_eval.precision > 1.0 / 6  # chance = 1/n_places


def test_experiment_forwards_options_bit_for_bit():
    # The descriptor is left at its default: COUNT at the default frame
    # size, which needs a sensor of at least 32x24.
    w = generate_world(29, 4, SensorGeometry(32, 24))
    ref = TraverseParams(seed=31, noise_rate=3.0)
    qry = TraverseParams(seed=37, noise_rate=4.0, dropout=0.1)
    options = dict(
        counts=[0.3, 0.6],
        spans_us=[400_000],
        metric=Metric.SAD,
        rule=EnsembleRule(RuleKind.MEDIAN),
        grid_dt_us=300_000,
        loc_threshold_us=700_000,
        approximate_fraction=None,
    )
    got = run_synthetic_experiment(w, ref, qry, **options)
    r_stream, r_gt = generate_traverse(w, ref)
    q_stream, q_gt = generate_traverse(w, qry)
    expect = run_place_recognition(
        q_stream,
        r_stream,
        pair_ground_truth(q_gt, r_gt),
        descriptor=DescriptorParams(mode=AccumulationMode.COUNT),
        **options,
    )
    assert got.approximate is None and expect.approximate is None
    assert len(got.members) == len(expect.members) == 3
    for a, b in zip([*got.members, got.fused], [*expect.members, expect.fused]):
        assert a.member_label == b.member_label
        assert a.values.tobytes() == b.values.tobytes()
        assert a.query_t_us.tobytes() == b.query_t_us.tobytes()
        assert a.ref_t_us.tobytes() == b.ref_t_us.tobytes()
    assert got.fused_eval == expect.fused_eval
    with pytest.raises(TypeError):
        run_synthetic_experiment(w, ref, qry, grid_dt=300_000)
