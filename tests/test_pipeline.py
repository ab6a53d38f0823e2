"""Composition of windowing, descriptors, distance, fusion, and scoring."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from evplace import pipeline, windowing
from evplace.descriptors import (
    AccumulationMode,
    DescriptorParams,
    DescriptorSequence,
    accumulate_image,
    sad_descriptor,
)
from evplace.ensemble import EnsembleRule, RuleKind
from evplace.errors import ConfigError
from evplace.evaluation import GroundTruth, precision_at_full_recall
from evplace.events import SensorGeometry
from evplace.pipeline import describe_traverse, run_from_sequences, run_place_recognition
from evplace.synthetic import TraverseParams, generate_traverse, generate_world
from evplace.windowing import build_window_set, normalized_count, sample_grid, split_fixed_count

GEOM = SensorGeometry(16, 12)
DESCRIPTOR = DescriptorParams(
    mode=AccumulationMode.COUNT, down_width=8, down_height=6, patch=2
)


def _seq(values, t_us, name="s"):
    return DescriptorSequence(
        f"external_{name}",
        np.asarray(t_us, dtype=np.int64),
        np.asarray(values, dtype=np.float64),
    )


def _identity_anchors(t_us):
    t = np.asarray(t_us, dtype=np.float64)
    return GroundTruth(t, t)


def _synthetic_pair(ref_seed=51, qry_seed=53, n_places=5):
    world = generate_world(47, n_places, GEOM)
    ref, ref_gt = generate_traverse(world, TraverseParams(seed=ref_seed, noise_rate=4.0))
    qry, qry_gt = generate_traverse(world, TraverseParams(seed=qry_seed, noise_rate=4.0))
    anchors = GroundTruth(qry_gt.query_t_us, ref_gt.query_t_us)
    return qry, ref, anchors


def test_self_comparison_is_perfect():
    qry, _, _ = _synthetic_pair()
    anchors = _identity_anchors([500_000.0, 4_500_000.0])
    result = run_place_recognition(
        qry, qry, anchors,
        counts=[0.3, 0.6], spans_us=[400_000],
        descriptor=DESCRIPTOR, grid_dt_us=500_000, loc_threshold_us=100_000,
    )
    assert result.fused_eval.precision == 1.0
    assert result.member_precisions == (1.0, 1.0, 1.0)
    assert result.approximate_eval.precision == 1.0


def test_member_count_and_labels_follow_window_grids():
    qry, ref, anchors = _synthetic_pair()
    result = run_place_recognition(
        qry, ref, anchors,
        counts=[0.3], spans_us=[400_000, 700_000],
        descriptor=DESCRIPTOR, grid_dt_us=500_000, loc_threshold_us=900_000,
    )
    labels = [m.member_label for m in result.members]
    # both sides share a family, so the matrix inherits that family's label
    assert labels == ["count_58", "span_400000us", "span_700000us"]
    assert result.fused.member_label == "mean_of_3"
    assert result.approximate.member_label == "approx_mean_of_3"


def test_two_families_of_one_label_are_refused():
    qry, ref, anchors = _synthetic_pair()
    # 0.3 of the 16 x 12 pixels is 58 events: two members would be count_58
    with pytest.raises(ConfigError, match="share the label count_58"):
        run_place_recognition(
            qry, ref, anchors, counts=[0.3, 58], spans_us=[],
            descriptor=DESCRIPTOR, grid_dt_us=500_000,
        )


def _brute_force_rows(stream, family, grid):
    """The descriptor of the window holding the covered event nearest each grid time."""
    covered = stream.t[: int(family.end_idx[-1])]
    rows = []
    for t_star in grid.tolist():
        # Nearest in time, ties to the earlier time, then nearest in stream
        # order to the sample's place, after every earlier event.
        slot = int(np.count_nonzero(covered < t_star))
        i = np.arange(covered.size)
        order = np.where(i < slot, slot - i, i - slot + 1)
        nearest = int(np.lexsort((order, covered, np.abs(covered - t_star)))[0])
        (w,) = np.flatnonzero((family.start_idx <= nearest) & (nearest < family.end_idx))
        image = accumulate_image(
            stream, int(family.start_idx[w]), int(family.end_idx[w]), DESCRIPTOR
        )
        rows.append(sad_descriptor(image, DESCRIPTOR))
    return np.array(rows)


@pytest.mark.parametrize("approximate_fraction", [None, 0.5])
def test_describe_builds_no_window_arrays(approximate_fraction):
    qry, _, _ = _synthetic_pair()
    counts, spans_us = [0.3, 0.6], [400_000]
    families = list(build_window_set(qry, counts, spans_us))
    families.append(split_fixed_count(qry, normalized_count(0.5, GEOM)))
    grid = sample_grid(qry, 500_000)
    refuse = dict(side_effect=AssertionError("built a family's windows"))
    with mock.patch.object(windowing, "split_fixed_count", **refuse), \
            mock.patch.object(windowing, "split_fixed_time", **refuse), \
            mock.patch.object(pipeline, "split_fixed_count", **refuse):
        seqs, approx = describe_traverse(
            qry, counts, spans_us, DESCRIPTOR, 500_000, approximate_fraction
        )
    if approximate_fraction is None:
        assert approx is None
        families.pop()
    else:
        seqs.append(approx)
    assert [seq.label for seq in seqs] == [f.label for f in families]
    for family, seq in zip(families, seqs):
        assert np.array_equal(seq.t_us, grid)
        assert seq.values.tobytes() == _brute_force_rows(qry, family, grid).tobytes()


def test_grid_points_outside_anchor_span_are_dropped():
    qry, ref, anchors = _synthetic_pair()
    # anchors cover [0.5 s, 4.5 s]; the 0 s grid point has no bracketing pair
    result = run_place_recognition(
        qry, ref, anchors,
        counts=[0.3], spans_us=[],
        descriptor=DESCRIPTOR, grid_dt_us=500_000, loc_threshold_us=900_000,
    )
    assert result.dropped_grid_points > 0
    assert result.fused.values.shape[0] == len(result.ground_truth)
    assert result.fused_eval.total_queries == len(result.ground_truth)


def test_majority_vote_rule_runs_end_to_end():
    qry, ref, anchors = _synthetic_pair()
    result = run_place_recognition(
        qry, ref, anchors,
        counts=[0.2, 0.4, 0.6], spans_us=[],
        descriptor=DESCRIPTOR, grid_dt_us=500_000, loc_threshold_us=900_000,
        rule=EnsembleRule(RuleKind.MAJORITY_VOTE),
    )
    # distances: 0.0 at each row's voted column, 1.0 elsewhere
    assert set(np.unique(result.fused.values).tolist()) <= {0.0, 1.0}
    assert np.all((result.fused.values == 0.0).sum(axis=1) == 1)
    assert result.fused_eval == precision_at_full_recall(
        result.fused, result.ground_truth, 900_000
    )


def test_geometry_mismatch_rejected():
    qry, _, anchors = _synthetic_pair()
    other = generate_traverse(
        generate_world(47, 5, SensorGeometry(8, 8)), TraverseParams(seed=1)
    )[0]
    with pytest.raises(ConfigError):
        run_place_recognition(qry, other, anchors, counts=[0.3], spans_us=[])


def test_sequences_must_share_query_grid():
    t_a = [0, 1_000_000]
    t_b = [0, 2_000_000]
    rng = np.random.default_rng(59)
    q1 = _seq(rng.standard_normal((2, 4)), t_a, "q1")
    q2 = _seq(rng.standard_normal((2, 4)), t_b, "q2")
    r = _seq(rng.standard_normal((2, 4)), t_a, "r")
    anchors = _identity_anchors(t_a)
    with pytest.raises(ConfigError):
        run_from_sequences([q1, q2], [r, r], anchors)


def test_sequences_side_counts_must_match():
    rng = np.random.default_rng(61)
    t = [0, 1_000_000]
    q = _seq(rng.standard_normal((2, 4)), t, "q")
    r = _seq(rng.standard_normal((2, 4)), t, "r")
    with pytest.raises(ConfigError):
        run_from_sequences([q], [r, r], _identity_anchors(t))


def test_approximate_query_must_be_grid_aligned():
    rng = np.random.default_rng(67)
    t = [0, 1_000_000]
    q = _seq(rng.standard_normal((2, 4)), t, "q")
    r = _seq(rng.standard_normal((2, 4)), t, "r")
    stray = _seq(rng.standard_normal((2, 4)), [0, 3_000_000], "stray")
    with pytest.raises(ConfigError):
        run_from_sequences([q], [r], _identity_anchors(t), approximate_query=stray)


@pytest.mark.parametrize("stray_t", [[0, 3_000_000], [0, 1_000_000, 2_000_000], [1_000_000]])
def test_an_approximate_query_off_the_query_grid_fails_the_members_grid_check(stray_t):
    rng = np.random.default_rng(71)
    t = [0, 1_000_000]
    q = _seq(rng.standard_normal((2, 4)), t, "q")
    r = _seq(rng.standard_normal((2, 4)), t, "r")
    stray = _seq(rng.standard_normal((len(stray_t), 4)), stray_t, "stray")
    with pytest.raises(ConfigError, match="query sequence external_stray is not grid-aligned"):
        run_from_sequences([q, q], [r, r], _identity_anchors(t), approximate_query=stray)


def test_run_from_sequences_external_descriptors():
    # place-recognition on hand-made descriptors: two places, clean match
    t = [0, 1_000_000, 2_000_000]
    place_a = [1.0, 0.0, 0.0, 0.0]
    place_b = [0.0, 1.0, 0.0, 0.0]
    place_c = [0.0, 0.0, 1.0, 0.0]
    q = _seq([place_a, place_b, place_c], t, "q")
    r = _seq([place_a, place_b, place_c], t, "r")
    result = run_from_sequences([q], [r], _identity_anchors(t), loc_threshold_us=1)
    assert result.fused_eval.precision == 1.0
    assert result.approximate is None
    assert result.dropped_grid_points == 0


@pytest.mark.parametrize(
    "counts, spans_us, rule, message",
    [
        ([0.3], [400_000, 700_000], EnsembleRule(RuleKind.WEIGHTED, weights=(1.0, 1.0)),
         "2 weights for 3 members"),
        # the defaults: four count and five span families
        (None, None, EnsembleRule(RuleKind.TRIMMED_MEAN, trim=5), "needs more than 10 members"),
        ([0.3], [], EnsembleRule(RuleKind.MAJORITY_VOTE), "at least two members"),
    ],
)
def test_misfit_rule_is_refused_before_either_stream_is_described(
    counts, spans_us, rule, message
):
    qry, ref, anchors = _synthetic_pair()
    with mock.patch.object(
        pipeline, "describe_window_set", side_effect=AssertionError("described a stream")
    ):
        with pytest.raises(ConfigError, match=message):
            run_place_recognition(
                qry, ref, anchors,
                counts=counts, spans_us=spans_us, rule=rule,
                descriptor=DESCRIPTOR, grid_dt_us=500_000,
            )


def test_run_place_recognition_is_describe_traverse_per_side_then_run_from_sequences():
    qry, ref, anchors = _synthetic_pair()
    options = dict(counts=[0.3, 0.6], spans_us=[400_000], descriptor=DESCRIPTOR,
                   grid_dt_us=500_000)
    q_seqs, approx = describe_traverse(qry, approximate_fraction=0.5, **options)
    r_seqs, none = describe_traverse(ref, **options)
    assert none is None and np.array_equal(approx.t_us, q_seqs[0].t_us)
    expected = run_from_sequences(
        q_seqs, r_seqs, anchors, loc_threshold_us=100_000, approximate_query=approx
    )
    got = run_place_recognition(
        qry, ref, anchors, loc_threshold_us=100_000, approximate_fraction=0.5, **options
    )
    for a, b in zip((*got.members, got.fused, got.approximate),
                    (*expected.members, expected.fused, expected.approximate)):
        assert a.member_label == b.member_label and a.values.tobytes() == b.values.tobytes()
    assert got.fused_eval == expected.fused_eval


def test_records_share_the_arrays_the_package_built():
    """Each producer freezes what it builds, and the record wrapping it keeps it."""
    qry, ref, _ = _synthetic_pair()
    anchors = _identity_anchors([0.0, 10_000_000.0])  # covers the whole grid
    q_seqs, approx_q = describe_traverse(qry, [0.3], [400_000], DESCRIPTOR, 500_000, 0.5)
    r_seqs, _ = describe_traverse(ref, [0.3], [400_000], DESCRIPTOR, 500_000)
    # one grid per describe call, shared by its sequences
    assert q_seqs[0].t_us is q_seqs[1].t_us
    result = run_from_sequences(q_seqs, r_seqs, anchors, approximate_query=approx_q)
    assert result.dropped_grid_points == 0
    for m, q, r in zip(result.members, q_seqs, r_seqs):
        assert m.query_t_us is q.t_us and m.ref_t_us is r.t_us
    assert result.fused.query_t_us is q_seqs[0].t_us and result.fused.ref_t_us is r_seqs[0].t_us
    assert result.approximate.query_t_us is approx_q.t_us
    # the interpolated truth is wrapped as np.interp returned it
    assert result.ground_truth.query_t_us.flags.owndata
    # anchors that leave grid points uncovered: one restricted grid for all
    inner = _identity_anchors([1_000_000.0, 3_000_000.0])
    result = run_from_sequences(q_seqs, r_seqs, inner, approximate_query=approx_q)
    assert result.dropped_grid_points > 0
    grid = result.fused.query_t_us
    assert grid.tolist() == [t for t in q_seqs[0].t_us.tolist() if 1_000_000 <= t <= 3_000_000]
    assert all(m.query_t_us is grid for m in result.members)
    assert result.approximate.query_t_us is grid
