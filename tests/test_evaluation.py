"""Ground-truth interpolation, retrieval scoring, and PR sweeps."""

from __future__ import annotations

import io
import logging

import numpy as np
import pytest

from evplace.distance import DistanceMatrix
from evplace.ensemble import EnsembleRule, RuleKind, combine
from evplace.errors import (
    ConfigError,
    MissingGroundTruthError,
    OrderingError,
    ParseError,
)
from evplace.evaluation import (
    EVAL_CSV_HEADER,
    EvalResult,
    GroundTruth,
    default_similarity_sweep,
    interpolate_ground_truth,
    is_true_positive,
    precision_at_full_recall,
    precision_recall_curve,
    precision_vs_loc_threshold,
    read_ground_truth_csv,
    write_eval_results_csv,
    write_ground_truth_csv,
)

S = 1_000_000  # one second in microseconds


def _gt(pairs):
    q, r = zip(*pairs)
    return GroundTruth(np.array(q, dtype=np.float64), np.array(r, dtype=np.float64))


def _matrix(values, q_t, r_t, label="m"):
    return DistanceMatrix(
        np.asarray(values, dtype=np.float64),
        np.asarray(q_t, dtype=np.int64),
        np.asarray(r_t, dtype=np.int64),
        label,
    )


def _identity_gt(t_us):
    t = np.asarray(t_us, dtype=np.float64)
    return GroundTruth(t, t)


# ---------------------------------------------------------------------------
# ground truth


def test_ground_truth_requires_increasing_query_times():
    with pytest.raises(OrderingError):
        _gt([(0, 0), (0, 5)])


def test_ground_truth_rejects_mismatched_lengths():
    with pytest.raises(ConfigError):
        GroundTruth(np.array([0.0, 1.0]), np.array([0.0]))


def test_interpolation_midpoint():
    dense, _ = interpolate_ground_truth(_gt([(0, 0), (10, 20)]), [5.0])
    assert dense.ref_t_us[0] == 10.0


def test_interpolation_at_anchor_is_exact():
    anchors = _gt([(0, 3), (10, 20), (20, 25)])
    dense, _ = interpolate_ground_truth(anchors, [0.0, 10.0, 20.0])
    np.testing.assert_array_equal(dense.ref_t_us, [3.0, 20.0, 25.0])


def test_interpolation_piecewise():
    dense, _ = interpolate_ground_truth(_gt([(0, 0), (10, 20), (20, 25)]), [15.0])
    assert dense.ref_t_us[0] == 22.5


def test_interpolation_drops_uncovered_grid_points(caplog):
    anchors = _gt([(10, 10), (20, 20)])
    with caplog.at_level(logging.INFO, logger="evplace.evaluation"):
        dense, keep = interpolate_ground_truth(anchors, [0.0, 10.0, 15.0, 25.0])
    assert len(dense) == 2  # 0 and 25 fall outside the anchor span
    np.testing.assert_array_equal(keep, [False, True, True, False])
    np.testing.assert_array_equal(dense.query_t_us, [10.0, 15.0])
    assert "dropped 2" in caplog.text


def test_interpolation_needs_two_anchors():
    with pytest.raises(ConfigError):
        interpolate_ground_truth(_gt([(0, 0)]), [0.0])


def test_interpolation_with_no_covered_points_errors():
    with pytest.raises(ConfigError):
        interpolate_ground_truth(_gt([(10, 10), (20, 20)]), [0.0, 5.0])


# ---------------------------------------------------------------------------
# true positives and precision at full recall


def test_is_true_positive_boundary():
    assert is_true_positive(0.0, 0.0, 5 * S)
    assert is_true_positive(5 * S, 0.0, 5 * S)  # closed interval
    assert not is_true_positive(5 * S + 1, 0.0, 5 * S)


def test_is_true_positive_rejects_bad_threshold():
    with pytest.raises(ConfigError):
        is_true_positive(0.0, 0.0, 0)


def test_precision_two_of_three():
    # queries 0,1,2 s; best matches land on refs 0,1,9 s; truth is identity
    t_q = np.array([0, 1, 2]) * S
    t_r = np.array([0, 1, 9]) * S
    values = [
        [0.1, 0.5, 0.5],
        [0.5, 0.1, 0.5],
        [0.5, 0.5, 0.1],
    ]
    m = _matrix(values, t_q, t_r)
    res = precision_at_full_recall(m, _identity_gt(t_q), 5 * S)
    assert res.precision == pytest.approx(2 / 3)
    assert (res.tp, res.fp, res.retrieved, res.total_queries) == (2, 1, 3, 3)
    assert res.recall == 1.0


def test_identity_matrix_scores_perfectly():
    t = np.arange(5) * S
    rng = np.random.default_rng(211)
    values = rng.random((5, 5)) + 1.0
    np.fill_diagonal(values, 0.0)
    res = precision_at_full_recall(_matrix(values, t, t), _identity_gt(t), 1)
    assert res.precision == 1.0


def test_huge_threshold_gives_precision_one():
    rng = np.random.default_rng(223)
    t_q = np.arange(4) * S
    t_r = np.arange(6) * S
    m = _matrix(rng.random((4, 6)), t_q, t_r)
    res = precision_at_full_recall(m, _identity_gt(t_q), 10**12)
    assert res.precision == 1.0


def test_missing_ground_truth_for_query():
    t_q = np.array([0, S], dtype=np.int64)
    m = _matrix([[0.1], [0.2]], t_q, [0])
    gt = GroundTruth(np.array([0.0]), np.array([0.0]))
    with pytest.raises(MissingGroundTruthError):
        precision_at_full_recall(m, gt, 5 * S)


def test_monotone_transform_leaves_precision_unchanged():
    rng = np.random.default_rng(227)
    t_q = np.arange(8) * S
    t_r = np.arange(10) * S
    values = rng.random((8, 10))
    gt = _identity_gt(t_q)
    base = precision_at_full_recall(_matrix(values, t_q, t_r), gt, 2 * S)
    for transform in (lambda v: 3.0 * v + 1.0, np.sqrt, np.expm1):
        res = precision_at_full_recall(_matrix(transform(values), t_q, t_r), gt, 2 * S)
        assert res.precision == base.precision


def test_majority_vote_scores_the_voted_column():
    rng = np.random.default_rng(229)
    t = np.arange(6) * S
    members = [_matrix(rng.random((6, 6)), t, t, label=f"m{i}") for i in range(3)]
    fused = combine(members, EnsembleRule(RuleKind.MAJORITY_VOTE))
    gt = _identity_gt(t)
    # Retrieval takes each row's argmin, which must be the modal member vote.
    member_votes = np.argmin(np.stack([m.values for m in members]), axis=2)
    modal = [int(np.argmax(np.bincount(col, minlength=6))) for col in member_votes.T]
    manual_tp = sum(
        is_true_positive(fused.ref_t_us[c], q, 1 * S)
        for c, q in zip(modal, t.astype(np.float64))
    )
    result = precision_at_full_recall(fused, gt, 1 * S)
    assert result.tp == manual_tp
    assert result.tp + result.fp == result.total_queries == 6


# ---------------------------------------------------------------------------
# precision-recall sweeps


def _pr_fixture():
    rng = np.random.default_rng(233)
    t_q = np.arange(10) * S
    t_r = np.arange(12) * S
    values = rng.random((10, 12))
    return _matrix(values, t_q, t_r), _identity_gt(t_q)


def test_sweep_below_everything_retrieves_nothing():
    m, gt = _pr_fixture()
    (res,) = precision_recall_curve(m, gt, 2 * S, sweep=[m.values.min() - 1.0])
    assert (res.retrieved, res.precision, res.recall) == (0, 1.0, 0.0)


def test_sweep_above_everything_equals_full_recall():
    m, gt = _pr_fixture()
    (res,) = precision_recall_curve(m, gt, 2 * S, sweep=[m.values.max() + 1.0])
    full = precision_at_full_recall(m, gt, 2 * S)
    assert res.retrieved == full.total_queries
    assert res.precision == full.precision
    assert res.recall == full.tp / full.total_queries


def test_threshold_is_strict():
    t = np.array([0], dtype=np.int64)
    m = _matrix([[0.5]], t, t)
    gt = _identity_gt(t)
    at = precision_recall_curve(m, gt, S, sweep=[0.5])[0]
    above = precision_recall_curve(m, gt, S, sweep=[0.5 + 1e-9])[0]
    assert at.retrieved == 0  # 0.5 < 0.5 is false
    assert above.retrieved == 1


def test_recall_and_retrieved_non_decreasing():
    m, gt = _pr_fixture()
    curve = precision_recall_curve(m, gt, 2 * S)
    recalls = [r.recall for r in curve]
    retrieved = [r.retrieved for r in curve]
    assert recalls == sorted(recalls)
    assert retrieved == sorted(retrieved)
    assert len(curve) == 100


def test_default_sweep_spans_row_minima():
    m, _ = _pr_fixture()
    sweep = default_similarity_sweep(m, 7)
    row_min = m.values.min(axis=1)
    assert sweep[0] == row_min.min()
    assert sweep[-1] == row_min.max()
    assert len(sweep) == 7


def test_sweep_must_ascend():
    m, gt = _pr_fixture()
    with pytest.raises(OrderingError):
        precision_recall_curve(m, gt, 2 * S, sweep=[0.5, 0.4])


def test_precision_vs_loc_threshold_non_decreasing():
    m, gt = _pr_fixture()
    thresholds = [1, S // 2, S, 2 * S, 5 * S, 20 * S]
    results = precision_vs_loc_threshold(m, gt, thresholds)
    precisions = [r.precision for r in results]
    assert precisions == sorted(precisions)
    assert precisions[-1] == 1.0  # 20 s covers the whole 12 s reference span


def test_loc_threshold_sweep_matches_single_calls():
    m, gt = _pr_fixture()
    results = precision_vs_loc_threshold(m, gt, [S, 5 * S])
    assert results[0].precision == precision_at_full_recall(m, gt, S).precision
    assert results[1].precision == precision_at_full_recall(m, gt, 5 * S).precision


def test_loc_threshold_sweep_must_ascend():
    m, gt = _pr_fixture()
    with pytest.raises(OrderingError):
        precision_vs_loc_threshold(m, gt, [5 * S, S])


# ---------------------------------------------------------------------------
# EvalResult bookkeeping


def test_eval_result_rejects_inconsistent_counts():
    with pytest.raises(ConfigError):
        EvalResult(
            precision=1.0, recall=1.0, tp=2, fp=1, retrieved=2,
            total_queries=3, loc_threshold_us=1,
        )
    with pytest.raises(ConfigError):
        EvalResult(
            precision=1.0, recall=1.0, tp=4, fp=0, retrieved=4,
            total_queries=3, loc_threshold_us=1,
        )


def test_eval_result_rejects_out_of_range_rates():
    with pytest.raises(ConfigError):
        EvalResult(
            precision=1.5, recall=1.0, tp=1, fp=0, retrieved=1,
            total_queries=1, loc_threshold_us=1,
        )


# ---------------------------------------------------------------------------
# CSV formats


def test_ground_truth_csv_round_trip():
    rng = np.random.default_rng(239)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        q = np.cumsum(rng.integers(1, 10**7, size=n)).astype(np.float64)
        r = q + rng.normal(scale=1e6, size=n)
        gt = GroundTruth(q, r)
        back = read_ground_truth_csv(write_ground_truth_csv(gt))
        np.testing.assert_array_equal(back.query_t_us, gt.query_t_us)
        np.testing.assert_array_equal(back.ref_t_us, gt.ref_t_us)


def test_ground_truth_csv_is_seconds():
    gt = read_ground_truth_csv(b"1.5,2.5\n3.0,4.0\n")
    np.testing.assert_array_equal(gt.query_t_us, [1_500_000.0, 3_000_000.0])
    np.testing.assert_array_equal(gt.ref_t_us, [2_500_000.0, 4_000_000.0])


def test_ground_truth_csv_bad_rows():
    with pytest.raises(ParseError) as err:
        read_ground_truth_csv(b"1.0,2.0\n3.0\n")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        read_ground_truth_csv(b"a,b\n")
    with pytest.raises(ParseError):
        read_ground_truth_csv(b"")
    with pytest.raises(ParseError):
        read_ground_truth_csv(io.BytesIO(b"\n\n"))


@pytest.mark.parametrize("k", [1, 2, 5])
def test_ground_truth_csv_names_the_line_of_a_time_regression(k):
    good = b"".join(b"%d.5,%d.0\n" % (i, i) for i in range(k))
    for bad in (b"%d.5,9.0\n" % (k - 1), b"0.25,9.0\n"):
        with pytest.raises(OrderingError, match=f"^line {k + 1}: "):
            read_ground_truth_csv(good + bad)


def test_eval_csv_exact_bytes():
    res = EvalResult(
        precision=0.5, recall=1.0, tp=1, fp=1, retrieved=2,
        total_queries=2, loc_threshold_us=5 * S,
    )
    data = write_eval_results_csv([res])
    assert data == (EVAL_CSV_HEADER + "\n5000000,0.5,1.0,1,1,2,2\n").encode()


def test_eval_csv_uses_sim_threshold_when_swept():
    m, gt = _pr_fixture()
    curve = precision_recall_curve(m, gt, 2 * S, sweep=[0.25])
    data = write_eval_results_csv(curve)
    first_row = data.decode().splitlines()[1]
    assert first_row.startswith("0.25,")


def test_eval_csv_rejects_empty():
    with pytest.raises(ConfigError):
        write_eval_results_csv([])
