"""Combination rules, the approximate ensemble, weights."""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest

from evplace.descriptors import DescriptorSequence
from evplace.distance import DistanceMatrix, Metric, best_match_per_query, build_distance_matrix
from evplace.ensemble import (
    DEFAULT_WEIGHT_GRID,
    EnsembleRule,
    RuleKind,
    approximate_combine,
    combine,
    enumerate_weight_grid,
    weight_grid_search,
)
from evplace.errors import ConfigError
from evplace.evaluation import GroundTruth


def _matrix(values, label="m", q_t=None, r_t=None):
    values = np.asarray(values, dtype=np.float64)
    nq, nr = values.shape
    q_t = np.arange(nq, dtype=np.int64) if q_t is None else q_t
    r_t = np.arange(nr, dtype=np.int64) if r_t is None else r_t
    return DistanceMatrix(values, q_t, r_t, label)


def _random_members(rng, k, nq=6, nr=5):
    return [_matrix(rng.random((nq, nr)), label=f"m{i}") for i in range(k)]


def _seq(values, name="s"):
    values = np.asarray(values, dtype=np.float64)
    t = np.arange(values.shape[0], dtype=np.int64)
    return DescriptorSequence(f"external_{name}", t, values)


# ---------------------------------------------------------------------------
# elementwise rules


def test_mean_rule_simple():
    fused = combine([_matrix([[0.0, 2.0]]), _matrix([[2.0, 0.0]])], EnsembleRule(RuleKind.MEAN))
    np.testing.assert_array_equal(fused.values, [[1.0, 1.0]])
    assert fused.member_label == "mean_of_2"


def test_mean_of_identical_members_is_that_member():
    rng = np.random.default_rng(109)
    m = _matrix(rng.random((7, 7)))
    for k in (2, 4, 8):  # powers of two sum and divide without rounding
        fused = combine([m] * k, EnsembleRule(RuleKind.MEAN))
        assert np.array_equal(fused.values, m.values)


def test_product_median_min_max_against_numpy():
    rng = np.random.default_rng(113)
    members = _random_members(rng, 5)
    stack = np.stack([m.values for m in members])
    cases = [
        (EnsembleRule(RuleKind.PRODUCT), np.prod(stack, axis=0)),
        (EnsembleRule(RuleKind.MEDIAN), np.median(stack, axis=0)),
        (EnsembleRule(RuleKind.MIN), stack.min(axis=0)),
        (EnsembleRule(RuleKind.MAX), stack.max(axis=0)),
    ]
    for rule, expect in cases:
        np.testing.assert_array_equal(combine(members, rule).values, expect)


def test_median_even_count_averages_middles():
    members = [_matrix([[v]]) for v in (1.0, 2.0, 10.0, 40.0)]
    fused = combine(members, EnsembleRule(RuleKind.MEDIAN))
    assert fused.values[0, 0] == 6.0


def test_trimmed_mean_drops_extremes():
    members = [_matrix([[1.0]]), _matrix([[5.0]]), _matrix([[100.0]])]
    fused = combine(members, EnsembleRule(RuleKind.TRIMMED_MEAN, trim=1))
    assert fused.values[0, 0] == 5.0
    assert fused.member_label == "trimmed_mean_of_3"


def test_trimmed_mean_needs_enough_members():
    members = [_matrix([[1.0]]), _matrix([[2.0]])]
    with pytest.raises(ConfigError):
        combine(members, EnsembleRule(RuleKind.TRIMMED_MEAN, trim=1))


def test_weighted_all_ones_equals_mean_exactly():
    rng = np.random.default_rng(127)
    members = _random_members(rng, 5)
    mean = combine(members, EnsembleRule(RuleKind.MEAN))
    weighted = combine(members, EnsembleRule(RuleKind.WEIGHTED, weights=(1.0,) * 5))
    assert np.array_equal(mean.values, weighted.values)


def test_weighted_matches_brute_force():
    rng = np.random.default_rng(131)
    members = _random_members(rng, 4)
    w = (0.5, 1.25, 0.75, 1.5)
    fused = combine(members, EnsembleRule(RuleKind.WEIGHTED, weights=w))
    expect = sum(wk * m.values for wk, m in zip(w, members)) / 4
    np.testing.assert_allclose(fused.values, expect, atol=1e-12)


def _stacked_tree_mean(stack):
    """The tree mean over one stacked ``k x Q x R`` array, as fusion once did."""
    k = stack.shape[0]
    while stack.shape[0] > 1:
        even = stack.shape[0] // 2 * 2
        pairs = stack[0:even:2] + stack[1:even:2]
        if stack.shape[0] % 2:
            pairs = np.concatenate([pairs, stack[-1:]], axis=0)
        stack = pairs
    return stack[0] / k


def _stacked_vote(stack):
    """Majority vote over one stacked ``k x Q x R`` array, as fusion once did."""
    n_q, n_r = stack.shape[1:]
    rows = np.arange(n_q)
    votes = rows * n_r + np.argmin(stack, axis=2)
    counts = np.bincount(votes.ravel(), minlength=n_q * n_r).reshape(n_q, n_r)
    fused = np.ones((n_q, n_r), dtype=np.float64)
    fused[rows, counts.argmax(axis=1)] = 0.0
    return fused


@pytest.mark.parametrize("k", range(1, 12))
def test_tree_rules_equal_the_stacked_tree_bit_for_bit(k):
    rng = np.random.default_rng(139 + k)
    stack = rng.random((k, 7, 9))
    # Signed zeros and exact ties in every member, and identical copies.
    cells = rng.random(stack.shape) < 0.3
    stack[cells] = rng.choice([0.0, -0.0, 0.25, 0.5], size=int(cells.sum()))
    stack[k // 2 :: 3] = stack[0]
    members = [_matrix(v, label=f"m{i}") for i, v in enumerate(stack)]
    w = tuple(rng.uniform(0.1, 3.0, size=k).tolist())
    expect = {
        EnsembleRule(RuleKind.MEAN): _stacked_tree_mean(stack),
        EnsembleRule(RuleKind.WEIGHTED, weights=w): _stacked_tree_mean(
            np.array(w)[:, None, None] * stack
        ),
        EnsembleRule(RuleKind.PRODUCT): np.prod(stack, axis=0),
        EnsembleRule(RuleKind.MIN): np.min(stack, axis=0),
        EnsembleRule(RuleKind.MAX): np.max(stack, axis=0),
        # compared by bits: assert_array_equal would take -0.0 for 0.0
        EnsembleRule(RuleKind.MEDIAN): np.median(stack, axis=0),
    }
    if k > 1:
        expect[EnsembleRule(RuleKind.MAJORITY_VOTE)] = _stacked_vote(stack)
    if k > 2:
        expect[EnsembleRule(RuleKind.TRIMMED_MEAN)] = _stacked_tree_mean(
            np.sort(stack, axis=0)[1 : k - 1]
        )
    for rule, values in expect.items():
        fused = combine(members, rule).values
        np.testing.assert_array_equal(fused.view(np.int64), values.view(np.int64), rule.kind.value)


def _peak_over_one_member(members, rule):
    # A first call pays one-time costs, such as np.median's lazy import of
    # numpy.ma, that are no part of the rule's own peak.
    combine(members, rule)
    tracemalloc.start()
    try:
        combine(members, rule)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / members[0].values.nbytes


def test_mean_of_nine_members_keeps_no_k_deep_copy():
    rng = np.random.default_rng(149)
    members = _random_members(rng, 9, nq=300, nr=300)
    peak = _peak_over_one_member(members, EnsembleRule(RuleKind.MEAN))
    assert peak < 3.1, peak


@pytest.mark.parametrize(
    "rule, bound",
    [
        (EnsembleRule(RuleKind.MAJORITY_VOTE), 2.5),
        (EnsembleRule(RuleKind.WEIGHTED, weights=(0.5, 1.0, 1.5) * 3), 4.1),
        # one copy of the first member, folded in place, then wrapped as it is
        (EnsembleRule(RuleKind.PRODUCT), 1.2),
        (EnsembleRule(RuleKind.MIN), 1.2),
        (EnsembleRule(RuleKind.MAX), 1.2),
        # one k-deep stack, partitioned or sorted in place
        (EnsembleRule(RuleKind.MEDIAN), 12.0),
        (EnsembleRule(RuleKind.TRIMMED_MEAN), 12.0),
    ],
    ids=["majority_vote", "weighted", "product", "min", "max", "median", "trimmed_mean"],
)
def test_folding_rules_keep_no_k_deep_copy(rule, bound):
    rng = np.random.default_rng(149)
    members = _random_members(rng, 9, nq=300, nr=300)
    peak = _peak_over_one_member(members, rule)
    assert peak < bound, peak


def test_weighted_weight_count_checked():
    rng = np.random.default_rng(137)
    with pytest.raises(ConfigError):
        combine(_random_members(rng, 3), EnsembleRule(RuleKind.WEIGHTED, weights=(1.0, 1.0)))


@pytest.mark.parametrize(
    "rule, k, message",
    [
        (EnsembleRule(RuleKind.MEAN), 0, "ensemble needs at least one member"),
        (EnsembleRule(RuleKind.MEDIAN), 0, "ensemble needs at least one member"),
        (EnsembleRule(RuleKind.TRIMMED_MEAN, trim=1), 2,
         "trimmed mean with trim=1 needs more than 2 members"),
        (EnsembleRule(RuleKind.TRIMMED_MEAN, trim=2), 4,
         "trimmed mean with trim=2 needs more than 4 members"),
        (EnsembleRule(RuleKind.WEIGHTED, weights=(1.0, 1.0)), 3, "2 weights for 3 members"),
        (EnsembleRule(RuleKind.WEIGHTED, weights=(1.0, 1.0)), 1, "2 weights for 1 members"),
        (EnsembleRule(RuleKind.MAJORITY_VOTE), 1, "majority vote needs at least two members"),
    ],
    ids=["mean_0", "median_0", "trim1_2", "trim2_4", "weights2_3", "weights2_1", "vote_1"],
)
def test_check_members_refuses_each_misfit(rule, k, message):
    with pytest.raises(ConfigError) as err:
        rule.check_members(k)
    assert str(err.value) == message
    # combine makes the same check before it touches the members.
    rng = np.random.default_rng(151)
    with pytest.raises(ConfigError) as err:
        combine(_random_members(rng, k), rule)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "rule, k",
    [
        (EnsembleRule(RuleKind.MEAN), 1),
        (EnsembleRule(RuleKind.PRODUCT), 1),
        (EnsembleRule(RuleKind.TRIMMED_MEAN, trim=1), 3),
        (EnsembleRule(RuleKind.TRIMMED_MEAN, trim=2), 5),
        (EnsembleRule(RuleKind.WEIGHTED, weights=(1.0, 2.0, 3.0)), 3),
        (EnsembleRule(RuleKind.MAJORITY_VOTE), 2),
    ],
    ids=["mean_1", "product_1", "trim1_3", "trim2_5", "weights3_3", "vote_2"],
)
def test_check_members_accepts_the_smallest_fit(rule, k):
    rule.check_members(k)
    rng = np.random.default_rng(157)
    assert combine(_random_members(rng, k), rule).member_label == f"{rule.kind.value}_of_{k}"


def test_weights_must_be_positive():
    with pytest.raises(ConfigError):
        EnsembleRule(RuleKind.WEIGHTED, weights=(1.0, -0.5))


def test_rules_stay_inside_member_bounds():
    rng = np.random.default_rng(139)
    members = _random_members(rng, 5)
    lo = min(m.values.min() for m in members)
    hi = max(m.values.max() for m in members)
    for rule in (
        EnsembleRule(RuleKind.MEAN),
        EnsembleRule(RuleKind.MEDIAN),
        EnsembleRule(RuleKind.MIN),
        EnsembleRule(RuleKind.MAX),
        EnsembleRule(RuleKind.TRIMMED_MEAN, trim=1),
    ):
        fused = combine(members, rule)
        assert fused.values.min() >= lo - 1e-12
        assert fused.values.max() <= hi + 1e-12


def test_combine_rejects_mismatched_timestamps():
    a = _matrix([[1.0]], q_t=np.array([0], dtype=np.int64))
    b = _matrix([[1.0]], q_t=np.array([5], dtype=np.int64))
    with pytest.raises(ConfigError):
        combine([a, b], EnsembleRule(RuleKind.MEAN))


def test_combine_rejects_mismatched_shapes():
    with pytest.raises(ConfigError):
        combine([_matrix([[1.0]]), _matrix([[1.0, 2.0]])], EnsembleRule(RuleKind.MEAN))


def test_single_member_mean_is_identity():
    rng = np.random.default_rng(149)
    (m,) = _random_members(rng, 1)
    fused = combine([m], EnsembleRule(RuleKind.MEAN))
    assert np.array_equal(fused.values, m.values)


# ---------------------------------------------------------------------------
# majority vote


def _vote(members):
    return combine(members, EnsembleRule(RuleKind.MAJORITY_VOTE))


def test_majority_vote_modal_column():
    members = [
        _matrix([[0.9, 0.1, 0.5]]),  # argmin 1
        _matrix([[0.8, 0.2, 0.9]]),  # argmin 1
        _matrix([[0.9, 0.8, 0.1]]),  # argmin 2
    ]
    fused = _vote(members)
    np.testing.assert_array_equal(fused.values, [[1.0, 0.0, 1.0]])
    assert fused.member_label == "majority_vote_of_3"


def test_majority_vote_tie_takes_smallest_column():
    members = [
        _matrix([[0.1, 0.9]]),  # argmin 0
        _matrix([[0.9, 0.1]]),  # argmin 1
    ]
    fused = _vote(members)
    np.testing.assert_array_equal(fused.values, [[0.0, 1.0]])


def test_majority_vote_matches_best_match_when_members_identical():
    rng = np.random.default_rng(151)
    m = _matrix(rng.random((6, 5)))
    fused = _vote([m, m, m])
    for row, (best_idx, _) in zip(fused.values, best_match_per_query(m)):
        assert row[best_idx] == 0.0


def test_majority_vote_rows_have_exactly_one_vote():
    rng = np.random.default_rng(157)
    fused = _vote(_random_members(rng, 5))
    assert np.all((fused.values == 0.0).sum(axis=1) == 1)
    assert np.all((fused.values == 0.0) | (fused.values == 1.0))


def _majority_vote_loop(stack):
    """Oracle: one ``bincount`` per query row, ties to the smallest column.

    The modal column gets distance 0.0, every other column 1.0.
    """
    k, n_q, n_r = stack.shape
    votes = np.argmin(stack, axis=2)
    out = np.ones((n_q, n_r), dtype=np.float64)
    for i in range(n_q):
        counts = np.bincount(votes[:, i], minlength=n_r)
        out[i, int(np.argmax(counts))] = 0.0
    return out


def test_majority_vote_matches_loop_oracle_fuzz():
    rng = np.random.default_rng(167)
    tied_rows = 0
    for _ in range(200):
        k = int(rng.integers(2, 9))
        n_q = int(rng.integers(1, 12))
        n_r = int(rng.integers(1, 7))
        # Small integer distances: members often tie on their argmin.
        stack = rng.integers(0, 3, size=(k, n_q, n_r)).astype(np.float64)
        if k % 2 == 0 and n_r > 1:
            # Force a vote tie on one row: half the members pick column a,
            # half pick column b, with a > b half the time.
            i = int(rng.integers(n_q))
            a, b = rng.choice(n_r, size=2, replace=False)
            stack[:, i, :] = 1.0
            stack[: k // 2, i, a] = 0.0
            stack[k // 2 :, i, b] = 0.0
        counts = np.stack(
            [np.bincount(row, minlength=n_r) for row in np.argmin(stack, axis=2).T]
        )
        tied_rows += int(np.sum((counts == counts.max(axis=1, keepdims=True)).sum(axis=1) > 1))
        members = [_matrix(m) for m in stack]
        np.testing.assert_array_equal(_vote(members).values, _majority_vote_loop(stack))
    assert tied_rows > 100


def test_majority_vote_requires_two_members():
    rng = np.random.default_rng(163)
    with pytest.raises(ConfigError, match="at least two members"):
        _vote(_random_members(rng, 1))


def test_majority_vote_best_match_is_the_modal_column():
    # Columns 1 and 2 each get two votes; the tie goes to column 1, and
    # retrieval (argmin of the fused row) returns exactly that column.
    members = [
        _matrix([[0.5, 0.1, 0.9, 0.7]]),
        _matrix([[0.5, 0.2, 0.9, 0.7]]),
        _matrix([[0.5, 0.9, 0.1, 0.7]]),
        _matrix([[0.5, 0.9, 0.2, 0.7]]),
        _matrix([[0.1, 0.9, 0.9, 0.7]]),
    ]
    fused = _vote(members)
    np.testing.assert_array_equal(fused.values, [[1.0, 0.0, 1.0, 1.0]])
    assert [idx for idx, _ in best_match_per_query(fused)] == [1]


# ---------------------------------------------------------------------------
# approximate ensemble


def test_approximate_single_reference_is_plain_matrix():
    rng = np.random.default_rng(167)
    q = _seq(rng.standard_normal((4, 6)), "q")
    r = _seq(rng.standard_normal((5, 6)), "r")
    direct = build_distance_matrix(q, r, Metric.COSINE)
    approx = approximate_combine(q, [r], Metric.COSINE)
    assert np.array_equal(approx.values, direct.values)
    assert approx.member_label == "approx_mean_of_1"


def test_approximate_identical_references_reduce_to_one():
    rng = np.random.default_rng(173)
    q = _seq(rng.standard_normal((3, 6)), "q")
    r = _seq(rng.standard_normal((4, 6)), "r")
    single = approximate_combine(q, [r], Metric.COSINE)
    many = approximate_combine(q, [r, r, r, r], Metric.COSINE)
    assert np.array_equal(many.values, single.values)  # power-of-two count, exact
    assert many.member_label == "approx_mean_of_4"


def test_approximate_two_references_mean():
    rng = np.random.default_rng(179)
    q = _seq(rng.standard_normal((3, 6)), "q")
    r1 = _seq(rng.standard_normal((4, 6)), "r1")
    r2 = _seq(rng.standard_normal((4, 6)), "r2")
    approx = approximate_combine(q, [r1, r2], Metric.COSINE)
    expect = (
        build_distance_matrix(q, r1, Metric.COSINE).values
        + build_distance_matrix(q, r2, Metric.COSINE).values
    ) / 2
    np.testing.assert_allclose(approx.values, expect, atol=1e-15)


@pytest.mark.parametrize("metric", list(Metric))
def test_approximate_is_combines_mean_relabelled(metric):
    rng = np.random.default_rng(197)
    q = _seq(rng.standard_normal((5, 6)), "q")
    rs = [_seq(rng.standard_normal((7, 6)), f"r{i}") for i in range(3)]
    approx = approximate_combine(q, rs, metric)
    expect = combine([build_distance_matrix(q, r, metric) for r in rs], EnsembleRule(RuleKind.MEAN))
    assert approx.member_label == "approx_mean_of_3"
    np.testing.assert_array_equal(approx.values.view(np.int64), expect.values.view(np.int64))


# ---------------------------------------------------------------------------
# weight grids


def test_weight_grid_sizes():
    assert len(list(enumerate_weight_grid(1))) == len(DEFAULT_WEIGHT_GRID)
    vectors = list(enumerate_weight_grid(2))
    assert len(vectors) == 25
    assert vectors[0] == (0.5, 0.5)
    assert vectors[1] == (0.5, 0.75)  # lexicographic order
    assert vectors[-1] == (1.5, 1.5)


def test_weight_grid_single_point():
    assert list(enumerate_weight_grid(3, grid=[1.0])) == [(1.0, 1.0, 1.0)]


def test_weight_grid_is_lazy():
    it = enumerate_weight_grid(9)
    assert next(it) == (0.5,) * 9  # no materialization of 5**9 vectors


def test_weight_grid_matches_itertools_product():
    got = list(enumerate_weight_grid(3, grid=[0.5, 1.5]))
    expect = list(itertools.product([0.5, 1.5], repeat=3))
    assert got == expect


def test_weight_grid_search_scores_every_vector():
    rng = np.random.default_rng(197)
    t = np.arange(4, dtype=np.int64) * 1_000_000
    gt = GroundTruth(t.astype(np.float64), t.astype(np.float64))
    members = [
        _matrix(rng.random((4, 4)), label=f"m{i}", q_t=t, r_t=t) for i in range(2)
    ]
    results = list(weight_grid_search(members, gt, grid=[0.5, 1.0]))
    assert len(results) == 4
    for weights, ev in results:
        assert len(weights) == 2
        assert 0.0 <= ev.precision <= 1.0
