"""Distance functions, matrix construction, and matrix CSV round trips."""

from __future__ import annotations

import numpy as np
import pytest

from evplace.descriptors import DescriptorSequence
from evplace.distance import (
    DistanceMatrix,
    Metric,
    best_match_per_query,
    build_distance_matrix,
    cosine_distance,
    read_matrix_csv,
    sad_distance,
    write_matrix_csv,
)
from evplace.errors import ConfigError, DegenerateDescriptorError, OrderingError, ParseError


def _seq(values, t_us=None, name="s"):
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    if t_us is None:
        t_us = np.arange(values.shape[0], dtype=np.int64) * 1_000_000
    return DescriptorSequence(f"external_{name}", np.asarray(t_us, dtype=np.int64), values)


# ---------------------------------------------------------------------------
# scalar metrics


def test_cosine_identical_is_exactly_zero():
    assert cosine_distance([1.0, 0.0], [1.0, 0.0]) == 0.0


def test_cosine_orthogonal_is_one():
    assert cosine_distance([1.0, 0.0], [0.0, 1.0]) == 1.0


def test_cosine_antipodal_is_two():
    assert cosine_distance([1.0, 0.0], [-1.0, 0.0]) == 2.0


def test_cosine_scale_invariance_and_symmetry_fuzz():
    rng = np.random.default_rng(83)
    for _ in range(200):
        a = rng.standard_normal(8)
        b = rng.standard_normal(8)
        d = cosine_distance(a, b)
        assert 0.0 <= d <= 2.0
        assert cosine_distance(b, a) == d
        scale = float(rng.uniform(0.1, 50.0))
        np.testing.assert_allclose(cosine_distance(a * scale, b), d, atol=1e-12)


def test_cosine_zero_iff_positive_multiple():
    rng = np.random.default_rng(89)
    for _ in range(100):
        a = rng.standard_normal(6)
        assert cosine_distance(a, 2.5 * a) <= 1e-15
        b = rng.standard_normal(6)
        aligned = abs(cosine_distance(a, b)) <= 1e-15
        cos = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
        assert aligned == (cos >= 1.0 - 1e-15)


def test_cosine_rejects_zero_norm():
    with pytest.raises(DegenerateDescriptorError):
        cosine_distance([0.0, 0.0], [1.0, 0.0])


def test_cosine_rejects_dim_mismatch():
    with pytest.raises(ConfigError):
        cosine_distance([1.0, 0.0], [1.0, 0.0, 0.0])


def test_sad_distance_examples():
    assert sad_distance([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert sad_distance([0.0, 0.0], [1.0, 1.0]) == 1.0
    assert sad_distance([0.0, 2.0], [1.0, 0.0]) == 1.5


# ---------------------------------------------------------------------------
# distance matrices


def test_matrix_self_comparison_has_exact_zero_diagonal():
    rng = np.random.default_rng(97)
    q = _seq(rng.standard_normal((5, 12)))
    m = build_distance_matrix(q, q, Metric.COSINE)
    assert m.values.shape == (5, 5)
    assert np.all(np.diag(m.values) == 0.0)
    assert np.all(m.values.argmin(axis=1) == np.arange(5))


def test_matrix_single_query_row():
    q = _seq([[1.0, 0.0]])
    r = _seq([[1.0, 0.0], [0.0, 1.0]])
    m = build_distance_matrix(q, r, Metric.COSINE)
    np.testing.assert_allclose(m.values, [[0.0, 1.0]], atol=1e-15)


def test_matrix_transpose_symmetry():
    rng = np.random.default_rng(101)
    q = _seq(rng.standard_normal((4, 6)), name="q")
    r = _seq(rng.standard_normal((7, 6)), name="r")
    for metric in Metric:
        a = build_distance_matrix(q, r, metric)
        b = build_distance_matrix(r, q, metric)
        np.testing.assert_array_equal(a.values, b.values.T)


def test_matrix_against_scalar_oracle():
    rng = np.random.default_rng(103)
    q = _seq(rng.standard_normal((3, 5)), name="q")
    r = _seq(rng.standard_normal((4, 5)), name="r")
    for metric, fn in ((Metric.COSINE, cosine_distance), (Metric.SAD, sad_distance)):
        m = build_distance_matrix(q, r, metric)
        for i in range(3):
            for j in range(4):
                np.testing.assert_allclose(
                    m.values[i, j], fn(q.values[i], r.values[j]), atol=1e-12
                )


def _loop_distances(q, r, metric):
    """Every row through a fresh ``R x D`` temporary, as the matrix loop once did."""
    out = np.empty((len(q), len(r)), dtype=np.float64)
    if metric is Metric.COSINE:
        qh, rh = (s.values / np.sqrt((s.values * s.values).sum(axis=1))[:, None] for s in (q, r))
        for i in range(len(q)):
            diff = rh - qh[i]
            out[i] = 0.5 * (diff * diff).sum(axis=1)
        np.clip(out, 0.0, 2.0, out=out)
    else:
        for i in range(len(q)):
            out[i] = np.abs(r.values - q.values[i]).mean(axis=1)
    return out


def _assert_bitwise(a, b):
    np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("metric", list(Metric))
@pytest.mark.parametrize(
    "nq, nr, dim", [(1, 1, 1), (13, 5, 3), (9, 40, 192), (5, 200, 768), (3, 171, 768)]
)
def test_matrix_equals_the_allocating_loop_bit_for_bit(metric, nq, nr, dim):
    # 200 x 768 and 171 x 768 float64 rows are above 1 MiB, where a fresh
    # temporary per row would be mapped afresh.
    rng = np.random.default_rng(nq * 1_000_003 + nr * 1009 + dim)
    q = _seq(rng.standard_normal((nq, dim)) * rng.uniform(0.1, 50.0), name="q")
    r = _seq(rng.standard_normal((nr, dim)), name="r")
    _assert_bitwise(build_distance_matrix(q, r, metric).values, _loop_distances(q, r, metric))
    rf = _seq(np.asfortranarray(r.values), name="r")  # a column-major library input
    assert rf.values.flags.f_contiguous
    _assert_bitwise(build_distance_matrix(q, rf, metric).values, _loop_distances(q, rf, metric))


@pytest.mark.parametrize("metric", list(Metric))
def test_matrix_equals_the_allocating_loop_on_equal_antipodal_and_tiny_entries(metric):
    rng = np.random.default_rng(211)
    tiny = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310]
    q_values = rng.choice(tiny, size=(6, 32))
    q_values[:, 0] = rng.standard_normal(6)  # one normal entry keeps each row's direction
    # Cosine needs a direction in every row; SAD also takes rows of nothing but tiny entries.
    extra = rng.standard_normal((4, 32)) if metric is Metric.COSINE else rng.choice(tiny, (4, 32))
    q = _seq(q_values, name="q")
    r = _seq(np.concatenate([q_values, -q_values, extra]), name="r")
    m = build_distance_matrix(q, r, metric).values
    _assert_bitwise(m, _loop_distances(q, r, metric))
    assert np.all(np.diag(m[:, :6]) == 0.0)
    if metric is Metric.COSINE:
        assert np.all(np.diag(m[:, 6:12]) == 2.0)


def test_matrix_label_from_shared_source():
    q = _seq([[1.0, 2.0]], name="a")
    r = _seq([[2.0, 1.0]], name="a")
    assert build_distance_matrix(q, r, Metric.SAD).member_label == "external_a"


def test_matrix_label_from_distinct_sources():
    q = DescriptorSequence("count_5", np.array([0]), np.ones((1, 3)))
    r = _seq([[1.0, 1.0, 1.0]], name="b")
    m = build_distance_matrix(q, r, Metric.SAD)
    assert m.member_label == "count_5_vs_external_b"


def test_matrix_rejects_dim_mismatch():
    with pytest.raises(ConfigError):
        build_distance_matrix(_seq([[1.0, 0.0]]), _seq([[1.0, 0.0, 0.0]]), Metric.SAD)


def test_matrix_zero_norm_error_names_family_sample_and_count():
    good = _seq([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], name="ok")
    values = [[1.0, 0.0], [0.0, 0.0], [0.5, 0.5], [0.0, 0.0]]
    bad = _seq(values, t_us=[250_000, 1_500_000, 2_000_000, 3_000_000], name="dark")
    with pytest.raises(
        DegenerateDescriptorError,
        match=r"^query external_dark: 2 zero-norm descriptor\(s\), the first at t=1\.5 s,",
    ):
        build_distance_matrix(bad, good, Metric.COSINE)
    with pytest.raises(
        DegenerateDescriptorError,
        match=r"^reference external_dark: 2 zero-norm descriptor\(s\), the first at t=1\.5 s,",
    ):
        build_distance_matrix(good, bad, Metric.COSINE)
    # SAD needs no direction, so the same rows are comparable with it.
    assert build_distance_matrix(bad, good, Metric.SAD).values.shape == (4, 3)


def test_matrix_requires_finite_values():
    with pytest.raises(ConfigError):
        DistanceMatrix(
            np.array([[np.inf]]),
            np.array([0], dtype=np.int64),
            np.array([0], dtype=np.int64),
            "bad",
        )


def test_best_match_prefers_smallest_index_on_tie():
    m = DistanceMatrix(
        np.array([[0.5, 0.2, 0.9], [0.3, 0.3, 0.4], [0.0, 0.0, 0.0]]),
        np.arange(3, dtype=np.int64),
        np.arange(3, dtype=np.int64),
        "t",
    )
    assert best_match_per_query(m) == [(1, 0.2), (0, 0.3), (0, 0.0)]


# ---------------------------------------------------------------------------
# matrix CSV


def test_matrix_csv_round_trip_is_bit_exact():
    rng = np.random.default_rng(107)
    for _ in range(10):
        nq, nr = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        m = DistanceMatrix(
            rng.random((nq, nr)),
            np.cumsum(rng.integers(1, 10**9, size=nq)),
            np.cumsum(rng.integers(1, 10**9, size=nr)),
            "fuzz",
        )
        back = read_matrix_csv(write_matrix_csv(m), "fuzz")
        assert np.array_equal(back.values, m.values)
        assert np.array_equal(back.query_t_us, m.query_t_us)
        assert np.array_equal(back.ref_t_us, m.ref_t_us)


def test_matrix_csv_layout():
    m = DistanceMatrix(
        np.array([[0.5, 1.0]]),
        np.array([7], dtype=np.int64),
        np.array([3, 9], dtype=np.int64),
        "x",
    )
    assert write_matrix_csv(m) == b"3,9\n7,0.5,1.0\n"


def _write_matrix_csv_per_value(matrix):
    """The per-value writer ``write_matrix_csv`` replaced: its byte oracle."""
    lines = [",".join(str(int(t)) for t in matrix.ref_t_us)]
    for i in range(matrix.n_queries):
        row = ",".join(repr(float(d)) for d in matrix.values[i])
        lines.append(f"{int(matrix.query_t_us[i])},{row}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def test_matrix_csv_matches_the_per_value_writer():
    tiny = np.nextafter(0.0, 1.0)
    odd = [-0.0, 0.0, tiny, -tiny, 2.2250738585072014e-308 / 3, 0.1 + 0.2, 1 / 3,
           1e16, 1.7976931348623157e308, -1.7976931348623157e308, 2.0, 123456789.0]
    big = np.iinfo(np.int64)
    cases = [
        DistanceMatrix(np.array([odd]), [big.min], [big.min, *range(-5, 5), big.max], "odd"),
        DistanceMatrix(np.array(odd).reshape(-1, 1), np.arange(12) * 10**17, [big.max], "col"),
    ]
    rng = np.random.default_rng(109)
    for _ in range(10):
        nq, nr = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        values = rng.standard_normal((nq, nr)) * 10.0 ** rng.integers(-300, 300, size=(nq, nr))
        cases.append(DistanceMatrix(values, np.cumsum(rng.integers(1, 10**9, size=nq)),
                                    np.cumsum(rng.integers(1, 10**9, size=nr)) - 10**9, "fuzz"))
    for m in cases:
        data = write_matrix_csv(m)
        assert data == _write_matrix_csv_per_value(m)
        back = read_matrix_csv(data, m.member_label)
        assert back.values.tobytes() == m.values.tobytes()


def test_matrix_csv_rejects_ragged_rows():
    with pytest.raises(ParseError, match="line 3"):
        read_matrix_csv("3,9\n7,0.5,1.0\n8,0.25\n")


@pytest.mark.parametrize("k", [1, 2, 5])
def test_matrix_csv_names_the_line_of_a_time_regression(k):
    good = "".join(f"{10 * i},0.5,1.0\n" for i in range(k))
    # header on line 1, good rows on lines 2..k+1
    with pytest.raises(OrderingError, match=f"^line {k + 2}: "):
        read_matrix_csv(f"3,9\n{good}{10 * (k - 1)},0.25,0.5\n")
    with pytest.raises(OrderingError, match=f"^line {k + 2}: "):
        read_matrix_csv(f"3,9\n{good}-1,0.25,0.5\n")


def test_matrix_csv_names_the_header_line_of_a_time_regression():
    for header in ("3,9,9,12", "3,9,12,4"):
        with pytest.raises(OrderingError, match="^line 1: "):
            read_matrix_csv(f"{header}\n7,0.5,1.0,0.5,0.5\n")
