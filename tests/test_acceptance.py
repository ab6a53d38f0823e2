"""Acceptance checks for the whole toolkit.

Each test covers one guaranteed behavior end to end and prints a single
``[PASS]``/``[FAIL]`` verdict line (run pytest with ``-s`` to see the lines
for passing tests):

1. every combination rule matches a straight-line brute-force oracle,
2. the documented reduction identities hold bit for bit,
3. windowing invariants hold on random streams,
4. metric and descriptor invariances hold on random instances,
5. evaluation sweeps behave monotonically,
6. the committed synthetic benchmark shows the ensemble ordering,
7. the CLI reproduces the committed golden run byte for byte,
8. every file format round-trips fuzzed valid data exactly.
"""

import io
import json
import statistics
import time
from pathlib import Path

import numpy as np

from evplace.cli import main as cli_main
from evplace.config import load_config
from evplace.descriptors import (
    DescriptorParams,
    DescriptorSequence,
    load_descriptors,
    sad_descriptor,
    write_descriptors,
)
from evplace.distance import (
    DistanceMatrix,
    Metric,
    build_distance_matrix,
    cosine_distance,
)
from evplace.ensemble import (
    EnsembleRule,
    RuleKind,
    approximate_combine,
    combine,
)
from evplace.evaluation import (
    GroundTruth,
    default_similarity_sweep,
    precision_at_full_recall,
    precision_recall_curve,
    precision_vs_loc_threshold,
    read_ground_truth_csv,
    write_ground_truth_csv,
)
from evplace.events import EventStream, SensorGeometry, parse_event_csv, write_event_csv
from evplace.synthetic import generate_world, run_synthetic_experiment
from evplace.windowing import WindowFamily, align_to_time, split_fixed_count, split_fixed_time

REPO = Path(__file__).resolve().parents[1]
CONFIG = REPO / "configs" / "synthetic-default.json"
GOLDEN_RUN = Path(__file__).resolve().parent / "golden" / "run"


def _verdict(name: str, failures: list, detail: str = "") -> None:
    status = "PASS" if not failures else "FAIL"
    extra = detail if not failures else "; ".join(str(f) for f in failures[:5])
    print(f"[{status}] {name}" + (f" ({extra})" if extra else ""))
    assert not failures, f"{name}: {extra}"


# ---------------------------------------------------------------------------
# 1. combination rules vs straight-line oracles


def _brute_argmin(row):
    best = 0
    for j in range(1, len(row)):
        if row[j] < row[best]:
            best = j
    return best


def _brute_fuse(stack, rule, weights=None, trim=1):
    """Reference fusion written as plain loops over Python floats."""
    k = len(stack)
    nq, nr = len(stack[0]), len(stack[0][0])
    out = [[0.0] * nr for _ in range(nq)]
    for i in range(nq):
        if rule == "vote":
            tallies = [0] * nr
            for m in range(k):
                tallies[_brute_argmin(stack[m][i])] += 1
            modal = 0
            for j in range(1, nr):
                if tallies[j] > tallies[modal]:
                    modal = j
            # distance 1 - vote: 0.0 at the modal column, 1.0 elsewhere
            out[i] = [1.0] * nr
            out[i][modal] = 0.0
            continue
        for j in range(nr):
            vals = [stack[m][i][j] for m in range(k)]
            if rule == "mean":
                out[i][j] = sum(vals) / k
            elif rule == "product":
                p = 1.0
                for v in vals:
                    p *= v
                out[i][j] = p
            elif rule == "median":
                out[i][j] = statistics.median(vals)
            elif rule == "min":
                out[i][j] = min(vals)
            elif rule == "max":
                out[i][j] = max(vals)
            elif rule == "trimmed":
                core = sorted(vals)[trim : k - trim]
                out[i][j] = sum(core) / len(core)
            elif rule == "weighted":
                out[i][j] = sum(w * v for w, v in zip(weights, vals)) / k
    return out


def test_combination_rules_match_straight_line_oracles():
    rng = np.random.default_rng(7011)
    qt = np.arange(10, dtype=np.int64) * 1_000_000
    rt = np.arange(10, dtype=np.int64) * 1_000_000 + 500
    failures = []
    t0 = time.perf_counter()
    for trial in range(5):
        raw = [rng.random((10, 10)) for _ in range(5)]
        members = [DistanceMatrix(v, qt, rt, f"m{i}") for i, v in enumerate(raw)]
        stack = [v.tolist() for v in raw]
        weights = tuple(float(rng.choice([0.5, 0.75, 1.0, 1.25, 1.5])) for _ in range(5))
        cases = [
            ("mean", EnsembleRule(RuleKind.MEAN), 1e-12),
            ("product", EnsembleRule(RuleKind.PRODUCT), 1e-12),
            ("median", EnsembleRule(RuleKind.MEDIAN), 1e-12),
            ("min", EnsembleRule(RuleKind.MIN), 0.0),
            ("max", EnsembleRule(RuleKind.MAX), 0.0),
            ("trimmed", EnsembleRule(RuleKind.TRIMMED_MEAN, trim=1), 1e-12),
            ("weighted", EnsembleRule(RuleKind.WEIGHTED, weights=weights), 1e-12),
            ("vote", EnsembleRule(RuleKind.MAJORITY_VOTE), 0.0),
        ]
        for name, rule, tol in cases:
            fused = combine(members, rule).values
            oracle = np.array(_brute_fuse(stack, name, weights=weights))
            if tol == 0.0:
                if not np.array_equal(fused, oracle):
                    failures.append(f"trial {trial}: {name} not exact")
            else:
                err = float(np.max(np.abs(fused - oracle)))
                if err > tol:
                    failures.append(f"trial {trial}: {name} off by {err:.3e}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, bound is 1s")
    _verdict(
        "all 8 combination rules match brute-force oracles within 1e-12",
        failures,
        f"5 stacks of 5, {elapsed:.2f}s < 1s",
    )


# ---------------------------------------------------------------------------
# 2. reduction identities, bit for bit


def _external_seq(rng, name, n, dim, t0=0):
    t = t0 + np.cumsum(rng.integers(1, 1_000_000, n)).astype(np.int64)
    vals = rng.standard_normal((n, dim))
    return DescriptorSequence(f"external_{name}", t, vals)


def test_reduction_identities_are_exact():
    rng = np.random.default_rng(7021)
    qt = np.arange(8, dtype=np.int64) * 500_000
    rt = np.arange(9, dtype=np.int64) * 500_000
    failures = []

    raw = [rng.random((8, 9)) for _ in range(5)]
    members = [DistanceMatrix(v, qt, rt, f"m{i}") for i, v in enumerate(raw)]
    all_ones = combine(members, EnsembleRule(RuleKind.WEIGHTED, weights=(1.0,) * 5)).values
    plain = combine(members, EnsembleRule(RuleKind.MEAN)).values
    if not np.array_equal(all_ones, plain):
        failures.append("weighted with unit weights differs from mean")

    single = combine([members[0]], EnsembleRule(RuleKind.MEAN))
    if not np.array_equal(single.values, members[0].values):
        failures.append("single-member mean differs from the member")

    q = _external_seq(rng, "q", 6, 12)
    r = _external_seq(rng, "r", 7, 12)
    direct = build_distance_matrix(q, r, Metric.COSINE)
    approx = approximate_combine(q, [r], Metric.COSINE)
    if not np.array_equal(approx.values, direct.values):
        failures.append("single-reference approximate ensemble differs from the member")

    for k in (2, 4, 8):
        copies = [DistanceMatrix(raw[0], qt, rt, f"c{i}") for i in range(k)]
        fused = combine(copies, EnsembleRule(RuleKind.MEAN)).values
        if not np.array_equal(fused, raw[0]):
            failures.append(f"mean of {k} identical members differs from the member")

    _verdict("reduction identities hold with exact equality", failures)


# ---------------------------------------------------------------------------
# 3. windowing invariants on random streams


def _random_stream(rng, n, geometry):
    dt = rng.integers(0, 400, size=n)
    # A few long gaps so fixed-time families contain genuinely empty windows.
    dt[rng.random(n) < 0.01] += 5_000
    t = 10_000 + np.cumsum(dt)
    return EventStream(
        geometry,
        t.astype(np.int64),
        rng.integers(0, geometry.width, size=n, dtype=np.int32),
        rng.integers(0, geometry.height, size=n, dtype=np.int32),
        rng.choice(np.array([-1, 1], dtype=np.int8), size=n),
    )


def _check_fixed_count(stream, count, failures, tag):
    family = split_fixed_count(stream, count)
    n = len(stream)
    if len(family) != n // count:
        failures.append(f"{tag}: expected {n // count} windows, got {len(family)}")
        return
    for k, (start, end, t_lo, t_hi) in enumerate(
        zip(family.start_idx, family.end_idx, family.t_start_us, family.t_end_us)
    ):
        if start != k * count or end != (k + 1) * count:
            failures.append(f"{tag}: window {k} covers [{start}, {end})")
            return
        if not (t_lo <= stream.t[start] and stream.t[end - 1] < t_hi):
            failures.append(f"{tag}: window {k} time bounds exclude its events")
            return


def _check_fixed_time(stream, span, failures, tag):
    family = split_fixed_time(stream, span)
    t0 = int(stream.t[0])
    starts, ends = family.start_idx, family.end_idx
    grid = t0 + np.arange(len(family) + 1, dtype=np.int64) * span
    if not (
        np.array_equal(family.t_start_us, grid[:-1])
        and np.array_equal(family.t_end_us, grid[1:])
    ):
        failures.append(f"{tag}: interval bounds are not a contiguous grid from t0")
        return
    if starts[0] != 0 or ends[-1] != len(stream) or np.any(starts[1:] != ends[:-1]):
        failures.append(f"{tag}: index ranges do not partition the stream")
        return
    ks = (stream.t - t0) // span
    idx = np.arange(len(stream))
    if not np.all((starts[ks] <= idx) & (idx < ends[ks])):
        failures.append(f"{tag}: some event is outside its own time bin's window")
        return
    if int(ks[-1]) != len(family) - 1:
        failures.append(f"{tag}: trailing windows beyond the last event")


def _check_alignment(stream, family: WindowFamily, size, rng, failures, tag):
    lo = int(family.start_idx[0])
    hi = int(family.end_idx[-1])
    covered = stream.t[lo:hi]
    t_lo, t_hi = int(stream.t[0]) - 2_000, int(stream.t[-1]) + 2_000
    samples = rng.integers(t_lo, t_hi + 1, size=30)
    got, starts, ends = align_to_time(stream, samples, **size)
    for ts, w, start, end in zip(samples, got, starts, ends):
        nearest = lo + int(np.argmin(np.abs(covered - ts)))
        expect = next(
            k
            for k, (start, end) in enumerate(zip(family.start_idx, family.end_idx))
            if start <= nearest < end
        )
        if w != expect:
            failures.append(f"{tag}: t*={ts} aligned to window {w}, nearest event is in {expect}")
            return
        if (start, end) != (family.start_idx[w], family.end_idx[w]):
            failures.append(f"{tag}: t*={ts} window {w} given as events [{start}, {end})")
            return


def test_windowing_invariants_on_random_streams():
    rng = np.random.default_rng(7031)
    geometry = SensorGeometry(32, 24)
    failures = []
    t0 = time.perf_counter()
    for n in (1, 17, 1_000, 25_000, 100_000):
        stream = _random_stream(rng, n, geometry)
        for count in (1, 7, 77, max(1, n // 2)):
            _check_fixed_count(stream, count, failures, f"n={n} N={count}")
        span_total = max(1, int(stream.t[-1]) - int(stream.t[0]))
        for span in (997, max(1, span_total // 17)):
            _check_fixed_time(stream, span, failures, f"n={n} span={span}")
        size = {"count": max(1, n // 13)}
        cw = split_fixed_count(stream, size["count"])
        if len(cw):
            _check_alignment(stream, cw, size, rng, failures, f"n={n} count align")
        size = {"span_us": max(1, span_total // 11)}
        tw = split_fixed_time(stream, size["span_us"])
        _check_alignment(stream, tw, size, rng, failures, f"n={n} span align")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.2f}s, bound is 10s")
    _verdict(
        "windowing invariants hold on random streams up to 1e5 events",
        failures,
        f"{elapsed:.2f}s < 10s",
    )


# ---------------------------------------------------------------------------
# 4. metric and descriptor properties


def test_metric_and_descriptor_properties():
    rng = np.random.default_rng(7041)
    geometry = SensorGeometry(12, 10)
    shapes = [(12, 10, 2), (6, 10, 2), (10, 10, 5)]
    failures = []
    for i in range(1000):
        dim = int(rng.integers(2, 40))
        a = rng.standard_normal(dim)
        b = rng.standard_normal(dim)
        lam = float(10.0 ** rng.uniform(-3, 3))
        mu = float(10.0 ** rng.uniform(-3, 3))

        d = cosine_distance(a, b)
        if not (0.0 <= d <= 2.0):
            failures.append(f"iter {i}: distance {d} outside [0, 2]")
            break
        if abs(cosine_distance(lam * a, mu * b) - d) > 1e-12:
            failures.append(f"iter {i}: distance not scale-invariant")
            break
        if cosine_distance(a, lam * a) > 1e-12:
            failures.append(f"iter {i}: aligned vectors not at zero distance")
            break
        if d <= 1e-12:
            failures.append(f"iter {i}: independent vectors at zero distance")
            break
        if abs(cosine_distance(a, -a) - 2.0) > 1e-12:
            failures.append(f"iter {i}: opposite vectors not at distance 2")
            break

        dw, dh, patch = shapes[i % len(shapes)]
        pixels = rng.random((geometry.height, geometry.width)) * 50.0
        alpha = float(10.0 ** rng.uniform(-2, 2))
        beta = float(rng.uniform(-50.0, 50.0))
        params = DescriptorParams(down_width=dw, down_height=dh, patch=patch)
        base = sad_descriptor(pixels, params)
        moved = sad_descriptor(alpha * pixels + beta, params)
        err = float(np.max(np.abs(base - moved)))
        if err > 1e-9:
            failures.append(f"iter {i}: affine transform moved descriptor by {err:.3e}")
            break
    _verdict(
        "cosine metric and patch-normalized descriptor invariances hold",
        failures,
        "1000 random instances",
    )


# ---------------------------------------------------------------------------
# 5. evaluation invariants


def test_evaluation_invariants():
    rng = np.random.default_rng(7051)
    failures = []
    t0 = time.perf_counter()
    for trial in range(40):
        nq = int(rng.integers(3, 15))
        nr = int(rng.integers(3, 15))
        qt = np.cumsum(rng.integers(100_000, 900_000, nq)).astype(np.int64)
        rt = np.cumsum(rng.integers(100_000, 900_000, nr)).astype(np.int64)
        values = rng.random((nq, nr))
        matrix = DistanceMatrix(values, qt, rt, "fuzz")
        gt_ref = rt[rng.integers(0, nr, nq)].astype(np.float64) + rng.uniform(-2e5, 2e5, nq)
        gt = GroundTruth(qt.astype(np.float64), gt_ref)

        curve = precision_recall_curve(
            matrix, gt, 500_000, sweep=default_similarity_sweep(matrix, 50)
        )
        recalls = [r.recall for r in curve]
        retrieved = [r.retrieved for r in curve]
        if any(b < a for a, b in zip(recalls, recalls[1:])):
            failures.append(f"trial {trial}: recall decreased along an ascending sweep")
            break
        if any(b < a for a, b in zip(retrieved, retrieved[1:])):
            failures.append(f"trial {trial}: retrieved count decreased along the sweep")
            break

        ref = precision_at_full_recall(matrix, gt, 500_000)
        for name, fn in (
            ("affine", lambda v: 3.0 * v + 1.0),
            ("sqrt", np.sqrt),
            ("expm1", np.expm1),
        ):
            other = precision_at_full_recall(
                DistanceMatrix(fn(values), qt, rt, name), gt, 500_000
            )
            if (other.tp, other.fp, other.precision) != (ref.tp, ref.fp, ref.precision):
                failures.append(f"trial {trial}: {name} transform changed the score")
                break

        sweep = [1, 100_000, 300_000, 700_000, 2_000_000, 10**12]
        precisions = [r.precision for r in precision_vs_loc_threshold(matrix, gt, sweep)]
        if any(b < a for a, b in zip(precisions, precisions[1:])):
            failures.append(f"trial {trial}: precision decreased with a looser threshold")
            break
        if precisions[-1] != 1.0:
            failures.append(f"trial {trial}: unbounded threshold precision {precisions[-1]}")
            break
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        failures.append(f"took {elapsed:.2f}s, bound is 5s")
    _verdict(
        "evaluation sweeps are monotone and rank-invariant",
        failures,
        f"40 random instances, {elapsed:.2f}s < 5s",
    )


# ---------------------------------------------------------------------------
# 6. committed synthetic benchmark


def test_synthetic_benchmark_ensemble_ordering():
    t0 = time.perf_counter()
    fused_ge_best = fused_gt_mean = approx_between = 0
    failures = []
    for k in range(10):
        cfg = load_config(
            str(CONFIG),
            [
                f"synthetic.world_seed={1000 + k}",
                f"synthetic.reference.seed={2000 + k}",
                f"synthetic.query.seed={3000 + k}",
            ],
        )
        syn = cfg.synthetic
        world = generate_world(syn.world_seed, syn.n_places, cfg.geometry, syn.segments_per_place)
        res = run_synthetic_experiment(
            world,
            syn.reference,
            syn.query,
            counts=cfg.counts,
            spans_us=cfg.spans_us,
            descriptor=cfg.descriptor,
            metric=cfg.metric,
            rule=cfg.rule,
            grid_dt_us=cfg.grid_dt_us,
            loc_threshold_us=cfg.loc_threshold_us,
            approximate_fraction=cfg.approximate_fraction,
        )
        if len(res.members) != 9:
            failures.append(f"seed {k}: expected 9 members, got {len(res.members)}")
            continue
        best = max(res.member_precisions)
        member_mean = sum(res.member_precisions) / len(res.member_precisions)
        fused = res.fused_eval.precision
        approx = res.approximate_eval.precision
        fused_ge_best += fused >= best
        fused_gt_mean += fused > member_mean
        approx_between += member_mean <= approx <= fused
    elapsed = time.perf_counter() - t0
    if fused_ge_best < 8:
        failures.append(f"fused >= best member in only {fused_ge_best}/10 seeds (need 8)")
    if fused_gt_mean < 10:
        failures.append(f"fused > member mean in only {fused_gt_mean}/10 seeds (need 10)")
    if approx_between < 7:
        failures.append(f"approximate in between in only {approx_between}/10 seeds (need 7)")
    if elapsed >= 120.0:
        failures.append(f"took {elapsed:.1f}s, bound is 120s")
    _verdict(
        "mean-rule ensemble dominates its members on the committed benchmark",
        failures,
        f"fused>=best {fused_ge_best}/10, fused>mean {fused_gt_mean}/10, "
        f"approx between {approx_between}/10, {elapsed:.1f}s < 120s",
    )


# ---------------------------------------------------------------------------
# 7. golden run reproduction


def test_cli_run_reproduces_committed_outputs(tmp_path):
    failures = []
    data = tmp_path / "data"
    run = tmp_path / "run"
    if cli_main(["synth", "--config", str(CONFIG), "-o", str(data)]) != 0:
        failures.append("synth exited non-zero")
    elif (
        cli_main(
            [
                "run",
                "--config", str(CONFIG),
                "--query", str(data / "query_events.csv"),
                "--reference", str(data / "reference_events.csv"),
                "--gt", str(data / "ground_truth.csv"),
                "-o", str(run),
            ]
        )
        != 0
    ):
        failures.append("run exited non-zero")
    else:
        golden = {p.name: p.read_bytes() for p in GOLDEN_RUN.iterdir()}
        fresh = {p.name: p.read_bytes() for p in run.iterdir()}
        if set(golden) != set(fresh):
            failures.append(
                f"file sets differ: missing {sorted(set(golden) - set(fresh))}, "
                f"extra {sorted(set(fresh) - set(golden))}"
            )
        else:
            for name in sorted(golden):
                if golden[name] != fresh[name]:
                    failures.append(f"{name} differs from the committed copy")
    _verdict(
        "CLI run reproduces the committed golden outputs byte for byte",
        failures,
        f"{len(list(GOLDEN_RUN.iterdir()))} files",
    )


# ---------------------------------------------------------------------------
# 8. round-trip I/O on fuzzed valid inputs


def test_round_trip_io_on_fuzzed_inputs():
    rng = np.random.default_rng(7081)
    failures = []

    for i in range(20):
        geometry = SensorGeometry(int(rng.integers(2, 50)), int(rng.integers(2, 40)))
        n = int(rng.integers(1, 400))
        stream = EventStream(
            geometry,
            (int(rng.integers(0, 10**9)) + np.cumsum(rng.integers(0, 1_000, n))).astype(np.int64),
            rng.integers(0, geometry.width, n, dtype=np.int32),
            rng.integers(0, geometry.height, n, dtype=np.int32),
            rng.choice(np.array([-1, 1], dtype=np.int8), size=n),
        )
        back = parse_event_csv(io.BytesIO(write_event_csv(stream)), geometry)
        for field in ("t", "x", "y", "p"):
            if not np.array_equal(getattr(back, field), getattr(stream, field)):
                failures.append(f"event iter {i}: column {field} changed")
                break

    for i in range(15):
        n = int(rng.integers(1, 30))
        dim = int(rng.integers(1, 16))
        seq = DescriptorSequence(
            "external_fuzz",
            np.cumsum(rng.integers(1, 10**6, n)).astype(np.int64),
            rng.standard_normal((n, dim)) * 10.0 ** int(rng.integers(-12, 13)),
        )
        back = load_descriptors(io.BytesIO(write_descriptors(seq)))
        if not (np.array_equal(back.t_us, seq.t_us) and np.array_equal(back.values, seq.values)):
            failures.append(f"descriptor iter {i}: sequence changed")

    for i in range(20):
        n = int(rng.integers(1, 60))
        gt = GroundTruth(
            np.cumsum(rng.uniform(1.0, 3e6, n)),
            rng.uniform(0.0, 8e9, n),
        )
        back = read_ground_truth_csv(io.BytesIO(write_ground_truth_csv(gt)))
        if not (
            np.array_equal(back.query_t_us, gt.query_t_us)
            and np.array_equal(back.ref_t_us, gt.ref_t_us)
        ):
            failures.append(f"ground-truth iter {i}: correspondences changed")

    _verdict(
        "event, descriptor, and ground-truth files round-trip bit-exactly",
        failures,
        "55 fuzzed files",
    )
