"""Command-line interface: stages, manifests, determinism, error paths."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from evplace.cli import main
from evplace.descriptors import load_descriptors
from evplace.distance import read_matrix_csv
from evplace.events import EventStream, SensorGeometry, write_event_csv

CONFIG = {
    "geometry": {"width": 16, "height": 12},
    "filters": {
        "hot_pixels": {"enabled": False},
        "bursts": {"enabled": False},
    },
    "windows": {"counts": [0.3, 0.6], "spans_ms": [400, 700]},
    "descriptor": {"mode": "count", "down_width": 8, "down_height": 6, "patch": 2},
    "grid_dt_us": 500_000,
    "loc_threshold_us": 900_000,
    "sweep": {"points": 20},
    "synthetic": {
        "world_seed": 47,
        "n_places": 4,
        "reference": {"seed": 51, "noise_rate": 4.0},
        "query": {"seed": 53, "noise_rate": 4.0, "dropout": 0.1},
    },
}

FAMILY_SLUGS = ["count_58", "count_115", "span_400000us", "span_700000us"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synthetic dataset plus one full run, shared by the module."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(CONFIG))
    data = root / "data"
    assert main(["synth", "--config", str(cfg_path), "-o", str(data)]) == 0
    run = root / "run"
    rc = main(
        [
            "run",
            "--config", str(cfg_path),
            "--query", str(data / "query_events.csv"),
            "--reference", str(data / "reference_events.csv"),
            "--gt", str(data / "ground_truth.csv"),
            "-o", str(run),
        ]
    )
    assert rc == 0
    return {"root": root, "cfg": cfg_path, "data": data, "run": run}


# ---------------------------------------------------------------------------
# synth


def test_synth_outputs_and_manifest(workspace):
    data = workspace["data"]
    for name in ("reference_events.csv", "query_events.csv", "ground_truth.csv"):
        assert (data / name).stat().st_size > 0
    manifest = json.loads((data / "manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["inputs"] == {}
    assert manifest["outputs"] == sorted(
        ["reference_events.csv", "query_events.csv", "ground_truth.csv"]
    )
    assert manifest["notes"]["places"] == 4
    assert manifest["config"]["synthetic"]["query"]["dropout"] == 0.1


def test_synth_is_deterministic(workspace, tmp_path):
    again = tmp_path / "again"
    assert main(["synth", "--config", str(workspace["cfg"]), "-o", str(again)]) == 0
    for name in ("reference_events.csv", "query_events.csv", "ground_truth.csv"):
        assert (again / name).read_bytes() == (workspace["data"] / name).read_bytes()


def test_synth_without_synthetic_section_fails(tmp_path, capsys):
    rc = main(["synth", "-o", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "[config]" in err and "synthetic" in err


def test_wrongly_typed_override_fails_with_config_tag(workspace, tmp_path, capsys):
    out = tmp_path / "out"
    events = workspace["data"] / "query_events.csv"
    overrides = ("grid_dt_us=[1]", "descriptor.clip=null", "rule.weights=5", "windows.counts=5")
    for override in overrides:
        rc = main(
            [
                "windows",
                "--config", str(workspace["cfg"]),
                "--set", override,
                "--events", str(events),
                "-o", str(out),
            ]
        )
        assert rc == 1, override
        err = capsys.readouterr().err
        assert err.startswith("evplace windows: error [config]") and "wrong type" in err, err
    assert not out.exists()


def test_infinite_override_fails_with_config_tag(workspace, tmp_path, capsys):
    out = tmp_path / "out"
    events = workspace["data"] / "query_events.csv"
    for override in ("grid_dt_us=Infinity", "windows.spans_ms=[1e400]", "windows.spans_ms=[-Infinity]"):
        rc = main(
            [
                "windows",
                "--config", str(workspace["cfg"]),
                "--set", override,
                "--events", str(events),
                "-o", str(out),
            ]
        )
        assert rc == 1, override
        err = capsys.readouterr().err
        assert err.startswith("evplace windows: error [config]") and "Traceback" not in err, err
    assert not out.exists()


def test_set_override_lands_in_manifest(workspace, tmp_path):
    out = tmp_path / "out"
    rc = main(
        [
            "synth",
            "--config", str(workspace["cfg"]),
            "--set", "synthetic.query.dropout=0.3",
            "-o", str(out),
        ]
    )
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["synthetic"]["query"]["dropout"] == 0.3


# ---------------------------------------------------------------------------
# filter


def _write_clean_stream(path: Path) -> EventStream:
    geom = SensorGeometry(16, 12)
    n = geom.n_pixels
    t = np.arange(n, dtype=np.int64) * 1000
    pix = np.arange(n, dtype=np.int64)
    stream = EventStream(
        geom, t, (pix % 16).astype(np.int32), (pix // 16).astype(np.int32),
        np.ones(n, dtype=np.int8),
    )
    path.write_bytes(write_event_csv(stream))
    return stream


def test_filter_passes_clean_input_through(workspace, tmp_path):
    events = tmp_path / "clean.csv"
    _write_clean_stream(events)
    out = tmp_path / "out"
    rc = main(
        [
            "filter",
            "--config", str(workspace["cfg"]),
            "--set", "filters.hot_pixels.enabled=true",
            "--set", "filters.bursts.enabled=true",
            "--events", str(events),
            "-o", str(out),
        ]
    )
    assert rc == 0
    assert (out / "filtered.csv").read_bytes() == events.read_bytes()
    report = json.loads((out / "filter_report.json").read_text())
    assert report["events_in"] == report["events_out"] == 192
    assert report["hot_pixels"]["flagged"] == []
    assert report["bursts"]["events_removed"] == 0


def test_filter_reports_planted_hot_pixel(workspace, tmp_path):
    geom = SensorGeometry(16, 12)
    n = geom.n_pixels
    base_t = np.arange(n, dtype=np.int64) * 1000
    pix = np.arange(n, dtype=np.int64)
    hot_t = 200_000 + np.arange(500, dtype=np.int64)
    t = np.concatenate([base_t, hot_t])
    x = np.concatenate([(pix % 16), np.full(500, 3)]).astype(np.int32)
    y = np.concatenate([(pix // 16), np.full(500, 2)]).astype(np.int32)
    p = np.ones(n + 500, dtype=np.int8)
    order = np.argsort(t, kind="stable")
    stream = EventStream(geom, t[order], x[order], y[order], p[order])
    events = tmp_path / "hot.csv"
    events.write_bytes(write_event_csv(stream))

    out = tmp_path / "out"
    rc = main(
        [
            "filter",
            "--config", str(workspace["cfg"]),
            "--set", "filters.hot_pixels.enabled=true",
            "--events", str(events),
            "-o", str(out),
        ]
    )
    assert rc == 0
    report = json.loads((out / "filter_report.json").read_text())
    assert report["hot_pixels"]["flagged"] == [[3, 2]]
    assert report["hot_pixels"]["events_removed"] == 501
    assert report["events_out"] == 191


def test_missing_input_file_fails_with_stage_tag(tmp_path, capsys):
    rc = main(["filter", "--events", str(tmp_path / "nope.csv"), "-o", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "[read-events]" in err and "nope.csv" in err
    assert not (tmp_path / "o").exists()  # nothing was written, so no directory


def test_output_beneath_a_file_fails_with_write_tag(workspace, tmp_path, capsys):
    events = tmp_path / "clean.csv"
    _write_clean_stream(events)
    blocker = tmp_path / "afile"
    blocker.write_text("not a directory")
    rc = main(
        [
            "filter",
            "--config", str(workspace["cfg"]),
            "--events", str(events),
            "-o", str(blocker / "sub"),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("evplace filter: error [write]"), err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# windows / describe


def test_windows_lists_every_family(workspace, tmp_path):
    out = tmp_path / "out"
    rc = main(
        [
            "windows",
            "--config", str(workspace["cfg"]),
            "--events", str(workspace["data"] / "query_events.csv"),
            "-o", str(out),
        ]
    )
    assert rc == 0
    lines = (out / "windows.csv").read_text().splitlines()
    assert lines[0] == "family,index,start_idx,end_idx,t_start_us,t_end_us,n_events"
    families = {line.split(",")[0] for line in lines[1:]}
    assert families == set(FAMILY_SLUGS)
    count_rows = [l for l in lines[1:] if l.startswith("count_58,")]
    assert all(row.split(",")[-1] == "58" for row in count_rows)


def test_describe_writes_one_sequence_per_family(workspace, tmp_path):
    out = tmp_path / "out"
    rc = main(
        [
            "describe",
            "--config", str(workspace["cfg"]),
            "--events", str(workspace["data"] / "query_events.csv"),
            "-o", str(out),
        ]
    )
    assert rc == 0
    lengths = set()
    for slug in FAMILY_SLUGS:
        seq = load_descriptors((out / f"descriptors_{slug}.csv").read_bytes(), slug)
        assert seq.values.shape[1] == 48  # 8x6 downsample
        assert np.all(np.diff(seq.t_us) > 0)
        lengths.add(len(seq))
    assert len(lengths) == 1  # every family describes the same sample grid


# ---------------------------------------------------------------------------
# distance / ensemble / evaluate agree with run


def test_run_outputs_complete(workspace):
    run = workspace["run"]
    expected = {"manifest.json", "summary.json", "pr_mean_of_4.csv"}
    for slug in FAMILY_SLUGS + ["mean_of_4", "approx_mean_of_4"]:
        expected |= {f"dist_{slug}.csv", f"eval_{slug}.csv"}
    assert {p.name for p in run.iterdir()} == expected


def test_run_summary_consistent(workspace, capsys):
    summary = json.loads((workspace["run"] / "summary.json").read_text())
    assert [m["label"] for m in summary["members"]] == FAMILY_SLUGS
    assert summary["fused"]["label"] == "mean_of_4"
    assert summary["approximate"]["label"] == "approx_mean_of_4"
    assert summary["loc_threshold_us"] == 900_000
    for entry in summary["members"] + [summary["fused"], summary["approximate"]]:
        assert 0.0 <= entry["precision"] <= 1.0
        assert entry["tp"] + entry["fp"] == entry["total_queries"]


def test_run_manifest_digests_inputs(workspace):
    manifest = json.loads((workspace["run"] / "manifest.json").read_text())
    assert manifest["command"] == "run"
    assert set(manifest["inputs"]) == {"ground_truth", "query", "reference"}
    gt_path = workspace["data"] / "ground_truth.csv"
    digest = hashlib.sha256(gt_path.read_bytes()).hexdigest()
    assert manifest["inputs"]["ground_truth"]["sha256"] == digest
    listed = set(manifest["outputs"])
    on_disk = {p.name for p in workspace["run"].iterdir()} - {"manifest.json"}
    assert listed == on_disk


def test_ensemble_command_reproduces_run_fusion(workspace, tmp_path):
    run = workspace["run"]
    out = tmp_path / "out"
    members = [str(run / f"dist_{slug}.csv") for slug in FAMILY_SLUGS]
    rc = main(
        ["ensemble", "--config", str(workspace["cfg"]), "--members", *members, "-o", str(out)]
    )
    assert rc == 0
    assert (out / "ensemble.csv").read_bytes() == (run / "dist_mean_of_4.csv").read_bytes()


def test_ensemble_vote_rule_writes_both_matrices(workspace, tmp_path):
    run = workspace["run"]
    out = tmp_path / "out"
    members = [str(run / f"dist_{slug}.csv") for slug in FAMILY_SLUGS]
    rc = main(
        [
            "ensemble",
            "--config", str(workspace["cfg"]),
            "--set", "rule.kind=majority_vote",
            "--members", *members,
            "-o", str(out),
        ]
    )
    assert rc == 0
    votes = read_matrix_csv((out / "ensemble.csv").read_bytes(), "votes")
    dist = read_matrix_csv((out / "ensemble_distances.csv").read_bytes(), "dist")
    np.testing.assert_array_equal(dist.values, 1.0 - votes.values)
    assert np.all(votes.values.sum(axis=1) == 1.0)


def test_evaluate_command_matches_run_outputs(workspace, tmp_path):
    run = workspace["run"]
    out = tmp_path / "out"
    rc = main(
        [
            "evaluate",
            "--config", str(workspace["cfg"]),
            "--matrix", str(run / "dist_mean_of_4.csv"),
            "--gt", str(workspace["data"] / "ground_truth.csv"),
            "-o", str(out),
        ]
    )
    assert rc == 0
    assert (out / "eval.csv").read_bytes() == (run / "eval_mean_of_4.csv").read_bytes()
    assert (out / "pr.csv").read_bytes() == (run / "pr_mean_of_4.csv").read_bytes()


def test_distance_command_runs(workspace, tmp_path):
    qdir = tmp_path / "q"
    rdir = tmp_path / "r"
    for events, out in (("query_events.csv", qdir), ("reference_events.csv", rdir)):
        rc = main(
            [
                "describe",
                "--config", str(workspace["cfg"]),
                "--events", str(workspace["data"] / events),
                "-o", str(out),
            ]
        )
        assert rc == 0
    out = tmp_path / "dist"
    rc = main(
        [
            "distance",
            "--config", str(workspace["cfg"]),
            "--query", str(qdir / "descriptors_count_58.csv"),
            "--reference", str(rdir / "descriptors_count_58.csv"),
            "-o", str(out),
        ]
    )
    assert rc == 0
    matrix = read_matrix_csv((out / "distance.csv").read_bytes(), "m")
    assert matrix.values.min() >= 0.0 and matrix.values.max() <= 2.0


# ---------------------------------------------------------------------------
# run argument and config validation


def test_run_rejects_mixed_input_modes(workspace, tmp_path, capsys):
    data = workspace["data"]
    rc = main(
        [
            "run",
            "--query", str(data / "query_events.csv"),
            "--query-descriptors", "whatever.csv",
            "--gt", str(data / "ground_truth.csv"),
            "-o", str(tmp_path / "out"),
        ]
    )
    assert rc == 1
    assert "[config]" in capsys.readouterr().err


def test_run_requires_reference_with_query(workspace, tmp_path, capsys):
    rc = main(
        [
            "run",
            "--query", str(workspace["data"] / "query_events.csv"),
            "--gt", str(workspace["data"] / "ground_truth.csv"),
            "-o", str(tmp_path / "out"),
        ]
    )
    assert rc == 1
    assert "--reference" in capsys.readouterr().err


def test_empty_window_grids_fail_before_any_processing(workspace, tmp_path, capsys):
    out = tmp_path / "out"
    data = workspace["data"]
    cases = (
        ["windows.counts=[]", "windows.spans_ms=[]"],
        ["windows.spans_ms=[0.0001]"],  # rounds to a 0 us span
    )
    for overrides in cases:
        rc = main(
            [
                "run",
                "--config", str(workspace["cfg"]),
                *[arg for override in overrides for arg in ("--set", override)],
                "--query", str(data / "query_events.csv"),
                "--reference", str(data / "reference_events.csv"),
                "--gt", str(data / "ground_truth.csv"),
                "-o", str(out),
            ]
        )
        assert rc == 1, overrides
        assert "[config]" in capsys.readouterr().err
        assert not out.exists()  # validation failed before the output dir was made


def test_run_prints_fused_precision(workspace, tmp_path, capsys):
    # descriptor-mode run over the member descriptor files of both sides
    qdir = tmp_path / "q"
    rdir = tmp_path / "r"
    for events, out in (("query_events.csv", qdir), ("reference_events.csv", rdir)):
        main(
            [
                "describe",
                "--config", str(workspace["cfg"]),
                "--events", str(workspace["data"] / events),
                "-o", str(out),
            ]
        )
    capsys.readouterr()
    out = tmp_path / "out"
    rc = main(
        [
            "run",
            "--config", str(workspace["cfg"]),
            "--set", "approximate.enabled=false",
            "--query-descriptors",
            *[str(qdir / f"descriptors_{s}.csv") for s in FAMILY_SLUGS],
            "--reference-descriptors",
            *[str(rdir / f"descriptors_{s}.csv") for s in FAMILY_SLUGS],
            "--gt", str(workspace["data"] / "ground_truth.csv"),
            "-o", str(out),
        ]
    )
    assert rc == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("fused mean_of_4: precision ")
    summary = json.loads((out / "summary.json").read_text())
    assert summary["approximate"] is None
