"""Command-line interface: stages, manifests, determinism, error paths."""

from __future__ import annotations

import contextlib
import ctypes
import gc
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evplace import cli, events, pipeline
from evplace.cli import main
from evplace.config import PipelineConfig
from evplace.descriptors import DescriptorSequence, load_descriptors, write_descriptors
from evplace.distance import read_matrix_csv
from evplace.ensemble import RuleKind
from evplace.errors import ConfigError
from evplace.events import (
    EventStream,
    SensorGeometry,
    filter_bursts,
    parse_event_csv,
    remove_hot_pixels,
    write_event_csv,
)

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


# ``--set`` overrides beyond ``rule.kind`` that a rule needs on four members.
RULE_EXTRA_SETS = {"weighted": ["--set", "rule.weights=[1.5, 1.0, 0.5, 1.25]"]}


@pytest.fixture(scope="module")
def rule_runs(workspace):
    """``rule_runs(kind)``: the run directory of ``run`` under that rule.

    Each run is made on first use and shared by the module; the workspace
    run is the mean rule's.
    """
    runs = {"mean": workspace["run"]}

    def get(kind: str) -> Path:
        if kind not in runs:
            data = workspace["data"]
            out = workspace["root"] / f"run_{kind}"
            rc = main(
                [
                    "run",
                    "--config", str(workspace["cfg"]),
                    "--set", f"rule.kind={kind}",
                    *RULE_EXTRA_SETS.get(kind, []),
                    "--query", str(data / "query_events.csv"),
                    "--reference", str(data / "reference_events.csv"),
                    "--gt", str(data / "ground_truth.csv"),
                    "-o", str(out),
                ]
            )
            assert rc == 0
            runs[kind] = out
        return runs[kind]

    return get


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


# sha256 of ``synth``'s outputs for ``SENSOR_SYNTH_SETS``, recorded at
# commit ffd07e1, which sorted each traverse as a whole.
SENSOR_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "synthetic-sensor.json"
SENSOR_SYNTH_SETS = [
    "--set", "synthetic.n_places=2",
    "--set", "synthetic.reference.dwell_s=0.3",
    "--set", "synthetic.query.dwell_s=0.3",
]
SENSOR_SYNTH_SHA256 = {
    "reference_events.csv": "0cee8762b19950fcf5ff13931c62572729fab2f2c407260de03224fc53ef73ec",
    "query_events.csv": "981007babd717db3131995ed71d5265493aafd6759100a4deda3624075fd9f98",
    "ground_truth.csv": "8284042787fac6fcb5bbc1c53bf6d20c5614f12f4c91e05c2cfd48e4506dc1f9",
}


def test_synth_at_davis_geometry_writes_the_recorded_bytes(tmp_path):
    out = tmp_path / "out"
    assert main(["synth", "--config", str(SENSOR_CONFIG), *SENSOR_SYNTH_SETS, "-o", str(out)]) == 0
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in SENSOR_SYNTH_SHA256
    }
    assert digests == SENSOR_SYNTH_SHA256


def test_synth_writes_the_reference_before_it_draws_the_query(workspace, tmp_path):
    profile = tmp_path / "profile.json"
    args = ["--profile", str(profile), "synth", "--config", str(workspace["cfg"])]
    assert main([*args, "-o", str(tmp_path / "out")]) == 0
    stages = json.loads(profile.read_text())["stages"]
    assert [(s["stage"], s.get("role")) for s in stages] == [
        ("config", None),
        ("config", None),
        ("generate", "reference"),
        ("write", "reference"),
        ("generate", "query"),
        ("write", "query"),
        ("write", None),
    ]


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


@pytest.mark.parametrize(
    "override, key",
    [
        ("filters.hot_pixels.sigma=NaN", "filters.hot_pixels.sigma"),
        ("geometry.width=32.9", "geometry.width"),
        ('filters.bursts.enabled="no"', "filters.bursts.enabled"),
    ],
)
def test_a_nan_or_wrongly_typed_value_fails_at_config(workspace, tmp_path, capsys, override, key):
    out = tmp_path / "out"
    rc = main(
        [
            "windows",
            "--config", str(workspace["cfg"]),
            "--set", override,
            "--events", str(workspace["data"] / "query_events.csv"),
            "-o", str(out),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("evplace windows: error [config]") and key in err, err
    assert "Traceback" not in err
    assert not out.exists()


# Values the run would misread or could not hold as an int64 or a float: each
# must fail at [config], naming its key, before any input is read.
BIG = 10**23


@pytest.mark.parametrize(
    "command, overrides, key",
    [
        ("windows", ["rule.kind=weighted", 'rule.weights="1234"'], "rule.weights"),
        ("windows", ["rule.kind=weighted", 'rule.weights={"1":0,"2":0,"3":0,"4":0}'],
         "rule.weights"),
        ("windows", ['sweep.values="12"'], "sweep.values"),
        ("windows", ['sweep.values={"0.5":1,"0.7":2}'], "sweep.values"),
        ("windows", ["sweep.values=[true, 2]"], "sweep.values[0]"),
        ("windows", ['sweep.values=["a"]'], "sweep.values[0]"),
        ("windows", ["rule.kind=weighted", 'rule.weights=["a"]'], "rule.weights[0]"),
        ("windows", [f"filters.hot_pixels.sigma={10**400}"], "filters.hot_pixels.sigma"),
        ("describe", ["windows.spans_ms=[1e20]"], "windows.spans_ms"),
        ("windows", ["windows.spans_ms=[1e20]"], "windows.spans_ms"),
        ("run", ["windows.spans_ms=[1e20]"], "windows.spans_ms"),
        ("describe", [f"grid_dt_us={BIG}"], "grid_dt_us"),
        ("filter", ["filters.bursts.enabled=true", f"filters.bursts.bin_us={BIG}"],
         "filters.bursts.bin_us"),
        ("run", ["filters.bursts.enabled=true", f"filters.bursts.bin_us={BIG}"],
         "filters.bursts.bin_us"),
        ("windows", [f"windows.counts=[{BIG}]"], "windows.counts"),
        ("run", [f"loc_threshold_us={BIG}"], "loc_threshold_us"),
        ("run", ["rule.kind=weighted", "rule.weights=[1e400, 1, 1, 1]"], "weights"),
        ("synth", ["synthetic.query.dwell_s=1e400"], "dwell_s"),
    ],
)
def test_a_value_the_run_cannot_hold_fails_at_config(workspace, tmp_path, capsys, command,
                                                     overrides, key):
    data = workspace["data"]
    out = tmp_path / "out"
    args = [command, "--config", str(workspace["cfg"])]
    for override in overrides:
        args += ["--set", override]
    if command == "run":
        args += ["--query", str(data / "query_events.csv")]
        args += ["--reference", str(data / "reference_events.csv")]
        args += ["--gt", str(data / "ground_truth.csv")]
    elif command != "synth":
        args += ["--events", str(data / "query_events.csv")]
    assert main([*args, "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"evplace {command}: error [config] ") and key in err, err
    assert "Traceback" not in err
    assert not out.exists()


def test_synth_with_a_nan_query_rate_fails_before_writing(workspace, tmp_path, capsys):
    out = tmp_path / "out"
    args = ["synth", "--config", str(workspace["cfg"]), "--set", "synthetic.query.noise_rate=NaN"]
    assert main([*args, "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("evplace synth: error [config] noise_rate must be >= 0"), err
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


def test_geometry_beyond_int32_pixel_ids_fails_with_config_tag(workspace, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(
        [
            "windows",
            "--config", str(workspace["cfg"]),
            "--set", "geometry.width=2147483648",
            "--events", str(workspace["data"] / "query_events.csv"),
            "-o", str(out),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("evplace windows: error [config]") and "2147483647" in err, err
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


def _filter_args(workspace, events_path: Path, out: Path) -> list[str]:
    return [
        "filter",
        "--config", str(workspace["cfg"]),
        "--set", "filters.hot_pixels.enabled=true",
        "--set", "filters.bursts.enabled=true",
        "--events", str(events_path),
        "-o", str(out),
    ]


def test_filter_writes_the_event_csv_block_by_block(workspace, tmp_path):
    # filtered.csv is written a block of rows at a time; its bytes are those
    # write_event_csv joins, whatever the block size.
    geom = SensorGeometry(16, 12)
    rng = np.random.default_rng(5)
    n = 1000
    t = np.sort(rng.integers(0, 10**7, size=n))
    x = np.where(np.arange(n) % 3 == 0, 5, rng.integers(0, 16, size=n))  # one hot pixel
    y = np.where(np.arange(n) % 3 == 0, 7, rng.integers(0, 12, size=n))
    stream = EventStream(geom, t, x, y, rng.integers(0, 2, size=n) * 2 - 1)
    expected, flagged = remove_hot_pixels(stream)
    assert flagged == [(5, 7)]
    events_path = tmp_path / "in.csv"
    events_path.write_bytes(write_event_csv(stream))
    out = tmp_path / "out"
    with mock.patch.object(events, "_WRITE_BLOCK_ROWS", 7):
        assert main(_filter_args(workspace, events_path, out)) == 0
    assert (out / "filtered.csv").read_bytes() == write_event_csv(expected)


def test_profile_records_each_stage_outside_the_output(workspace, tmp_path):
    events_path = workspace["data"] / "query_events.csv"
    profile = tmp_path / "profile.json"
    assert main(["--profile", str(profile), *_filter_args(workspace, events_path, tmp_path / "a")]) == 0
    assert main(_filter_args(workspace, events_path, tmp_path / "b")) == 0
    record = json.loads(profile.read_text())
    assert record["command"] == "filter"
    stages = record["stages"]
    assert [s["stage"] for s in stages] == [
        "config", "read-events", "hot-pixels", "bursts", "write", "write"
    ]
    assert all(s["wall_s"] >= 0 and s["minor_faults"] >= 0 for s in stages)
    peaks = [s["peak_rss_mb"] for s in stages]
    assert peaks[0] > 0 and peaks == sorted(peaks)
    # the flag leaves the output directory as it is without it
    for name in ("filtered.csv", "filter_report.json", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert sorted(p.name for p in (tmp_path / "a").iterdir()) == sorted(
        p.name for p in (tmp_path / "b").iterdir()
    )


def test_profile_inside_the_output_fails_with_config_tag(workspace, tmp_path, capsys):
    out = tmp_path / "out"
    args = _filter_args(workspace, workspace["data"] / "query_events.csv", out)
    # a file inside it, the output directory itself, and another directory
    for profile in (out / "profile.json", out, tmp_path):
        assert main(["--profile", str(profile), *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith("evplace filter: error [config]") and "--profile" in err
        assert not out.exists()


def _noisy_stream(geom: SensorGeometry, n: int, seed: int) -> EventStream:
    """``n`` events: a fiftieth of them on each of 4 hot pixels, one 500 us
    bin in which every pixel fires once, and the rest scattered."""
    rng = np.random.default_rng(seed)
    pix = rng.integers(0, geom.n_pixels, size=n - geom.n_pixels)
    hot = rng.choice(geom.n_pixels, size=4, replace=False)
    pix[: 4 * (n // 50)] = np.repeat(hot, n // 50)
    t = rng.integers(0, 10**7, size=pix.size)
    pix = np.r_[pix, np.arange(geom.n_pixels)]
    t = np.r_[t, np.full(geom.n_pixels, 5 * 10**6)]
    order = np.argsort(t, kind="stable")
    pix = pix[order]
    return EventStream(
        geom, t[order], pix % geom.width, pix // geom.width, rng.choice([-1, 1], size=n)
    )


def test_profile_counts_the_events_of_each_filter(workspace, tmp_path):
    events_path = tmp_path / "noisy.csv"
    events_path.write_bytes(write_event_csv(_noisy_stream(SensorGeometry(16, 12), 6000, 3)))
    profile = tmp_path / "profile.json"
    assert main(["--profile", str(profile), *_filter_args(workspace, events_path, tmp_path / "a")]) == 0
    assert main(_filter_args(workspace, events_path, tmp_path / "b")) == 0
    report = json.loads((tmp_path / "a" / "filter_report.json").read_text())
    stages = json.loads(profile.read_text())["stages"]
    counted = {s["stage"]: s for s in stages if "events_in" in s}
    assert list(counted) == ["read-events", "hot-pixels", "bursts"]
    read, hot, bursts = counted.values()
    assert read["events_in"] == read["events_out"] == report["events_in"] == 6000
    assert hot["events_in"] == report["events_in"]
    assert hot["events_out"] == report["events_in"] - report["hot_pixels"]["events_removed"]
    assert hot["flagged"] == len(report["hot_pixels"]["flagged"]) == 4
    assert bursts["events_in"] == hot["events_out"]
    assert bursts["events_out"] == hot["events_out"] - report["bursts"]["events_removed"]
    assert bursts["events_out"] == report["events_out"]
    assert report["bursts"]["events_removed"] > 0
    uncounted = [s for s in stages if s not in counted.values()]
    assert all(set(s) == {"stage", "wall_s", "peak_rss_mb", "minor_faults"} for s in uncounted)
    assert sorted(p.name for p in (tmp_path / "a").iterdir()) == sorted(
        p.name for p in (tmp_path / "b").iterdir()
    )
    for name in ("filtered.csv", "filter_report.json", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def _filter_config(geom: SensorGeometry, hot: bool, sigma: float, bursts: bool,
                   bin_us: int, fraction: float) -> PipelineConfig:
    return PipelineConfig.from_dict({
        "geometry": {"width": geom.width, "height": geom.height},
        "descriptor": {"down_width": 1, "down_height": 1, "patch": 1},
        "filters": {
            "hot_pixels": {"enabled": hot, "sigma": sigma},
            "bursts": {"enabled": bursts, "bin_us": bin_us, "fraction": fraction},
        },
    })


def _public_filters(text: bytes, cfg: PipelineConfig):
    """parse_event_csv, remove_hot_pixels, filter_bursts: the oracle of _read_events."""
    stream = parse_event_csv(text, cfg.geometry)
    report = {"events_in": len(stream)}
    if cfg.hot_pixels_enabled:
        kept, flagged = remove_hot_pixels(stream, cfg.hot_pixels_sigma)
        report["hot_pixels"] = {
            "sigma": cfg.hot_pixels_sigma,
            "flagged": [list(f) for f in flagged],
            "events_removed": len(stream) - len(kept),
        }
        stream = kept
    if cfg.bursts_enabled:
        kept = filter_bursts(stream, cfg.burst_bin_us, cfg.burst_fraction)
        report["bursts"] = {
            "bin_us": cfg.burst_bin_us,
            "fraction": cfg.burst_fraction,
            "events_removed": len(stream) - len(kept),
        }
        stream = kept
    report["events_out"] = len(stream)
    return stream, report


def _assert_read_events_matches_public_filters(stream: EventStream, cfg: PipelineConfig,
                                               chunk: int) -> dict:
    # The public filters run with the default chunk (one chunk for these
    # streams); the in-place path with `chunk`, so bins straddle its edges.
    text = write_event_csv(stream)
    expected, expected_report = _public_filters(text, cfg)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "events.csv"
        path.write_bytes(text)
        with mock.patch.object(events, "_FILTER_CHUNK_EVENTS", chunk):
            got, report = cli._read_events(cli._Outputs(tmp), "events", str(path), cfg)
    assert cli._json_bytes(report) == cli._json_bytes(expected_report)
    assert got.geometry == expected.geometry
    for k in ("t", "pixel", "p", "x", "y"):
        got_a, expected_a = getattr(got, k), getattr(expected, k)
        assert got_a.dtype == expected_a.dtype and np.array_equal(got_a, expected_a), k
        assert not got_a.flags.writeable
    return report


@st.composite
def _filter_cases(draw):
    g = SensorGeometry(draw(st.integers(1, 6)), draw(st.integers(1, 5)))
    n = draw(st.integers(0, 80))
    loud = draw(st.integers(0, g.n_pixels - 1))
    pixel = st.one_of(st.just(loud), st.integers(0, g.n_pixels - 1))
    pix = np.array(draw(st.lists(pixel, min_size=n, max_size=n)), dtype=np.int64)
    t = np.cumsum(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=np.int64)
    p = np.array(draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n)), dtype=np.int64)
    cfg = _filter_config(
        g,
        draw(st.booleans()),
        draw(st.sampled_from([0.5, 1.0, 2.0])),
        draw(st.booleans()),
        draw(st.sampled_from([1, 2, 5, 10])),
        draw(st.sampled_from([0.1, 0.25, 0.5, 1.0])),
    )
    stream = EventStream(g, t, pix % g.width, pix // g.width, p)
    return stream, cfg, draw(st.sampled_from([1, 2, 3, 7]))


@settings(max_examples=200, deadline=None)
@given(_filter_cases())
def test_read_events_filters_in_place_like_the_public_filters(case):
    _assert_read_events_matches_public_filters(*case)


@pytest.mark.parametrize("chunk", [1, 3, events._FILTER_CHUNK_EVENTS])
def test_read_events_in_place_empty_clean_and_all_removed(chunk):
    g = SensorGeometry(4, 3)
    cfg = _filter_config(g, True, 1.0, True, 10, 0.25)
    report = _assert_read_events_matches_public_filters(EventStream.empty(g), cfg, chunk)
    assert report["events_in"] == 0
    # one event per pixel, one bin each: nothing flagged, no burst
    pix = np.arange(g.n_pixels)
    clean = EventStream(g, pix * 10, pix % 4, pix // 4, np.ones(pix.size))
    report = _assert_read_events_matches_public_filters(clean, cfg, chunk)
    assert report["hot_pixels"]["flagged"] == [] and report["events_out"] == g.n_pixels
    # every pixel twice in one bin: all of it is one burst
    pix = np.repeat(pix, 2)
    burst = EventStream(g, np.arange(pix.size) // 5, pix % 4, pix // 4, np.ones(pix.size))
    report = _assert_read_events_matches_public_filters(burst, cfg, chunk)
    assert report["events_in"] == 24 and report["events_out"] == 0


def test_read_events_filters_in_the_stream_and_a_mask(tmp_path):
    # 200 k events on 346x260 with 4 hot pixels and a burst.  Past the
    # parse, filtering holds the 13-byte-per-event stream, a one-byte mask
    # and about 2 MiB that do not grow with the stream (two int64 counts
    # per pixel and one chunk's int64 keys).  Filtering into copies holds
    # the filtered copy besides.
    g = SensorGeometry(346, 260)
    stream = _noisy_stream(g, 200_000, 7)
    path = tmp_path / "events.csv"
    path.write_bytes(write_event_csv(stream))
    cfg = _filter_config(g, True, 5.0, True, 500, 0.25)

    def parse_then_reset_peak(*args):
        parsed = parse_event_csv(*args)
        tracemalloc.reset_peak()
        return parsed

    with mock.patch.object(cli, "parse_event_csv", parse_then_reset_peak):
        tracemalloc.start()
        try:
            _, report = cli._read_events(cli._Outputs(str(tmp_path)), "events", str(path), cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert len(report["hot_pixels"]["flagged"]) >= 4 and report["bursts"]["events_removed"] > 0
    assert peak < 14 * len(stream) + 2.5 * 2**20


@pytest.mark.parametrize("install", [sys.settrace, sys.setprofile], ids=["trace", "profile"])
def test_read_events_filters_in_place_under_a_trace_or_profile_function(install):
    # Debuggers, coverage tools and cProfile install such a function; its
    # extra references made the in-place shrink refuse every column.
    g = SensorGeometry(16, 12)
    cfg = _filter_config(g, True, 5.0, True, 500, 0.25)
    previous = sys.gettrace() if install is sys.settrace else sys.getprofile()
    install(lambda *args: None)
    try:
        report = _assert_read_events_matches_public_filters(
            _noisy_stream(g, 6000, 3), cfg, events._FILTER_CHUNK_EVENTS
        )
    finally:
        install(previous)
    assert report["hot_pixels"]["events_removed"] > 0 and report["bursts"]["events_removed"] > 0


def test_missing_input_file_fails_with_stage_tag(tmp_path, capsys):
    rc = main(["filter", "--events", str(tmp_path / "nope.csv"), "-o", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "[read-events]" in err and "nope.csv" in err
    assert not (tmp_path / "o").exists()  # nothing was written, so no directory


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
@pytest.mark.parametrize(
    "command, stage, source",
    [("filter", "read-events", "query_events.csv"), ("evaluate", "read-inputs", "ground_truth.csv")],
)
def test_a_pipe_input_fails_unread_with_stage_tag(
    workspace, tmp_path, capsys, command, stage, source
):
    head = (workspace["data"] / source).read_bytes()[:4096]  # within a pipe's buffer
    read_fd, write_fd = os.pipe()
    os.write(write_fd, head)
    os.close(write_fd)
    pipe = f"/dev/fd/{read_fd}"
    inputs = {
        "filter": ["--events", pipe],
        "evaluate": ["--matrix", str(workspace["run"] / "dist_mean_of_4.csv"), "--gt", pipe],
    }
    out = tmp_path / "out"
    try:
        args = [command, *inputs[command], "--config", str(workspace["cfg"]), "-o", str(out)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert f"error [{stage}] {pipe} is not seekable" in err and "regular file" in err
        assert not out.exists()
        assert os.read(read_fd, len(head) + 1) == head  # nothing was read from the pipe
    finally:
        os.close(read_fd)


@pytest.mark.parametrize(
    "command, stage, message",
    [
        ("windows", "windowing", "Unable to allocate 1.49 PiB for an array"),
        ("run", "describe", "Unable to allocate 1.49 PiB for an array"),
        ("windows", "windowing", ""),
    ],
)
def test_a_failed_allocation_fails_with_stage_tag(
    workspace, tmp_path, capsys, command, stage, message
):
    # A time span of 2**63 us asks build_window_set (windows) for petabytes of
    # span windows and sample_grid (run's describe) for terabytes of grid
    # points; whether such a request fails at once depends on the host's
    # overcommit policy, so the MemoryError is raised here without the
    # allocation.
    data = workspace["data"]
    out = tmp_path / "out"
    events_path = data / "query_events.csv"
    if command == "windows":
        args = ["windows", "--config", str(workspace["cfg"]), "--events", str(events_path)]
        args += ["-o", str(out)]
    else:
        args = _event_run_args(workspace, events_path, data / "reference_events.csv", out)
    error = MemoryError(message)
    # run samples its grid in the pipeline module, windows builds its windows
    # in the command itself
    with mock.patch.object(cli, "build_window_set", side_effect=error), \
            mock.patch.object(pipeline, "sample_grid", side_effect=error):
        assert main(args) == 1
    err = capsys.readouterr().err
    assert err == f"evplace {command}: error [{stage}] {message or 'MemoryError'}\n", err
    assert "Traceback" not in err and not out.exists()
    _assert_no_child_left()


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


def test_windows_and_describe_apply_the_configured_filters(workspace, tmp_path):
    # The query stream plus 3000 events on pixel (3, 4): with both filters
    # on, windows and describe must see what filter would write.
    query = parse_event_csv((workspace["data"] / "query_events.csv").read_bytes(),
                            SensorGeometry(16, 12))
    extra_t = np.linspace(query.t[0], query.t[-1], 3000).astype(np.int64)
    t = np.concatenate([query.t, extra_t])
    order = np.argsort(t, kind="stable")
    x = np.concatenate([query.x, np.full(3000, 3)])[order]
    y = np.concatenate([query.y, np.full(3000, 4)])[order]
    p = np.concatenate([query.p, np.ones(3000, dtype=np.int8)])[order]
    raw = tmp_path / "raw.csv"
    raw.write_bytes(write_event_csv(EventStream(query.geometry, t[order], x, y, p)))
    filtered = tmp_path / "filtered"
    assert main(_filter_args(workspace, raw, filtered)) == 0
    report = json.loads((filtered / "filter_report.json").read_text())
    assert [3, 4] in report["hot_pixels"]["flagged"]
    assert report["events_out"] < report["events_in"]
    for command in ("windows", "describe"):
        outs = []
        for events_path in (raw, filtered / "filtered.csv"):
            out = tmp_path / f"{command}_{len(outs)}"
            assert main([command, *_filter_args(workspace, events_path, out)[1:]]) == 0
            outs.append({q.name: q.read_bytes() for q in out.iterdir()
                         if q.name != "manifest.json"})
        assert outs[0] and outs[0] == outs[1], command


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


def _digest_entry(path: Path) -> dict:
    return {"file": path.name, "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}


def test_run_and_filter_manifests_digest_event_inputs(workspace, tmp_path):
    # Inputs are hashed a block at a time; the digest is the whole file's.
    data = workspace["data"]
    manifest = json.loads((workspace["run"] / "manifest.json").read_text())
    assert manifest["inputs"]["query"] == _digest_entry(data / "query_events.csv")
    assert manifest["inputs"]["reference"] == _digest_entry(data / "reference_events.csv")
    out = tmp_path / "out"
    events_path = data / "reference_events.csv"
    with mock.patch.object(cli, "_HASH_BLOCK_BYTES", 1000):
        assert main(_filter_args(workspace, events_path, out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["inputs"] == {"events": _digest_entry(events_path)}


def test_ensemble_command_reproduces_run_fusion(workspace, tmp_path):
    run = workspace["run"]
    out = tmp_path / "out"
    members = [str(run / f"dist_{slug}.csv") for slug in FAMILY_SLUGS]
    rc = main(
        ["ensemble", "--config", str(workspace["cfg"]), "--members", *members, "-o", str(out)]
    )
    assert rc == 0
    assert (out / "ensemble.csv").read_bytes() == (run / "dist_mean_of_4.csv").read_bytes()


def test_ensemble_vote_rule_writes_run_distances(workspace, rule_runs, tmp_path):
    run = rule_runs("majority_vote")
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
    fused = (out / "ensemble.csv").read_bytes()
    assert fused == (run / "dist_majority_vote_of_4.csv").read_bytes()
    assert sorted(q.name for q in out.iterdir()) == ["ensemble.csv", "manifest.json"]
    dist = read_matrix_csv(fused, "dist")
    assert np.all((dist.values == 0.0).sum(axis=1) == 1)
    assert np.all((dist.values == 0.0) | (dist.values == 1.0))


@pytest.mark.parametrize("kind", [k.value for k in RuleKind])
def test_evaluate_command_matches_run_outputs(workspace, rule_runs, kind, tmp_path):
    run = rule_runs(kind)
    fused = cli._slug(json.loads((run / "summary.json").read_text())["fused"]["label"])
    assert fused.startswith(f"{kind}_of_")
    out = tmp_path / "out"
    rc = main(
        [
            "evaluate",
            "--config", str(workspace["cfg"]),
            "--matrix", str(run / f"dist_{fused}.csv"),
            "--gt", str(workspace["data"] / "ground_truth.csv"),
            "-o", str(out),
        ]
    )
    assert rc == 0
    assert (out / "eval.csv").read_bytes() == (run / f"eval_{fused}.csv").read_bytes()
    assert (out / "pr.csv").read_bytes() == (run / f"pr_{fused}.csv").read_bytes()


def test_distance_command_runs(workspace, tmp_path):
    # describe -> distance per family -> ensemble -> evaluate reproduces run.
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
    members = []
    for slug in FAMILY_SLUGS:
        out = tmp_path / f"dist_{slug}"
        rc = main(
            [
                "distance",
                "--config", str(workspace["cfg"]),
                "--query", str(qdir / f"descriptors_{slug}.csv"),
                "--reference", str(rdir / f"descriptors_{slug}.csv"),
                "-o", str(out),
            ]
        )
        assert rc == 0
        matrix = read_matrix_csv((out / "distance.csv").read_bytes(), "m")
        assert matrix.values.min() >= 0.0 and matrix.values.max() <= 2.0
        members.append(str(out / "distance.csv"))
    ens = tmp_path / "ens"
    rc = main(
        ["ensemble", "--config", str(workspace["cfg"]), "--members", *members, "-o", str(ens)]
    )
    assert rc == 0
    ev = tmp_path / "eval"
    rc = main(
        [
            "evaluate",
            "--config", str(workspace["cfg"]),
            "--matrix", str(ens / "ensemble.csv"),
            "--gt", str(workspace["data"] / "ground_truth.csv"),
            "-o", str(ev),
        ]
    )
    assert rc == 0
    run = workspace["run"]
    assert (ev / "eval.csv").read_bytes() == (run / "eval_mean_of_4.csv").read_bytes()
    assert (ev / "pr.csv").read_bytes() == (run / "pr_mean_of_4.csv").read_bytes()


@pytest.mark.parametrize("metric", ["sad", "cosine"])
def test_distance_loads_a_zero_descriptor_that_only_cosine_refuses(tmp_path, capsys, metric):
    query, reference = tmp_path / "q.csv", tmp_path / "r.csv"
    query.write_text("1.0,0.0,0.0\n")
    reference.write_text("1.0,1.0,2.0\n")
    out = tmp_path / "out"
    rc = main(["distance", "--set", f"metric={metric}", "--query", str(query),
               "--reference", str(reference), "-o", str(out)])
    err = capsys.readouterr().err
    if metric == "sad":
        assert rc == 0, err
        assert read_matrix_csv((out / "distance.csv").read_bytes()).values.tolist() == [[1.5]]
    else:
        assert rc == 1
        assert err == (
            "evplace distance: error [distance] query external_q: 1 zero-norm descriptor(s), "
            "the first at t=1.0 s, cannot be compared with cosine\n"
        )
        assert not out.exists()


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


def test_bad_sweep_values_fail_before_any_output(workspace, tmp_path, capsys):
    data = workspace["data"]
    for values in ("[]", "[NaN]"):
        out = tmp_path / "out"
        rc = main(
            [
                "run",
                "--config", str(workspace["cfg"]),
                "--set", f"sweep.values={values}",
                "--query", str(data / "query_events.csv"),
                "--reference", str(data / "reference_events.csv"),
                "--gt", str(data / "ground_truth.csv"),
                "-o", str(out),
            ]
        )
        assert rc == 1, values
        err = capsys.readouterr().err
        assert err.startswith("evplace run: error [config] sweep.values must be"), err
        assert not out.exists()


def _assert_config_refusal(capsys, out: Path, command: str, message: str) -> None:
    err = capsys.readouterr().err
    assert err == f"evplace {command}: error [config] {message}\n"
    assert not out.exists()


# The test world has four window families, so four members per run.  Every
# input path below is missing: only a refusal at [config] gets past reading.
@pytest.mark.parametrize(
    "overrides, message",
    [
        (["rule.kind=weighted", "rule.weights=[1,1]"], "2 weights for 4 members"),
        (["rule.kind=trimmed_mean", "rule.trim=2"],
         "trimmed mean with trim=2 needs more than 4 members"),
        (["rule.kind=majority_vote", "windows.counts=[0.3]", "windows.spans_ms=[]"],
         "majority vote needs at least two members"),
    ],
    ids=["weights", "trim", "vote_one_family"],
)
def test_run_refuses_a_rule_that_cannot_fuse_its_families(
    workspace, tmp_path, capsys, overrides, message
):
    out = tmp_path / "out"
    rc = main(
        [
            "run",
            "--config", str(workspace["cfg"]),
            *[arg for override in overrides for arg in ("--set", override)],
            "--query", str(tmp_path / "missing_q.csv"),
            "--reference", str(tmp_path / "missing_r.csv"),
            "--gt", str(tmp_path / "missing_gt.csv"),
            "-o", str(out),
        ]
    )
    assert rc == 1
    _assert_config_refusal(capsys, out, "run", message)


# 0.3 of the test world's 192 pixels is 58 events: a second count_58 family.
@pytest.mark.parametrize("command", ["run", "describe", "windows"])
def test_two_window_families_of_one_label_fail_at_config(workspace, tmp_path, capsys, command):
    out = tmp_path / "out"
    args = [command, "--config", str(workspace["cfg"]), "--set", "windows.counts=[0.3,58]"]
    if command == "run":
        args += ["--query", str(tmp_path / "q.csv"), "--reference", str(tmp_path / "r.csv")]
        args += ["--gt", str(tmp_path / "gt.csv")]
    else:
        args += ["--events", str(tmp_path / "events.csv")]
    assert main([*args, "-o", str(out)]) == 1
    _assert_config_refusal(capsys, out, command, "two ensemble members share the label count_58")


def test_two_descriptor_pairs_of_one_label_fail_at_config(workspace, tmp_path, capsys):
    # each pair's member is labelled from the two files' stems
    out = tmp_path / "out"
    args = ["run", "--config", str(workspace["cfg"]), "--gt", str(tmp_path / "gt.csv")]
    args += ["--query-descriptors", str(tmp_path / "a" / "q.csv"), str(tmp_path / "b" / "q.csv")]
    args += ["--reference-descriptors", str(tmp_path / "a" / "r.csv"), str(tmp_path / "b" / "r.csv")]
    assert main([*args, "-o", str(out)]) == 1
    message = "two ensemble members share the label external_q_vs_external_r"
    _assert_config_refusal(capsys, out, "run", message)


@pytest.mark.parametrize("size", [0, -4])
@pytest.mark.parametrize("command", ["describe", "run"])
def test_a_target_size_below_one_fails_at_config(workspace, tmp_path, capsys, command, size):
    # real inputs: without the config check, 0 ended in a ZeroDivisionError
    out = tmp_path / "out"
    sets = ["--set", f"descriptor.down_width={size}", "--set", f"descriptor.down_height={size}"]
    events = workspace["data"] / "query_events.csv"
    if command == "describe":
        args = ["describe", "--config", str(workspace["cfg"]), *sets, "--events", str(events)]
        args += ["-o", str(out)]
    else:
        reference = workspace["data"] / "reference_events.csv"
        args = _event_run_args(workspace, events, reference, out, *sets)
    assert main(args) == 1
    _assert_config_refusal(capsys, out, command, f"target size {size}x{size} must be positive")


def test_run_refuses_descriptor_files_that_do_not_pair_or_fit(workspace, tmp_path, capsys):
    out = tmp_path / "out"
    missing = [str(tmp_path / f"missing_{i}.csv") for i in range(3)]
    cases = (
        ([], missing[:2], missing[2:], "2 query but 1 reference descriptor files"),
        (["--set", "rule.kind=majority_vote"], missing[:1], missing[1:2],
         "majority vote needs at least two members"),
    )
    for sets, queries, references, message in cases:
        rc = main(
            [
                "run",
                "--config", str(workspace["cfg"]),
                *sets,
                "--query-descriptors", *queries,
                "--reference-descriptors", *references,
                "--gt", str(tmp_path / "missing_gt.csv"),
                "-o", str(out),
            ]
        )
        assert rc == 1, message
        _assert_config_refusal(capsys, out, "run", message)


def test_ensemble_refuses_too_few_members(workspace, tmp_path, capsys):
    out = tmp_path / "out"
    missing = [str(tmp_path / f"missing_{i}.csv") for i in range(2)]
    cases = (
        (["rule.kind=majority_vote"], missing[:1], "majority vote needs at least two members"),
        (["rule.kind=trimmed_mean"], missing, "trimmed mean with trim=1 needs more than 2 members"),
    )
    for overrides, members, message in cases:
        rc = main(
            [
                "ensemble",
                "--config", str(workspace["cfg"]),
                *[arg for override in overrides for arg in ("--set", override)],
                "--members", *members,
                "-o", str(out),
            ]
        )
        assert rc == 1, message
        _assert_config_refusal(capsys, out, "ensemble", message)


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


# ---------------------------------------------------------------------------
# run: the query side in the caller, the reference side in a forked worker


def _event_run_args(workspace, query, reference, out, *sets) -> list[str]:
    return [
        "run",
        "--config", str(workspace["cfg"]),
        *sets,
        "--query", str(query),
        "--reference", str(reference),
        "--gt", str(workspace["data"] / "ground_truth.csv"),
        "-o", str(out),
    ]


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_run_profile_records_name_the_role_of_each_side(workspace, tmp_path):
    data = workspace["data"]
    filters = ["--set", "filters.hot_pixels.enabled=true", "--set", "filters.bursts.enabled=true"]
    profile = tmp_path / "profile.json"
    args_a = _event_run_args(
        workspace, data / "query_events.csv", data / "reference_events.csv", tmp_path / "a", *filters
    )
    assert main(["--profile", str(profile), *args_a]) == 0
    args_b = _event_run_args(
        workspace, data / "query_events.csv", data / "reference_events.csv", tmp_path / "b", *filters
    )
    assert main(args_b) == 0
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    stages = json.loads(profile.read_text())["stages"]
    # The two sides' records interleave; each names its side.
    for role in ("query", "reference"):
        own = [s for s in stages if s.get("role") == role]
        assert [s["stage"] for s in own] == ["read-events", "hot-pixels", "bursts", "describe"]
        read, hot, bursts, _ = own
        assert hot["events_in"] == read["events_out"] and bursts["events_in"] == hot["events_out"]
    assert [s["stage"] for s in stages if "role" not in s] == [
        "config", "config", "read-ground-truth", "pipeline", "write", "write"
    ]
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert set(manifest["inputs"]) == {"ground_truth", "query", "reference"}


def test_repeated_runs_give_the_same_outputs_and_leave_no_thread_or_worker(workspace, tmp_path):
    data = workspace["data"]
    expected = _files(workspace["run"])
    threads = threading.active_count()
    for i in range(3):
        out = tmp_path / f"run{i}"
        args = _event_run_args(
            workspace, data / "query_events.csv", data / "reference_events.csv", out
        )
        assert main(args) == 0
        assert _files(out) == expected
    assert threading.active_count() == threads
    _assert_no_child_left()


@pytest.mark.parametrize(
    "query_ok, reference_ok, named",
    [(False, False, "query"), (True, False, "reference"), (False, True, "query")],
)
def test_run_reports_a_failing_side_as_the_sequential_order_would(
    workspace, tmp_path, capsys, query_ok, reference_ok, named
):
    data = workspace["data"]
    paths = {
        "query": data / "query_events.csv" if query_ok else tmp_path / "absent_query.csv",
        "reference": (
            data / "reference_events.csv" if reference_ok else tmp_path / "absent_reference.csv"
        ),
    }
    other = "reference" if named == "query" else "query"
    out = tmp_path / "out"
    threads = threading.active_count()
    assert main(_event_run_args(workspace, paths["query"], paths["reference"], out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("evplace run: error [read-events]"), err
    assert str(paths[named]) in err and str(paths[other]) not in err
    assert not out.exists()
    assert threading.active_count() == threads
    _assert_no_child_left()


def _assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_query_and_reference_raise_a_query_failure_without_waiting_for_the_worker(tmp_path):
    def sleeping():
        time.sleep(5.0)
        return "r"

    def failing():
        raise ValueError("query")

    start = time.perf_counter()
    with pytest.raises(ValueError, match="query"):
        cli._query_and_reference(cli._Outputs(str(tmp_path)), failing, sleeping)
    assert time.perf_counter() - start < 1.0
    _assert_no_child_left()


def test_query_and_reference_turn_a_sigterm_into_an_exit_that_kills_the_worker(tmp_path, capfd):
    def sleeping():
        time.sleep(5.0)
        return "r"

    def terminated():
        os.kill(os.getpid(), signal.SIGTERM)
        time.sleep(5.0)

    handler = signal.getsignal(signal.SIGTERM)
    start = time.perf_counter()
    with pytest.raises(SystemExit) as info:
        cli._query_and_reference(cli._Outputs(str(tmp_path)), terminated, sleeping)
    assert time.perf_counter() - start < 1.0
    assert info.value.code == 128 + signal.SIGTERM
    assert signal.getsignal(signal.SIGTERM) is handler
    _assert_no_child_left()
    assert "Traceback" not in capfd.readouterr().err


def test_query_and_reference_worker_exits_silently_when_its_caller_is_gone(tmp_path, capfd):
    # Without the kill (a caller that died of SIGKILL cannot kill), the
    # worker finishes its side and finds the result pipe closed.
    def reference():
        time.sleep(0.3)
        return "r"

    def failing():
        raise ValueError("query")

    with mock.patch.object(cli.os, "kill"), pytest.raises(ValueError, match="query"):
        cli._query_and_reference(cli._Outputs(str(tmp_path)), failing, reference)
    _assert_no_child_left()
    assert capfd.readouterr().err == ""


def _fake_libc(calls: list, *symbols: str):
    """A ``ctypes.CDLL`` whose C library has only ``symbols``; each call to
    one of them is appended to ``calls`` as ``(symbol, *args)``."""

    def function(symbol):
        return lambda *args: calls.append((symbol, *args))

    def cdll(name):
        assert name is None
        return SimpleNamespace(**{symbol: function(symbol) for symbol in symbols})

    return cdll


def test_only_the_process_entry_freezes_the_heap(workspace, tmp_path):
    events_csv = workspace["data"] / "query_events.csv"
    args = ["filter", "--config", str(workspace["cfg"]), "--events", str(events_csv)]
    assert main([*args, "-o", str(tmp_path / "out")]) == 0
    assert gc.get_freeze_count() == 0
    try:
        # the fake C library keeps this process's allocator as it is
        with mock.patch.object(cli, "main", return_value=0), \
                mock.patch.object(cli.ctypes, "CDLL", _fake_libc([], "mallopt")):
            assert cli.entry_point() == 0
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()


_ROOT_HANDLERS_AROUND_MAIN = """
import logging, sys
from evplace.cli import main
before = list(logging.getLogger().handlers)
code = main(sys.argv[1:])
sys.exit(code or 3 * (logging.getLogger().handlers != before))
"""


def test_only_the_process_entry_configures_logging(workspace, tmp_path):
    events_csv = workspace["data"] / "query_events.csv"
    args = ["filter", "--config", str(workspace["cfg"]), "--events", str(events_csv)]
    with mock.patch.dict(os.environ, EVPLACE_LOG="info"):
        embedded = _cli_process("-c", _ROOT_HANDLERS_AROUND_MAIN, *args, "-o", str(tmp_path / "a"),
                                stderr=subprocess.PIPE, text=True)
        entry = _cli_process("-m", "evplace.cli", *args, "-o", str(tmp_path / "b"),
                             stderr=subprocess.PIPE, text=True)
        _, embedded_err = embedded.communicate(timeout=60)
        _, entry_err = entry.communicate(timeout=60)
    assert embedded.returncode == 0, embedded_err
    assert "INFO" not in embedded_err
    assert entry.returncode == 0, entry_err
    assert "INFO evplace.cli: stage read-events (events)\n" in entry_err, entry_err


@pytest.mark.parametrize("symbols", [("mallopt",), ()], ids=["glibc", "no-mallopt"])
def test_only_the_process_entry_sets_the_malloc_thresholds(workspace, tmp_path, symbols):
    events_csv = workspace["data"] / "query_events.csv"
    args = ["filter", "--config", str(workspace["cfg"]), "--events", str(events_csv)]
    calls = []
    with mock.patch.object(cli.ctypes, "CDLL", _fake_libc(calls, *symbols)):
        assert main([*args, "-o", str(tmp_path / "out")]) == 0
        assert calls == []
        try:
            with mock.patch.object(cli, "main", side_effect=lambda: calls.append("main") or 0):
                assert cli.entry_point() == 0
        finally:
            gc.unfreeze()
    # glibc's M_MMAP_THRESHOLD is -3 and M_TRIM_THRESHOLD -1
    thresholds = [("mallopt", -3, 1 << 20), ("mallopt", -1, 4 << 20)] if symbols else []
    assert calls == [*thresholds, "main"]


def _cli_process(*args: str, **kwargs) -> subprocess.Popen:
    """A fresh interpreter running ``python *args`` on this package's source."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.Popen([sys.executable, *args], env=env, **kwargs)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the thresholds are glibc's")
def test_process_entry_parses_with_fewer_page_faults_and_the_same_outputs(tmp_path):
    geom = SensorGeometry(346, 260)
    rng = np.random.default_rng(11)
    n = 200_000
    stream = EventStream(
        geom, np.sort(rng.integers(0, 10**7, size=n)), rng.integers(0, geom.width, size=n),
        rng.integers(0, geom.height, size=n), rng.integers(0, 2, size=n) * 2 - 1,
    )
    events_csv = tmp_path / "events.csv"
    events_csv.write_bytes(write_event_csv(stream))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"geometry": {"width": geom.width, "height": geom.height}}))
    entries = {
        "entry": ["-m", "evplace.cli"],
        "main": ["-c", "import sys; from evplace.cli import main; sys.exit(main())"],
    }
    faults = {}
    for name, entry in entries.items():
        profile = tmp_path / f"{name}.json"
        args = ["--profile", str(profile), "filter", "--config", str(cfg),
                "--events", str(events_csv), "-o", str(tmp_path / name)]
        assert _cli_process(*entry, *args).wait(timeout=60) == 0
        stages = json.loads(profile.read_text())["stages"]
        (faults[name],) = [s["minor_faults"] for s in stages if s["stage"] == "read-events"]
    assert faults["entry"] * 2 <= faults["main"], faults
    assert _files(tmp_path / "entry") == _files(tmp_path / "main")


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the thresholds are glibc's")
def test_distance_at_route_scale_maps_one_buffer_not_one_per_row(tmp_path):
    # 400 reference rows of 768 values are 2.4 MB a row temporary, above the
    # 1 MiB mmap threshold fixed at process entry: one fresh temporary per
    # query row took about 480 k faults in this test.
    rng = np.random.default_rng(223)
    paths = {}
    for side in ("query", "reference"):
        seq = DescriptorSequence(side, np.arange(1, 401) * 100_000, rng.random((400, 768)))
        paths[side] = tmp_path / f"{side}.csv"
        paths[side].write_bytes(write_descriptors(seq))
    profile = tmp_path / "distance.json"
    args = ["--profile", str(profile), "distance", "--query", str(paths["query"]),
            "--reference", str(paths["reference"]), "-o", str(tmp_path / "out")]
    assert _cli_process("-m", "evplace.cli", *args).wait(timeout=120) == 0
    stages = json.loads(profile.read_text())["stages"]
    (faults,) = [s["minor_faults"] for s in stages if s["stage"] == "distance"]
    assert faults < 50_000, faults


_SLEEPING_REFERENCE = """
import os, pathlib, sys, time
from evplace import cli
describe = cli._describe_events

def sleeping(out, role, *rest):
    if role == "reference":
        pathlib.Path(sys.argv[1]).write_text(str(os.getpid()))
        time.sleep(30.0)
    return describe(out, role, *rest)

cli._describe_events = sleeping
sys.exit(cli.main(sys.argv[2:]))
"""
_PR_SET_CHILD_SUBREAPER = 36


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="PR_SET_PDEATHSIG is Linux's")
def test_run_worker_dies_with_a_killed_cli(workspace, tmp_path):
    data = workspace["data"]
    started = tmp_path / "worker-pid"
    args = _event_run_args(workspace, data / "query_events.csv", data / "reference_events.csv",
                           tmp_path / "out")
    # The orphaned worker comes to this process, which reaps it at once, and
    # not to an init that may reap it late.
    prctl = cli._libc_function("prctl", ctypes.c_int, ctypes.c_ulong)
    assert prctl(_PR_SET_CHILD_SUBREAPER, 1) == 0
    proc = _cli_process("-c", _SLEEPING_REFERENCE, str(started), *args, start_new_session=True,
                        stdout=subprocess.DEVNULL)
    pgid = proc.pid  # a session leader leads its process group
    try:
        deadline = time.monotonic() + 30.0
        while not started.exists() or not started.read_text():
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        worker = int(started.read_text())
        os.kill(proc.pid, signal.SIGKILL)
        assert proc.wait(timeout=5.0) == -signal.SIGKILL
        deadline = time.monotonic() + 2.0
        while (reaped := os.waitpid(worker, os.WNOHANG))[0] == 0:
            assert time.monotonic() < deadline, "the worker outlived its killed caller"
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(reaped[1]) == -signal.SIGKILL
        with pytest.raises(ProcessLookupError):
            os.killpg(pgid, 0)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(pgid, signal.SIGKILL)
        proc.wait()
        with contextlib.suppress(ChildProcessError):
            while True:
                os.waitpid(-1, 0)  # an orphan the kill above left
        prctl(_PR_SET_CHILD_SUBREAPER, 0)
    _assert_no_child_left()


def test_query_and_reference_bring_back_the_workers_result_records_and_inputs(tmp_path):
    out = cli._Outputs(str(tmp_path / "out"), profile=True)
    out.stages.append({"stage": "config"})
    data = tmp_path / "reference.bin"
    data.write_bytes(b"evplace")

    def reference():
        with cli._stage(out, "describe", "reference"):
            return out.read("reference", str(data), lambda fh: fh.read().decode())

    def query():
        with cli._stage(out, "describe", "query"):
            return "q"

    assert cli._query_and_reference(out, query, reference) == ("q", "evplace")
    assert [(r["stage"], r.get("role")) for r in out.stages] == [
        ("config", None), ("describe", "query"), ("describe", "reference")
    ]
    assert out.inputs == {"reference": _digest_entry(data)}
    _assert_no_child_left()

    def failing():
        with cli._stage(out, "describe", "reference"):
            raise ConfigError("nothing to describe")

    with pytest.raises(cli.StageError, match=r"^\[describe\] nothing to describe$") as info:
        cli._query_and_reference(out, lambda: "q", failing)
    assert info.value.stage == "describe"
    _assert_no_child_left()


def test_run_reports_a_reference_failure_in_a_later_stage(workspace, tmp_path, capsys):
    data = workspace["data"]
    # every event on one pixel: the hot-pixel filter empties this stream
    reference = tmp_path / "one_pixel.csv"
    n = 4000
    stream = EventStream(
        SensorGeometry(16, 12), np.arange(n, dtype=np.int64) * 1000,
        np.full(n, 3, dtype=np.int32), np.full(n, 4, dtype=np.int32), np.ones(n, dtype=np.int8),
    )
    reference.write_bytes(write_event_csv(stream))
    out = tmp_path / "out"
    args = _event_run_args(
        workspace, data / "query_events.csv", reference, out,
        "--set", "filters.hot_pixels.enabled=true",
    )
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err == "evplace run: error [describe] cannot sample an empty stream\n", err
    assert not out.exists()
    _assert_no_child_left()


@pytest.mark.parametrize(
    "death, named",
    [(lambda: os.kill(os.getpid(), signal.SIGKILL), "SIGKILL"), (lambda: os._exit(3), "code 3")],
    ids=["signal", "exit"],
)
def test_run_reports_a_worker_that_dies_without_a_result(workspace, tmp_path, capsys, death, named):
    data = workspace["data"]
    describe = cli._describe_events

    def dying(out, role, *rest):
        if role == "reference":
            death()
        return describe(out, role, *rest)

    out = tmp_path / "out"
    args = _event_run_args(workspace, data / "query_events.csv", data / "reference_events.csv", out)
    with mock.patch.object(cli, "_describe_events", dying):
        assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("evplace run: error [reference] worker process"), err
    assert named in err and "Traceback" not in err
    assert not out.exists()
    _assert_no_child_left()
