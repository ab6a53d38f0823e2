"""Config loading, defaults, overrides, and validation."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from evplace.config import DEFAULTS, PipelineConfig, load_config
from evplace.descriptors import AccumulationMode
from evplace.distance import Metric
from evplace.ensemble import RuleKind
from evplace.errors import ConfigError

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_defaults_alone_are_valid():
    cfg = PipelineConfig.from_dict()
    assert cfg.geometry.width == 346 and cfg.geometry.height == 260
    assert cfg.counts == (0.1, 0.3, 0.6, 0.8)
    assert cfg.spans_us == (44_000, 66_000, 88_000, 120_000, 140_000)
    assert cfg.descriptor.mode is AccumulationMode.SIGNED_SUM
    assert cfg.metric is Metric.COSINE
    assert cfg.rule.kind is RuleKind.MEAN
    assert cfg.approximate_fraction == 0.5
    assert cfg.grid_dt_us == 1_000_000
    assert cfg.loc_threshold_us == 5_000_000
    assert cfg.synthetic is None
    assert cfg.resolved["windows"]["counts"] == [0.1, 0.3, 0.6, 0.8]


def test_defaults_dict_is_not_mutated():
    before = json.dumps(DEFAULTS, sort_keys=True)
    PipelineConfig.from_dict({"metric": "sad"}, overrides=["grid_dt_us=5"])
    assert json.dumps(DEFAULTS, sort_keys=True) == before


def test_partial_file_merges_over_defaults():
    cfg = PipelineConfig.from_dict({"windows": {"counts": [0.5]}})
    assert cfg.counts == (0.5,)
    assert cfg.spans_us == (44_000, 66_000, 88_000, 120_000, 140_000)


def test_unknown_key_reports_dotted_path():
    with pytest.raises(ConfigError) as err:
        PipelineConfig.from_dict({"filters": {"hot_pixels": {"sgima": 3.0}}})
    assert "filters.hot_pixels.sgima" in str(err.value)


def test_spans_ms_converted_to_us():
    cfg = PipelineConfig.from_dict({"windows": {"spans_ms": [0.5, 44]}})
    assert cfg.spans_us == (500, 44_000)


def test_override_parses_json_values():
    cfg = PipelineConfig.from_dict(
        overrides=[
            "windows.counts=[0.2, 0.9]",
            "approximate.enabled=false",
            "rule.kind=median",
        ]
    )
    assert cfg.counts == (0.2, 0.9)
    assert cfg.approximate_fraction is None
    assert cfg.rule.kind is RuleKind.MEDIAN


def test_override_falls_back_to_string():
    cfg = PipelineConfig.from_dict(overrides=["metric=sad"])
    assert cfg.metric is Metric.SAD


def test_override_wins_over_file():
    cfg = PipelineConfig.from_dict(
        {"grid_dt_us": 250_000}, overrides=["grid_dt_us=750000"]
    )
    assert cfg.grid_dt_us == 750_000


def test_override_requires_key_value_shape():
    with pytest.raises(ConfigError):
        PipelineConfig.from_dict(overrides=["grid_dt_us"])
    with pytest.raises(ConfigError):
        PipelineConfig.from_dict(overrides=["=5"])


def test_override_with_unknown_key_is_rejected():
    with pytest.raises(ConfigError):
        PipelineConfig.from_dict(overrides=["windows.count=[1]"])


def test_validation_catches_bad_values():
    bad_cases = [
        {"filters": {"hot_pixels": {"sigma": 0.0}}},
        {"filters": {"bursts": {"fraction": 0.0}}},
        {"windows": {"counts": [], "spans_ms": []}},
        {"windows": {"counts": [0.0]}},
        {"windows": {"counts": [True]}},
        {"windows": {"counts": [-3]}},
        {"windows": {"spans_ms": [-1]}},
        {"windows": {"spans_ms": [0.0001]}},  # rounds to a 0 us span
        {"descriptor": {"mode": "velocity"}},
        {"descriptor": {"down_width": 400}},
        {"metric": "euclidean"},
        {"rule": {"kind": "plurality"}},
        {"approximate": {"fraction": 0.0}},
        {"grid_dt_us": 0},
        {"loc_threshold_us": 0},
        {"sweep": {"points": 0}},
        {"sweep": {"values": [0.5, 0.2]}},
        # values of the wrong JSON type
        {"grid_dt_us": [1]},
        {"descriptor": {"clip": None}},
        {"rule": {"weights": 5}},
        {"windows": {"counts": 5}},
        # infinite numbers where an integer belongs (JSON Infinity, 1e400)
        {"grid_dt_us": float("inf")},
        {"windows": {"spans_ms": [float("inf")]}},
        {"windows": {"spans_ms": [1e400]}},
        {"filters": {"bursts": {"bin_us": float("-inf")}}},
        {"geometry": {"width": float("inf")}},
    ]
    for raw in bad_cases:
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict(raw)


@pytest.mark.parametrize(
    "values", [[], [float("nan")], [0.1, float("nan")], [float("inf")], [float("-inf"), 0.5]]
)
def test_sweep_values_must_be_non_empty_and_finite(values):
    with pytest.raises(ConfigError, match="sweep.values must be a non-empty list of finite"):
        PipelineConfig.from_dict({"sweep": {"values": values}})
    with pytest.raises(ConfigError, match="sweep.values must be a non-empty list of finite"):
        PipelineConfig.from_dict(None, [f"sweep.values={json.dumps(values)}"])


def test_sweep_values_accepts_a_finite_ascending_list():
    cfg = PipelineConfig.from_dict({"sweep": {"values": [0, 0.5, 0.5, 2]}})
    assert cfg.sweep_values == (0.0, 0.5, 0.5, 2.0)


def test_integer_counts_pass_through_unscaled():
    cfg = PipelineConfig.from_dict({"windows": {"counts": [500, 0.25]}})
    assert cfg.counts == (500, 0.25)


def test_weighted_rule_from_config():
    cfg = PipelineConfig.from_dict(
        {"rule": {"kind": "weighted", "weights": [0.5, 1.5]}}
    )
    assert cfg.rule.kind is RuleKind.WEIGHTED
    assert cfg.rule.weights == (0.5, 1.5)


def test_synthetic_section_round_trip():
    raw = {
        "synthetic": {
            "world_seed": 9,
            "n_places": 12,
            "reference": {"seed": 1, "noise_rate": 2.0},
            "query": {"seed": 2, "dropout": 0.1},
        }
    }
    cfg = PipelineConfig.from_dict(raw)
    assert cfg.synthetic.world_seed == 9
    assert cfg.synthetic.n_places == 12
    assert cfg.synthetic.segments_per_place == 4
    assert cfg.synthetic.reference.noise_rate == 2.0
    assert cfg.synthetic.query.dropout == 0.1
    assert cfg.synthetic.query.dwell_s == 1.0


def test_synthetic_section_validation():
    with pytest.raises(ConfigError):
        PipelineConfig.from_dict({"synthetic": {"world_seed": 1, "n_places": 3}})
    with pytest.raises(ConfigError):
        PipelineConfig.from_dict(
            {
                "synthetic": {
                    "world_seed": 1,
                    "n_places": 3,
                    "reference": {"seed": 1},
                    "query": {"seed": 2, "velocity": 3},
                }
            }
        )
    with pytest.raises(ConfigError):
        PipelineConfig.from_dict(
            {
                "synthetic": {
                    "world_seed": 1,
                    "n_places": 3,
                    "rainfall": 2,
                    "reference": {"seed": 1},
                    "query": {"seed": 2},
                }
            }
        )


def test_load_config_reads_file_and_applies_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"metric": "sad", "grid_dt_us": 100}))
    cfg = load_config(str(path), overrides=["grid_dt_us=200"])
    assert cfg.metric is Metric.SAD
    assert cfg.grid_dt_us == 200


def test_full_sensor_config_loads():
    # The full-sensor traverse: DAVIS geometry with the sensor workload's run
    # settings (both filters on, 32x24 count descriptors).
    cfg = load_config(str(CONFIGS / "synthetic-sensor.json"))
    assert (cfg.geometry.width, cfg.geometry.height) == (346, 260)
    assert cfg.hot_pixels_enabled and cfg.hot_pixels_sigma == 5.0
    assert cfg.bursts_enabled and (cfg.burst_bin_us, cfg.burst_fraction) == (500, 0.25)
    assert cfg.descriptor.mode is AccumulationMode.COUNT
    d = cfg.descriptor
    assert (d.down_width, d.down_height, d.patch) == (32, 24, 8)
    assert (cfg.grid_dt_us, cfg.loc_threshold_us) == (250_000, 900_000)
    s = cfg.synthetic
    assert (s.world_seed, s.n_places, s.reference.seed, s.query.seed) == (1, 30, 2, 3)
    assert (s.reference.noise_rate, s.reference.rate_scale) == (3.0, 1.0)
    assert (s.query.rate_scale, s.query.noise_rate, s.query.dropout) == (0.7, 10.0, 0.4)


def test_load_config_rejects_invalid_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_load_config_without_file_gives_defaults():
    cfg = load_config(None)
    assert cfg.resolved == PipelineConfig.from_dict().resolved


def test_resolved_reflects_overrides():
    cfg = PipelineConfig.from_dict(overrides=["loc_threshold_us=123456"])
    assert cfg.resolved["loc_threshold_us"] == 123456
