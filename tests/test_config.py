"""Config loading, defaults, overrides, and validation."""

from __future__ import annotations

import importlib
import json
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evplace.config import _STAND_INS, DEFAULTS, PipelineConfig, load_config
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
    "overrides, message",
    [
        (["filters.hot_pixels.sigma=NaN"], "filters.hot_pixels.sigma must be positive"),
        (["descriptor.clip=NaN"], "clip must be positive"),
        (["rule.kind=weighted", "rule.weights=[1, NaN]"], "weights must be positive"),
        (["windows.spans_ms=[44, NaN]"], "spans_ms entry nan must be at least 0.001"),
        (["synthetic.reference.dwell_s=NaN"], "dwell_s must be positive"),
        (["synthetic.query.rate_scale=NaN"], "rate_scale must be positive"),
        (["synthetic.query.noise_rate=NaN"], "noise_rate must be >= 0"),
    ],
)
def test_nan_fails_every_must_be_positive_check(overrides, message):
    with pytest.raises(ConfigError, match=message):
        load_config(str(CONFIGS / "synthetic-default.json"), overrides)


@pytest.mark.parametrize(
    "override, needs",
    [
        ("geometry.width=32.9", "an integer"),
        ("geometry.height=true", "an integer"),
        ('loc_threshold_us="900000"', "an integer"),
        ("grid_dt_us=1e6", "an integer"),
        ('filters.hot_pixels.enabled="false"', "a boolean"),
        ("filters.bursts.enabled=1", "a boolean"),
        ("descriptor.clip=true", "a number"),
        ("descriptor.mode=3", "a string"),
        ("windows.counts=0.5", "a list"),
        ("filters=[]", "an object"),
        ("synthetic.n_places=10.0", "an integer"),
        ("synthetic.query.seed=true", "an integer"),
        ('synthetic.reference.dwell_s="1"', "a number"),
    ],
)
def test_a_value_of_the_wrong_json_type_is_refused_naming_its_key(override, needs):
    key = override.split("=")[0]
    with pytest.raises(ConfigError, match=f"config key '{key}' has the wrong type: needs {needs}"):
        load_config(str(CONFIGS / "synthetic-default.json"), [override])


def test_a_float_key_takes_any_number():
    cfg = load_config(
        str(CONFIGS / "synthetic-default.json"),
        ["descriptor.clip=2", "filters.hot_pixels.sigma=4", "synthetic.query.dwell_s=1"],
    )
    assert (cfg.descriptor.clip, cfg.hot_pixels_sigma, cfg.synthetic.query.dwell_s) == (2.0, 4.0, 1)


def test_every_committed_and_benchmark_config_loads(monkeypatch):
    for path in sorted(CONFIGS.glob("*.json")):
        load_config(str(path))
    monkeypatch.syspath_prepend(str(CONFIGS.parent / "perfbench"))
    workloads = importlib.import_module("workloads")
    for raw in (workloads.SENSOR_CONFIG, workloads.ROUTE_CONFIG):
        PipelineConfig.from_dict(json.loads(json.dumps(raw)))


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


@pytest.mark.parametrize(
    "overrides, key",
    [
        (["rule.kind=weighted", 'rule.weights="123456789"'], "rule.weights"),
        (["rule.kind=weighted", 'rule.weights={"1": 0, "2": 0}'], "rule.weights"),
        (["rule.kind=weighted", 'rule.weights=["a"]'], "rule.weights[0]"),
        (['sweep.values="12"'], "sweep.values"),
        (['sweep.values={"0.5": 1, "0.7": 2}'], "sweep.values"),
        (["sweep.values=[true, 2]"], "sweep.values[0]"),
        (['sweep.values=["a"]'], "sweep.values[0]"),
        (['windows.counts=[0.5, "2"]'], "windows.counts[1]"),
        (["windows.spans_ms=[44, null]"], "windows.spans_ms[1]"),
        (["synthetic=[]"], "synthetic"),
        (['synthetic.query={"seed": 1, "dwell_s": null}'], "synthetic.query.dwell_s"),
    ],
)
def test_null_default_keys_and_list_entries_are_typed(overrides, key):
    # a string or object is never read as a list of numbers, nor a boolean as a number
    with pytest.raises(ConfigError, match=f"^config key '{re.escape(key)}' has the wrong type"):
        load_config(str(CONFIGS / "synthetic-default.json"), overrides)


def test_a_null_default_takes_null_and_a_resolved_config_loads_as_itself():
    cfg = PipelineConfig.from_dict({"rule": {"weights": None}, "sweep": {"values": None}})
    assert (cfg.rule.weights, cfg.sweep_values, cfg.synthetic) == (None, None, None)
    raw = json.loads((CONFIGS / "synthetic-default.json").read_text())
    for resolved in (cfg.resolved, load_config(str(CONFIGS / "synthetic-default.json")).resolved):
        assert PipelineConfig.from_dict(resolved).resolved == resolved
    # the synthetic stand-ins type the section but fill in none of its keys
    assert resolved["synthetic"] == raw["synthetic"]


@pytest.mark.parametrize(
    "override, refused",
    [
        (f"grid_dt_us={2**63}", "grid_dt_us must be from 1 to 2**63 - 1"),
        (f"loc_threshold_us={2**63}", "loc_threshold_us must be from 1 to 2**63 - 1"),
        (f"filters.bursts.bin_us={2**63}", "filters.bursts.bin_us must be from 1 to 2**63 - 1"),
        (f"windows.counts=[{2**63}]",
         f"windows.counts entry {2**63} must be a fraction in (0, 1] or a count from 1 to 2**63 - 1"),
        (f"windows.spans_ms=[{2**63 // 1000 + 1}]",
         f"windows.spans_ms entry {2**63 // 1000 + 1} must be at least 0.001 ms (1 us) and below 2**63 us"),
        ("windows.spans_ms=[1e20]",
         "windows.spans_ms entry 1e+20 must be at least 0.001 ms (1 us) and below 2**63 us"),
    ],
)
def test_an_integer_the_run_holds_as_an_int64_must_fit_one(override, refused):
    with pytest.raises(ConfigError, match=f"^{re.escape(refused)}$"):
        PipelineConfig.from_dict(None, [override])


def test_int64_keys_take_the_int64_maximum_and_seeds_any_size():
    top = 2**63 - 1
    cfg = load_config(
        str(CONFIGS / "synthetic-default.json"),
        [
            f"grid_dt_us={top}", f"loc_threshold_us={top}", f"filters.bursts.bin_us={top}",
            f"windows.counts=[{top}]", f"windows.spans_ms=[{top // 1000}]",
            f"synthetic.world_seed={10**26}", f"synthetic.query.seed={10**26}",
            f"filters.hot_pixels.sigma={2**1024 - 2**970 - 1}",
        ],
    )
    assert (cfg.grid_dt_us, cfg.loc_threshold_us, cfg.burst_bin_us) == (top, top, top)
    assert (cfg.counts, cfg.spans_us) == ((top,), (top // 1000 * 1000,))
    assert (cfg.synthetic.world_seed, cfg.synthetic.query.seed) == (10**26, 10**26)
    assert cfg.hot_pixels_sigma == sys.float_info.max


@pytest.mark.parametrize(
    "override, key",
    [
        (f"filters.hot_pixels.sigma={10**400}", "filters.hot_pixels.sigma"),
        (f"descriptor.clip=-{2**1024 - 2**970}", "descriptor.clip"),
        (f"windows.spans_ms=[{10**400}]", "windows.spans_ms[0]"),
        (f"synthetic.query.dwell_s={10**400}", "synthetic.query.dwell_s"),
    ],
)
def test_an_integer_too_large_for_a_float_is_refused_naming_its_key(override, key):
    with pytest.raises(ConfigError, match=f"^config key '{re.escape(key)}' is an integer too large"):
        load_config(str(CONFIGS / "synthetic-default.json"), [override])


def test_an_integer_of_too_many_digits_is_refused_naming_its_key(tmp_path):
    # json refuses to parse it, so the override is its text: a string
    with pytest.raises(ConfigError, match="^config key 'grid_dt_us' has the wrong type"):
        PipelineConfig.from_dict(None, ["grid_dt_us=" + "1" * 5000])
    path = tmp_path / "cfg.json"
    path.write_text('{"grid_dt_us": ' + "1" * 5000 + "}")
    with pytest.raises(ConfigError, match="is not valid JSON"):
        load_config(str(path))


@pytest.mark.parametrize(
    "override, key",
    [("descriptor.mode=velocity", "descriptor.mode"), ("metric=euclidean", "metric"),
     ("rule.kind=plurality", "rule.kind")],
)
def test_an_unknown_name_is_refused_naming_its_key(override, key):
    value = override.split("=")[1]
    with pytest.raises(ConfigError, match=f"^{key} must be one of .*, not '{value}'$"):
        PipelineConfig.from_dict(None, [override])


def _key_paths(tree: dict, prefix: tuple = ()):
    for key, value in tree.items():
        yield (*prefix, key)
        if isinstance(value, dict):
            yield from _key_paths(value, (*prefix, key))


KEY_PATHS = sorted({*_key_paths(DEFAULTS), *_key_paths({"synthetic": _STAND_INS["synthetic"]})})
KEY_NAMES = sorted({path[-1] for path in KEY_PATHS})
EDGE_NUMBERS = [
    2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 10**400, -(10**400),
    1e308, -1e308, float("nan"), float("inf"), float("-inf"), 0, 0.0, 1, -1, 0.5,
]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats()
    | st.sampled_from(EDGE_NUMBERS) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEY_NAMES) | st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=500, deadline=None)
@given(path=st.sampled_from(KEY_PATHS), value=JSON_VALUES, weighted=st.booleans())
def test_any_json_value_under_any_key_loads_or_is_a_config_error(path, value, weighted):
    raw = json.loads((CONFIGS / "synthetic-default.json").read_text())
    if weighted:
        raw["rule"] = {"kind": "weighted", "weights": [1.0] * 9}
    node = raw
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value
    try:
        PipelineConfig.from_dict(raw)
    except ConfigError:
        pass
