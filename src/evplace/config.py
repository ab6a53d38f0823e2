"""Pipeline configuration: JSON file, defaults, and flag overrides.

A config is one JSON object.  Every key has a default, unknown keys are
rejected, and values are validated by constructing the corresponding
domain objects before any data is touched.  Command-line ``--set
a.b.c=value`` overrides are applied on top of the file, flags winning.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from typing import Any

from .descriptors import (
    DEFAULT_CLIP,
    DEFAULT_DOWN_HEIGHT,
    DEFAULT_DOWN_WIDTH,
    DEFAULT_PATCH,
    AccumulationMode,
    DescriptorParams,
)
from .distance import Metric
from .ensemble import DEFAULT_TRIM, EnsembleRule, RuleKind
from .errors import ConfigError
from .evaluation import DEFAULT_LOC_THRESHOLD_US, DEFAULT_SWEEP_POINTS
from .events import (
    DEFAULT_BURST_BIN_US,
    DEFAULT_BURST_FRACTION,
    DEFAULT_HOT_PIXEL_SIGMA,
    SensorGeometry,
)
from .synthetic import DEFAULT_SEGMENTS_PER_PLACE, TraverseParams
from .windowing import (
    DEFAULT_APPROX_FRACTION,
    DEFAULT_COUNT_FRACTIONS,
    DEFAULT_GRID_DT_US,
    DEFAULT_SPANS_US,
)

DEFAULTS: dict[str, Any] = {
    "geometry": {"width": 346, "height": 260},
    "filters": {
        "hot_pixels": {"enabled": True, "sigma": DEFAULT_HOT_PIXEL_SIGMA},
        "bursts": {
            "enabled": True,
            "bin_us": DEFAULT_BURST_BIN_US,
            "fraction": DEFAULT_BURST_FRACTION,
        },
    },
    "windows": {
        "counts": list(DEFAULT_COUNT_FRACTIONS),
        "spans_ms": [s // 1000 for s in DEFAULT_SPANS_US],
    },
    "descriptor": {
        "mode": "signed_sum",
        "clip": DEFAULT_CLIP,
        "down_width": DEFAULT_DOWN_WIDTH,
        "down_height": DEFAULT_DOWN_HEIGHT,
        "patch": DEFAULT_PATCH,
    },
    "metric": "cosine",
    "rule": {"kind": "mean", "trim": DEFAULT_TRIM, "weights": None},
    "approximate": {"enabled": True, "fraction": DEFAULT_APPROX_FRACTION},
    "grid_dt_us": DEFAULT_GRID_DT_US,
    "loc_threshold_us": DEFAULT_LOC_THRESHOLD_US,
    "sweep": {"points": DEFAULT_SWEEP_POINTS, "values": None},
    "synthetic": None,
}

_SYNTHETIC_TRAVERSE_KEYS = {"seed", "dwell_s", "rate_scale", "noise_rate", "dropout"}
_SYNTHETIC_KEYS = {
    "world_seed",
    "n_places",
    "segments_per_place",
    "reference",
    "query",
}


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key {where!r}")
        if isinstance(base[key], dict) and isinstance(value, dict):
            out[key] = _merge(base[key], value, where)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _parse_override(expr: str) -> tuple[list[str], Any]:
    if "=" not in expr:
        raise ConfigError(f"override {expr!r} must look like key.path=value")
    key, raw = expr.split("=", 1)
    keys = [k for k in key.strip().split(".") if k]
    if not keys:
        raise ConfigError(f"override {expr!r} has an empty key path")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return keys, value


def _apply_override(raw: dict, keys: list[str], value: Any) -> None:
    node = raw
    for k in keys[:-1]:
        node = node.setdefault(k, {})
        if not isinstance(node, dict):
            raise ConfigError(f"cannot override inside non-mapping key {k!r}")
    node[keys[-1]] = value


@dataclass(frozen=True)
class SyntheticConfig:
    world_seed: int
    n_places: int
    segments_per_place: int
    reference: TraverseParams
    query: TraverseParams


@dataclass(frozen=True)
class PipelineConfig:
    """Validated, fully resolved pipeline parameters."""

    geometry: SensorGeometry
    hot_pixels_enabled: bool
    hot_pixels_sigma: float
    bursts_enabled: bool
    burst_bin_us: int
    burst_fraction: float
    counts: tuple
    spans_us: tuple
    descriptor: DescriptorParams
    metric: Metric
    rule: EnsembleRule
    approximate_fraction: float | None
    grid_dt_us: int
    loc_threshold_us: int
    sweep_points: int
    sweep_values: tuple | None
    synthetic: SyntheticConfig | None
    resolved: dict

    @classmethod
    def from_dict(cls, raw: dict | None = None, overrides: list[str] | None = None) -> "PipelineConfig":
        raw = copy.deepcopy(raw) if raw else {}
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        for expr in overrides or []:
            keys, value = _parse_override(expr)
            _apply_override(raw, keys, value)
        merged = _merge(DEFAULTS, raw)
        try:
            return cls._validate(merged)
        except TypeError as e:
            # A value of the wrong JSON type (a list where a number belongs, ...).
            raise ConfigError(f"config value has the wrong type: {e}") from e
        except OverflowError as e:
            # An infinite number (JSON Infinity, 1e400) where an integer belongs.
            raise ConfigError(f"config value is out of range: {e}") from e

    @classmethod
    def _validate(cls, c: dict) -> "PipelineConfig":
        geometry = SensorGeometry(int(c["geometry"]["width"]), int(c["geometry"]["height"]))
        hp = c["filters"]["hot_pixels"]
        bu = c["filters"]["bursts"]
        if float(hp["sigma"]) <= 0:
            raise ConfigError("filters.hot_pixels.sigma must be positive")
        if int(bu["bin_us"]) < 1:
            raise ConfigError("filters.bursts.bin_us must be positive")
        if not (0.0 < float(bu["fraction"]) <= 1.0):
            raise ConfigError("filters.bursts.fraction must be in (0, 1]")

        counts = c["windows"]["counts"] or []
        spans_ms = c["windows"]["spans_ms"] or []
        if not counts and not spans_ms:
            raise ConfigError("windows.counts and windows.spans_ms are both empty")
        for v in counts:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ConfigError(f"windows.counts entry {v!r} is not a number")
            if isinstance(v, float) and not (0.0 < v <= 1.0):
                raise ConfigError(f"fractional window count {v} must be in (0, 1]")
            if isinstance(v, int) and v < 1:
                raise ConfigError(f"absolute window count {v} must be >= 1")
        spans_us = []
        for v in spans_ms:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ConfigError(f"windows.spans_ms entry {v!r} is not a number")
            span_us = int(round(float(v) * 1000))
            if span_us < 1:
                raise ConfigError(f"windows.spans_ms entry {v!r} must be at least 0.001 (1 us)")
            spans_us.append(span_us)

        d = c["descriptor"]
        try:
            mode = AccumulationMode(str(d["mode"]))
        except ValueError:
            raise ConfigError(f"unknown descriptor mode {d['mode']!r}") from None
        descriptor = DescriptorParams(
            mode=mode,
            clip=float(d["clip"]),
            down_width=int(d["down_width"]),
            down_height=int(d["down_height"]),
            patch=int(d["patch"]),
        )
        if descriptor.down_width > geometry.width or descriptor.down_height > geometry.height:
            raise ConfigError("descriptor downsample target exceeds the sensor size")

        try:
            metric = Metric(str(c["metric"]))
        except ValueError:
            raise ConfigError(f"unknown metric {c['metric']!r}") from None

        r = c["rule"]
        try:
            kind = RuleKind(str(r["kind"]))
        except ValueError:
            raise ConfigError(f"unknown ensemble rule {r['kind']!r}") from None
        weights = r.get("weights")
        rule = EnsembleRule(
            kind,
            weights=tuple(float(w) for w in weights) if weights else None,
            trim=int(r.get("trim", DEFAULT_TRIM)),
        )

        ap = c["approximate"]
        approximate_fraction = None
        if ap["enabled"]:
            approximate_fraction = float(ap["fraction"])
            if not (0.0 < approximate_fraction <= 1.0):
                raise ConfigError("approximate.fraction must be in (0, 1]")

        grid_dt_us = int(c["grid_dt_us"])
        loc_threshold_us = int(c["loc_threshold_us"])
        if grid_dt_us < 1:
            raise ConfigError("grid_dt_us must be positive")
        if loc_threshold_us < 1:
            raise ConfigError("loc_threshold_us must be positive")

        sw = c["sweep"]
        sweep_points = int(sw["points"])
        if sweep_points < 1:
            raise ConfigError("sweep.points must be >= 1")
        sweep_values = None
        if sw["values"] is not None:
            sweep_values = tuple(float(v) for v in sw["values"])
            if not sweep_values or not all(map(math.isfinite, sweep_values)):
                raise ConfigError("sweep.values must be a non-empty list of finite numbers")
            if any(b < a for a, b in zip(sweep_values, sweep_values[1:])):
                raise ConfigError("sweep.values must be ascending")

        synthetic = None
        if c["synthetic"] is not None:
            s = c["synthetic"]
            unknown = set(s) - _SYNTHETIC_KEYS
            if unknown:
                raise ConfigError(f"unknown synthetic config keys {sorted(unknown)}")
            for side in ("reference", "query"):
                if side not in s or not isinstance(s[side], dict):
                    raise ConfigError(f"synthetic.{side} section is required")
                bad = set(s[side]) - _SYNTHETIC_TRAVERSE_KEYS
                if bad:
                    raise ConfigError(f"unknown synthetic.{side} keys {sorted(bad)}")
                if "seed" not in s[side]:
                    raise ConfigError(f"synthetic.{side}.seed is required")
            if "world_seed" not in s or "n_places" not in s:
                raise ConfigError("synthetic.world_seed and synthetic.n_places are required")
            synthetic = SyntheticConfig(
                world_seed=int(s["world_seed"]),
                n_places=int(s["n_places"]),
                segments_per_place=int(s.get("segments_per_place", DEFAULT_SEGMENTS_PER_PLACE)),
                reference=TraverseParams(**s["reference"]),
                query=TraverseParams(**s["query"]),
            )

        return cls(
            geometry=geometry,
            hot_pixels_enabled=bool(hp["enabled"]),
            hot_pixels_sigma=float(hp["sigma"]),
            bursts_enabled=bool(bu["enabled"]),
            burst_bin_us=int(bu["bin_us"]),
            burst_fraction=float(bu["fraction"]),
            counts=tuple(counts),
            spans_us=tuple(spans_us),
            descriptor=descriptor,
            metric=metric,
            rule=rule,
            approximate_fraction=approximate_fraction,
            grid_dt_us=grid_dt_us,
            loc_threshold_us=loc_threshold_us,
            sweep_points=sweep_points,
            sweep_values=sweep_values,
            synthetic=synthetic,
            resolved=json.loads(json.dumps(c)),
        )


def load_config(path: str | None, overrides: list[str] | None = None) -> PipelineConfig:
    """Read a JSON config file (optional) and apply ``--set`` overrides."""
    raw = None
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as e:
                raise ConfigError(f"config {path} is not valid JSON: {e}") from None
    return PipelineConfig.from_dict(raw, overrides)
