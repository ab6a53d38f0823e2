"""Pipeline configuration: JSON file, defaults, and flag overrides.

A config is one JSON object.  Every key has a default, and command-line
``--set a.b.c=value`` overrides are applied on top of the file, flags
winning.  One walk, :func:`_merge`, decides each value's JSON type: an
unknown key, a value of another type than its default's (or its stand-in's,
where the default is null), a list entry that is not a number and an
integer too large for a float are refused there, naming the key.  Then
:meth:`PipelineConfig._validate` checks each value's range, again naming
the key, and builds the domain objects, before any data is touched.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from enum import Enum
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
    _INT64_MAX,
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

# Stand-ins that type the keys whose default is null: a list (of numbers, as
# every list is) for the weights and the sweep, and the synthetic section's
# keys, none of which is filled in (its seeds are required).
_TRAVERSE_TYPES = {"seed": 0, "dwell_s": 0.0, "rate_scale": 0.0, "noise_rate": 0.0, "dropout": 0.0}
_STAND_INS = {
    "rule.weights": [],
    "sweep.values": [],
    "synthetic": {"world_seed": 0, "n_places": 0, "segments_per_place": 0,
                  "reference": _TRAVERSE_TYPES, "query": _TRAVERSE_TYPES},
}
# Per default's type: the JSON type it asks for, and the Python types that hold it.
_JSON_TYPES = {bool: ("a boolean", bool), int: ("an integer", int),
               float: ("a number", (int, float)), str: ("a string", str),
               list: ("a list", list), dict: ("an object", dict)}
# The least integer that float() rounds to infinity.
_FLOAT_LIMIT = 2**1024 - 2**970


def _merge(like: Any, value: Any, default: Any = None, where: str = "") -> Any:
    """``value``, checked against ``like``'s JSON type and laid over ``default``.

    ``like`` is the key's default, or its stand-in where the default is
    null.  An integer takes an integer, a float any number a float can hold,
    a boolean a boolean (never a number), and a string a string.  A list's
    entries are numbers, each checked as a float is.  An object's keys must
    be ``like``'s, and each value is merged over ``default``'s, so an object
    under a null default holds only the keys given.  A key whose default is
    null also takes null.  Each error names the key, ``where``.
    """
    name, types = _JSON_TYPES[type(like)]
    if not isinstance(value, types) or isinstance(value, bool) != isinstance(like, bool):
        raise ConfigError(f"config key {where!r} has the wrong type: needs {name}, not {value!r}")
    if isinstance(like, float) and isinstance(value, int) and abs(value) >= _FLOAT_LIMIT:
        raise ConfigError(f"config key {where!r} is an integer too large for a float")
    if isinstance(like, list):
        return [_merge(0.0, v, None, f"{where}[{i}]") for i, v in enumerate(value)]
    if not isinstance(like, dict):
        return value
    out = copy.deepcopy(default) if default is not None else {}
    for key, v in value.items():
        at = f"{where}.{key}" if where else key
        if key not in like:
            raise ConfigError(f"unknown config key {at!r}")
        if v is None and like[key] is None:
            out[key] = None
        else:
            out[key] = _merge(_STAND_INS.get(at, like[key]), v, out.get(key), at)
    return out


def _check(ok: bool, key: str, rule: str) -> None:
    """Refuse ``key``'s value unless ``ok``: it must be as ``rule`` says."""
    if not ok:
        raise ConfigError(f"{key} must be {rule}")


def _enum(kind: type[Enum], value: str, key: str) -> Enum:
    """The member of ``kind`` named ``value``, refusing any other name."""
    names = [member.value for member in kind]
    _check(value in names, key, f"one of {', '.join(names)}, not {value!r}")
    return kind(value)


def _parse_override(expr: str) -> tuple[list[str], Any]:
    if "=" not in expr:
        raise ConfigError(f"override {expr!r} must look like key.path=value")
    key, raw = expr.split("=", 1)
    keys = [k for k in key.strip().split(".") if k]
    if not keys:
        raise ConfigError(f"override {expr!r} has an empty key path")
    try:
        value = json.loads(raw)
    except ValueError:  # not JSON, or an integer of too many digits: the text itself
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
        return cls._validate(_merge(DEFAULTS, raw, DEFAULTS))

    @classmethod
    def _validate(cls, c: dict) -> "PipelineConfig":
        """Check the range of each value of a merged config, naming its key,
        and build the domain objects.  Each check is written so that NaN
        fails it; an integer the run holds as an int64 must fit one."""
        geometry = SensorGeometry(c["geometry"]["width"], c["geometry"]["height"])
        hp = c["filters"]["hot_pixels"]
        bu = c["filters"]["bursts"]
        _check(hp["sigma"] > 0, "filters.hot_pixels.sigma", "positive")
        _check(0.0 < bu["fraction"] <= 1.0, "filters.bursts.fraction", "in (0, 1]")
        for key, value in (
            ("filters.bursts.bin_us", bu["bin_us"]),
            ("grid_dt_us", c["grid_dt_us"]),
            ("loc_threshold_us", c["loc_threshold_us"]),
        ):
            _check(1 <= value <= _INT64_MAX, key, "from 1 to 2**63 - 1")

        counts = c["windows"]["counts"]
        spans_ms = c["windows"]["spans_ms"]
        if not counts and not spans_ms:
            raise ConfigError("windows.counts and windows.spans_ms are both empty")
        for v in counts:
            _check(0.0 < v <= 1.0 if isinstance(v, float) else 1 <= v <= _INT64_MAX,
                   f"windows.counts entry {v!r}",
                   "a fraction in (0, 1] or a count from 1 to 2**63 - 1")
        for v in spans_ms:  # round(v * 1000) us, from 1 to 2**63 - 1
            _check(0.5 < v * 1000 < 2**63, f"windows.spans_ms entry {v!r}",
                   "at least 0.001 ms (1 us) and below 2**63 us")

        d = c["descriptor"]
        descriptor = DescriptorParams(
            mode=_enum(AccumulationMode, d["mode"], "descriptor.mode"),
            clip=float(d["clip"]),
            down_width=d["down_width"],
            down_height=d["down_height"],
            patch=d["patch"],
        )
        if descriptor.down_width > geometry.width or descriptor.down_height > geometry.height:
            raise ConfigError("descriptor downsample target exceeds the sensor size")

        r = c["rule"]
        kind = _enum(RuleKind, r["kind"], "rule.kind")
        rule = EnsembleRule(kind, weights=r["weights"] or None, trim=r["trim"])

        ap = c["approximate"]
        _check(not ap["enabled"] or 0.0 < ap["fraction"] <= 1.0,
               "approximate.fraction", "in (0, 1]")

        sw = c["sweep"]
        _check(sw["points"] >= 1, "sweep.points", ">= 1")
        sweep_values = None
        if sw["values"] is not None:
            sweep_values = tuple(map(float, sw["values"]))
            _check(sweep_values and all(map(math.isfinite, sweep_values)),
                   "sweep.values", "a non-empty list of finite numbers")
            _check(sweep_values == tuple(sorted(sweep_values)), "sweep.values", "ascending")

        synthetic = None
        if c["synthetic"] is not None:
            s = c["synthetic"]
            for side in ("reference", "query"):
                if "seed" not in s.get(side, {}):
                    raise ConfigError(f"synthetic.{side}.seed is required")
            if "world_seed" not in s or "n_places" not in s:
                raise ConfigError("synthetic.world_seed and synthetic.n_places are required")
            synthetic = SyntheticConfig(
                world_seed=s["world_seed"],
                n_places=s["n_places"],
                segments_per_place=s.get("segments_per_place", DEFAULT_SEGMENTS_PER_PLACE),
                reference=TraverseParams(**s["reference"]),
                query=TraverseParams(**s["query"]),
            )

        return cls(
            geometry=geometry,
            hot_pixels_enabled=hp["enabled"],
            hot_pixels_sigma=float(hp["sigma"]),
            bursts_enabled=bu["enabled"],
            burst_bin_us=bu["bin_us"],
            burst_fraction=float(bu["fraction"]),
            counts=tuple(counts),
            spans_us=tuple(round(v * 1000) for v in spans_ms),
            descriptor=descriptor,
            metric=_enum(Metric, c["metric"], "metric"),
            rule=rule,
            approximate_fraction=float(ap["fraction"]) if ap["enabled"] else None,
            grid_dt_us=c["grid_dt_us"],
            loc_threshold_us=c["loc_threshold_us"],
            sweep_points=sw["points"],
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
            except ValueError as e:  # a JSONDecodeError, or an integer of too many digits
                raise ConfigError(f"config {path} is not valid JSON: {e}") from None
    return PipelineConfig.from_dict(raw, overrides)
