"""Seeded inputs, CLI arguments and output checks for each benchmark workload.

Inputs are generated with the ``evplace.synthetic`` API and written with
the program's own CSV writers; the program under test only ever sees files.

Run as a script, it generates one variant's inputs and prints them as a JSON
line; ``run.py`` does so in a child process, so the memory generation needs
never counts toward a measured child's peak RSS (a child spawned with vfork
inherits its parent's high-water mark across exec)::

    python3 perfbench/workloads.py WORKLOAD VARIANT WORKDIR

A run's ``--seed`` selects one of ``VARIANTS`` input variants
(``seed % VARIANTS``).  The outputs of every variant were recorded as
sha256 digests in ``digests.json`` at the commit that introduced the
benchmark, so every run is checked byte for byte whatever seed it gets.
``bench`` is the exception: it is the committed golden run, whose inputs
come from the seeds in ``configs/synthetic-default.json`` and whose outputs
are compared with ``tests/golden/run/`` directly.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

VARIANTS = 16
BENCH_CONFIG = Path("configs/synthetic-default.json")
GOLDEN_DIR = Path("tests/golden/run")
DIGESTS = Path(__file__).with_name("digests.json")


@dataclass(frozen=True)
class Inputs:
    """The files one workload variant hands to the CLI."""

    config: Path
    files: dict  # role -> Path
    events: dict  # role -> event count

    @property
    def total_events(self) -> int:
        return sum(self.events.values())

    def to_json(self) -> str:
        files = {role: str(path) for role, path in self.files.items()}
        return json.dumps({"config": str(self.config), "files": files, "events": self.events})

    @classmethod
    def from_json(cls, text: str) -> "Inputs":
        d = json.loads(text)
        files = {role: Path(path) for role, path in d["files"].items()}
        return cls(Path(d["config"]), files, d["events"])


# ---------------------------------------------------------------------------
# writing inputs


def _write_stream(path: Path, stream) -> int:
    from evplace.events import write_event_csv

    path.write_bytes(write_event_csv(stream))
    return len(stream)


# ---------------------------------------------------------------------------
# workloads


def _variant_rng(name: str, variant: int):
    import numpy as np

    tag = int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "little")
    return np.random.default_rng([tag, variant])


def _scaled_world(rng, n_places, geometry, edge_events_per_place_s):
    """A seeded world whose edge intensity is rescaled to a fixed total.

    Random segment lengths make the number of edge pixels vary between
    seeds; the returned factor multiplies ``rate_scale`` so every variant
    carries the same expected number of edge events, and per-event stages
    see the same load whatever the seed.
    """
    from evplace.synthetic import generate_world

    world = generate_world(int(rng.integers(2**31)), n_places, geometry)
    per_place_s = float(world.place_patterns.sum()) / n_places
    return world, edge_events_per_place_s / per_place_s


def _inject_noise(stream, rng, n_hot: int, hot_rate: float, n_bursts: int):
    """Add hot pixels and full-array bursts so the filters remove real events."""
    import numpy as np
    from evplace.events import EventStream

    g = stream.geometry
    t0, t1 = int(stream.t[0]), int(stream.t[-1])
    ts, xs, ys, ps = [stream.t], [stream.x], [stream.y], [stream.p]
    for _ in range(n_hot):
        n = int(hot_rate * (t1 - t0) / 1e6)
        ts.append(rng.integers(t0, t1 + 1, size=n))
        xs.append(np.full(n, rng.integers(g.width)))
        ys.append(np.full(n, rng.integers(g.height)))
        ps.append(rng.choice(np.array([-1, 1], dtype=np.int8), size=n))
    for _ in range(n_bursts):
        # Half the array fires inside one 500 us bin.
        start = int(rng.integers(t0, t1 - 1000)) // 500 * 500
        pix = rng.choice(g.n_pixels, size=g.n_pixels // 2, replace=False)
        ts.append(start + rng.integers(0, 500, size=pix.size))
        xs.append(pix % g.width)
        ys.append(pix // g.width)
        ps.append(rng.choice(np.array([-1, 1], dtype=np.int8), size=pix.size))
    t = np.concatenate(ts)
    order = np.argsort(t, kind="stable")
    return EventStream(
        g, t[order], np.concatenate(xs)[order], np.concatenate(ys)[order],
        np.concatenate(ps)[order],
    )


def _write_config(path: Path, cfg: dict) -> Path:
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    return path


def _write_run_inputs(workdir: Path, config: Path, q_stream, r_stream, anchors) -> Inputs:
    from evplace.evaluation import write_ground_truth_csv

    files = {
        "query": workdir / "query_events.csv",
        "reference": workdir / "reference_events.csv",
        "gt": workdir / "ground_truth.csv",
    }
    events = {
        "query": _write_stream(files["query"], q_stream),
        "reference": _write_stream(files["reference"], r_stream),
    }
    files["gt"].write_bytes(write_ground_truth_csv(anchors))
    return Inputs(config, files, events)


def _gen_bench(workdir: Path, variant: int) -> Inputs:
    # The golden run: its seeds come from the committed config, not the variant.
    from evplace.config import load_config
    from evplace.synthetic import generate_traverse, generate_world, pair_ground_truth

    cfg = load_config(str(BENCH_CONFIG))
    s = cfg.synthetic
    world = generate_world(s.world_seed, s.n_places, cfg.geometry, s.segments_per_place)
    r_stream, r_gt = generate_traverse(world, s.reference)
    q_stream, q_gt = generate_traverse(world, s.query)
    return _write_run_inputs(
        workdir, BENCH_CONFIG, q_stream, r_stream, pair_ground_truth(q_gt, r_gt)
    )


SENSOR_CONFIG = {
    "geometry": {"width": 346, "height": 260},
    "filters": {
        "hot_pixels": {"enabled": True, "sigma": 5.0},
        "bursts": {"enabled": True, "bin_us": 500, "fraction": 0.25},
    },
    "descriptor": {"mode": "count", "down_width": 32, "down_height": 24, "patch": 8},
    "grid_dt_us": 250_000,
    "loc_threshold_us": 900_000,
}


def _sensor_streams(variant: int):
    from evplace.events import SensorGeometry
    from evplace.synthetic import TraverseParams, generate_traverse, pair_ground_truth

    rng = _variant_rng("sensor", variant)
    world, scale = _scaled_world(rng, 3, SensorGeometry(346, 260), 60_000.0)
    r_stream, r_gt = generate_traverse(
        world,
        TraverseParams(int(rng.integers(2**31)), dwell_s=0.4, rate_scale=scale, noise_rate=1.5),
    )
    q_stream, q_gt = generate_traverse(
        world,
        TraverseParams(
            int(rng.integers(2**31)), dwell_s=0.4, rate_scale=0.7 * scale, noise_rate=3.0,
            dropout=0.2,
        ),
    )
    r_stream = _inject_noise(r_stream, rng, n_hot=4, hot_rate=2000.0, n_bursts=2)
    q_stream = _inject_noise(q_stream, rng, n_hot=4, hot_rate=2000.0, n_bursts=2)
    return q_stream, r_stream, pair_ground_truth(q_gt, r_gt)


def _gen_sensor(workdir: Path, variant: int) -> Inputs:
    q, r, anchors = _sensor_streams(variant)
    config = _write_config(workdir / "config.json", SENSOR_CONFIG)
    return _write_run_inputs(workdir, config, q, r, anchors)


def _gen_denoise(workdir: Path, variant: int) -> Inputs:
    _, r, _ = _sensor_streams(variant)
    path = workdir / "events.csv"
    return Inputs(
        _write_config(workdir / "config.json", SENSOR_CONFIG),
        {"events": path},
        {"events": _write_stream(path, r)},
    )


ROUTE_CONFIG = {
    "geometry": {"width": 32, "height": 24},
    "filters": {"hot_pixels": {"enabled": False}, "bursts": {"enabled": False}},
    "descriptor": {"mode": "count", "down_width": 16, "down_height": 12, "patch": 4},
    "grid_dt_us": 100_000,
    "loc_threshold_us": 150_000,
}


def _route_like(name: str, n_places: int, workdir: Path, variant: int) -> Inputs:
    from evplace.events import SensorGeometry
    from evplace.synthetic import TraverseParams, generate_traverse, pair_ground_truth

    rng = _variant_rng(name, variant)
    world, scale = _scaled_world(rng, n_places, SensorGeometry(32, 24), 16_000.0)
    r_stream, r_gt = generate_traverse(
        world,
        TraverseParams(int(rng.integers(2**31)), dwell_s=0.1, rate_scale=scale, noise_rate=3.0),
    )
    q_stream, q_gt = generate_traverse(
        world,
        TraverseParams(
            int(rng.integers(2**31)), dwell_s=0.1, rate_scale=0.5 * scale,
            noise_rate=20.0, dropout=0.6,
        ),
    )
    config = _write_config(workdir / "config.json", ROUTE_CONFIG)
    return _write_run_inputs(
        workdir, config, q_stream, r_stream, pair_ground_truth(q_gt, r_gt)
    )


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # evplace subcommand
    generate: object  # (workdir, variant) -> Inputs

    def cli_args(self, inputs: Inputs, outdir: Path) -> list[str]:
        args = [self.command, "--config", str(inputs.config), "-o", str(outdir)]
        for role, path in inputs.files.items():
            args += [f"--{role}", str(path)]
        return args


WORKLOADS = {
    w.name: w
    for w in (
        Workload("bench", "run", _gen_bench),
        Workload("sensor", "run", _gen_sensor),
        # Not in BENCHMARK.json; for study by hand (see README.md).
        Workload("route", "run", lambda d, v: _route_like("route", 120, d, v)),
        Workload("denoise", "filter", _gen_denoise),
        # A 12-place route for the harness self-check; not in BENCHMARK.json.
        Workload("tiny", "run", lambda d, v: _route_like("tiny", 12, d, v)),
    )
}


# ---------------------------------------------------------------------------
# output checks


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def output_digests(outdir: Path) -> dict:
    return {p.name: sha256_file(p) for p in sorted(outdir.iterdir()) if p.is_file()}


def expected_digests(workload: str, variant: int) -> dict | None:
    """Digests the outputs must have, or ``None`` when none were recorded."""
    if workload == "bench":
        return output_digests(GOLDEN_DIR)
    if not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(str(variant))


def mismatched_files(actual: dict, expected: dict) -> list[str]:
    """Names of files that are missing, extra, or differ from the expectation."""
    names = set(actual) | set(expected)
    return sorted(n for n in names if actual.get(n) != expected.get(n))


if __name__ == "__main__":
    name, variant, workdir = sys.argv[1:]
    print(WORKLOADS[name].generate(Path(workdir), int(variant)).to_json())
