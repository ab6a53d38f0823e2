"""Command-line pipeline driver.

Eight subcommands cover the pipeline end to end: ``filter`` and ``synth``
produce event streams, ``windows``/``describe``/``distance``/``ensemble``/
``evaluate`` run single stages, and ``run`` chains everything from inputs
to evaluation.  :func:`main` does the work they share: it loads and
validates the configuration before touching data, runs the subcommand, and
writes a ``manifest.json`` recording the resolved config, SHA-256 digests of all
inputs and the output list.  The ``--output`` directory is made at the
first write, so a command that fails before writing leaves none behind.
Every failure prints ``evplace <cmd>: error [<stage>] ...`` and exits 1.
Inputs are hashed and event CSVs parsed and written a block at a time, so
no command holds an event file's whole text, and each parsed stream is
filtered in place.  ``run`` on event CSVs takes each traverse from its
file to its descriptors in a process of its own (the reference in a forked
worker, the query in the caller), since the two meet only at the distance
stage; only the reference side's descriptors, profile records and manifest
entry come back.  A failure is reported as the sequential order, query
first, would report it.

``evplace --profile PATH <cmd> ...`` also writes each stage's wall time and
the peak RSS of the process that ran it, at its end, to the JSON file
``PATH``, which must lie outside the output directory, with the events in
and out of the read-events, hot-pixels and bursts stages and the pixels
hot-pixels flagged.  The records of those stages and of ``describe`` name
their input's ``role`` (``events``, ``query`` or ``reference``); the
``reference`` records of ``run`` carry the worker's own peak.

Config values come from built-in defaults, overridden by ``--config
file.json``, overridden again by repeatable ``--set key.path=value``
flags.  Set ``EVPLACE_LOG=info`` (or ``debug``) for progress logging.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import pickle
import re
import resource
import sys
import time
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable

from . import __version__
from .config import PipelineConfig, load_config
from .descriptors import load_descriptors, write_descriptors
from .distance import (
    DistanceMatrix,
    build_distance_matrix,
    read_matrix_csv,
    write_matrix_csv,
)
from .ensemble import combine
from .errors import ConfigError, EvPlaceError
from .evaluation import (
    EvalResult,
    default_similarity_sweep,
    interpolate_ground_truth,
    precision_at_full_recall,
    precision_recall_curve,
    read_ground_truth_csv,
    write_eval_results_csv,
    write_ground_truth_csv,
)
from .events import (
    burst_mask,
    compact_in_place,
    event_csv_blocks,
    filter_bursts,  # noqa: F401  (a name perfbench/tracing.py hooks)
    hot_pixel_mask,
    parse_event_csv,
    remove_hot_pixels,  # noqa: F401  (a name perfbench/tracing.py hooks)
    write_event_csv,  # noqa: F401  (a name perfbench/tracing.py hooks)
)
from .pipeline import (
    PipelineResult,
    describe_traverse,
    run_from_sequences,
    run_place_recognition,  # noqa: F401  (a name perfbench/tracing.py hooks)
)
from .synthetic import generate_traverse, generate_world, pair_ground_truth
from .windowing import build_window_set

logger = logging.getLogger(__name__)

_HASH_BLOCK_BYTES = 1 << 17
# The stage records of a run with --profile, else None.
_PROFILE: list[dict] | None = None


class StageError(EvPlaceError):
    """An error annotated with the pipeline stage it occurred in."""

    def __init__(self, stage: str, error: Exception | str):
        super().__init__(f"[{stage}] {error}")
        self.stage = stage
        self.detail = str(error)

    def __reduce__(self):
        # rebuilt from its stage and message: ``run``'s reference worker
        # sends its failure to the parent pickled
        return StageError, (self.stage, self.detail)


@contextmanager
def _stage(name: str, role: str | None = None):
    """Tag errors with the stage ``name``; with --profile, record the stage.

    Yields a dict: data counters the stage puts there (events in and out,
    pixels flagged) join its profile record.  A ``role`` names the input
    the stage works on (``events``, ``query``, ``reference``) in the
    record, since ``run`` works on its two event inputs at once and their
    records interleave.
    """
    logger.info("stage %s", name if role is None else f"{name} ({role})")
    counters: dict = {} if role is None else {"role": role}
    start = time.perf_counter()
    try:
        yield counters
    except StageError:
        raise
    except (EvPlaceError, OSError, ValueError) as e:
        raise StageError(name, e) from e
    finally:
        if _PROFILE is not None:
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            _PROFILE.append(
                {
                    "stage": name,
                    "wall_s": time.perf_counter() - start,
                    "peak_rss_mb": peak_kib / 1024.0,
                    **counters,
                }
            )


def _configure_logging() -> None:
    level = os.environ.get("EVPLACE_LOG", "warning").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", text)


def _stem(path: str) -> str:
    return _slug(Path(path).stem)


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")


class _Outputs:
    """One command's output directory plus the manifest entries it collects.

    The directory is made at the first write, so a command that fails
    before writing anything leaves no directory behind.
    """

    def __init__(self, directory: str):
        self.dir = Path(directory)
        self.inputs: dict = {}
        self.names: list[str] = []

    def read(self, role: str, path: str, reader, *args):
        """``reader(file, *args)`` on an input opened for binary reading.

        The file is hashed a block at a time for the manifest, rewound,
        handed to ``reader`` and closed when it returns, so no input's
        whole text is held here.
        """
        with open(path, "rb") as fh:
            digest = hashlib.sha256()
            buf = bytearray(_HASH_BLOCK_BYTES)
            while n := fh.readinto(buf):
                digest.update(memoryview(buf)[:n])
            fh.seek(0)
            result = reader(fh, *args)
        entry = {"file": Path(path).name, "sha256": digest.hexdigest()}
        if role in self.inputs:
            # repeated roles (descriptor file lists) become numbered entries
            suffix = 2
            while f"{role}_{suffix}" in self.inputs:
                suffix += 1
            role = f"{role}_{suffix}"
        self.inputs[role] = entry
        return result

    def write(self, name: str, data: bytes | Iterable[bytes]) -> None:
        """Write one output file from its bytes or from its blocks in order."""
        if not self.names:
            self.dir.mkdir(parents=True, exist_ok=True)
        with open(self.dir / name, "wb") as fh:
            fh.writelines([data] if isinstance(data, bytes) else data)
        self.names.append(name)


def _read_events(out: _Outputs, role: str, path: str, cfg: PipelineConfig):
    """Read, parse and filter one event CSV, returning the stream and a report.

    The file is parsed a block at a time.  Each filter computes its keep
    mask a chunk of events at a time and compacts the stream's own arrays
    in place (:func:`~evplace.events.compact_in_place`), so filtering holds
    the stream and a one-byte-per-event mask, never a filtered copy beside
    it.  The stream, flagged pixels and report equal those of
    ``remove_hot_pixels`` then ``filter_bursts`` on the parsed stream.
    """
    with _stage("read-events", role) as counters:
        stream = out.read(role, path, parse_event_csv, cfg.geometry)
        counters.update(events_in=len(stream), events_out=len(stream))
    report = {"events_in": len(stream)}
    if cfg.hot_pixels_enabled:
        with _stage("hot-pixels", role) as counters:
            n_before = len(stream)
            keep, flagged = hot_pixel_mask(stream, cfg.hot_pixels_sigma)
            stream = compact_in_place(stream, keep)
            del keep
            counters.update(events_in=n_before, events_out=len(stream), flagged=len(flagged))
            report["hot_pixels"] = {
                "sigma": cfg.hot_pixels_sigma,
                "flagged": [[int(x), int(y)] for x, y in flagged],
                "events_removed": n_before - len(stream),
            }
    if cfg.bursts_enabled:
        with _stage("bursts", role) as counters:
            n_before = len(stream)
            keep = burst_mask(stream, cfg.burst_bin_us, cfg.burst_fraction)
            stream = compact_in_place(stream, keep)
            counters.update(events_in=n_before, events_out=len(stream))
            report["bursts"] = {
                "bin_us": cfg.burst_bin_us,
                "fraction": cfg.burst_fraction,
                "events_removed": n_before - len(stream),
            }
    report["events_out"] = len(stream)
    return stream, report


def _describe_events(
    out: _Outputs, role: str, path: str, cfg: PipelineConfig, approximate_fraction=None
):
    """Read, filter and describe one event CSV, as :func:`describe_traverse`.

    Returns its sequences and approximate sequence.  The stream is dropped
    on return, so only the descriptors outlive this call.
    """
    stream, _ = _read_events(out, role, path, cfg)
    with _stage("describe", role):
        return describe_traverse(
            stream, cfg.counts, cfg.spans_us, cfg.descriptor, cfg.grid_dt_us, approximate_fraction
        )


def _eval_summary(label: str, result: EvalResult) -> dict:
    return {
        "label": label,
        "precision": result.precision,
        "tp": result.tp,
        "fp": result.fp,
        "total_queries": result.total_queries,
    }


# ---------------------------------------------------------------------------
# subcommands: each takes (args, cfg, out) and returns its manifest notes


def cmd_filter(args, cfg: PipelineConfig, out: _Outputs) -> None:
    stream, report = _read_events(out, "events", args.events, cfg)
    with _stage("write"):
        out.write("filtered.csv", event_csv_blocks(stream))
        out.write("filter_report.json", _json_bytes(report))


def cmd_synth(args, cfg: PipelineConfig, out: _Outputs) -> dict:
    with _stage("config"):
        if cfg.synthetic is None:
            raise ConfigError("synth needs a config with a 'synthetic' section")
    s = cfg.synthetic
    with _stage("generate"):
        world = generate_world(s.world_seed, s.n_places, cfg.geometry, s.segments_per_place)
        ref_stream, ref_gt = generate_traverse(world, s.reference)
        q_stream, q_gt = generate_traverse(world, s.query)
        anchors = pair_ground_truth(q_gt, ref_gt)
    with _stage("write"):
        out.write("reference_events.csv", event_csv_blocks(ref_stream))
        out.write("query_events.csv", event_csv_blocks(q_stream))
        out.write("ground_truth.csv", write_ground_truth_csv(anchors))
    return {
        "places": s.n_places,
        "reference_events": len(ref_stream),
        "query_events": len(q_stream),
    }


def cmd_windows(args, cfg: PipelineConfig, out: _Outputs) -> None:
    stream, _ = _read_events(out, "events", args.events, cfg)
    with _stage("windowing"):
        wset = build_window_set(stream, cfg.counts, cfg.spans_us)
        lines = ["family,index,start_idx,end_idx,t_start_us,t_end_us,n_events"]
        for fam in wset.families:
            columns = (fam.start_idx, fam.end_idx, fam.t_start_us, fam.t_end_us, fam.n_events)
            for i, row in enumerate(zip(*(c.tolist() for c in columns))):
                lines.append(f"{fam.label},{i}," + ",".join(map(str, row)))
    with _stage("write"):
        out.write("windows.csv", ("\n".join(lines) + "\n").encode("utf-8"))


def cmd_describe(args, cfg: PipelineConfig, out: _Outputs) -> None:
    seqs, _ = _describe_events(out, "events", args.events, cfg)
    with _stage("write"):
        for seq in seqs:
            out.write(f"descriptors_{_slug(seq.label)}.csv", write_descriptors(seq))


def cmd_distance(args, cfg: PipelineConfig, out: _Outputs) -> dict:
    with _stage("read-descriptors"):
        q_seq = out.read("query", args.query, load_descriptors, _stem(args.query))
        r_seq = out.read("reference", args.reference, load_descriptors, _stem(args.reference))
    with _stage("distance"):
        matrix = build_distance_matrix(q_seq, r_seq, cfg.metric)
    with _stage("write"):
        out.write("distance.csv", write_matrix_csv(matrix))
    return {"label": matrix.member_label}


def cmd_ensemble(args, cfg: PipelineConfig, out: _Outputs) -> dict:
    with _stage("config"):
        cfg.rule.check_members(len(args.members))
    with _stage("read-matrices"):
        members = [out.read("member", path, read_matrix_csv, _stem(path)) for path in args.members]
    with _stage("combine"):
        fused = combine(members, cfg.rule)
    with _stage("write"):
        out.write("ensemble.csv", write_matrix_csv(fused))
    return {"label": fused.member_label}


def _restrict_to_ground_truth(matrix: DistanceMatrix, anchors) -> tuple[DistanceMatrix, object, int]:
    """Interpolate truth onto the matrix's query times, dropping uncovered rows."""
    gt, keep = interpolate_ground_truth(anchors, matrix.query_t_us)
    dropped = int(matrix.n_queries - keep.sum())
    if dropped:
        matrix = DistanceMatrix(
            matrix.values[keep], matrix.query_t_us[keep], matrix.ref_t_us, matrix.member_label
        )
    return matrix, gt, dropped


def _pr_curve(matrix: DistanceMatrix, gt, cfg: PipelineConfig) -> list[EvalResult]:
    """Precision/recall over the configured sweep, or the matrix's own sweep."""
    sweep = cfg.sweep_values
    if sweep is None:
        sweep = default_similarity_sweep(matrix, cfg.sweep_points)
    return precision_recall_curve(matrix, gt, cfg.loc_threshold_us, sweep)


def cmd_evaluate(args, cfg: PipelineConfig, out: _Outputs) -> dict:
    with _stage("read-inputs"):
        matrix = out.read("matrix", args.matrix, read_matrix_csv, _stem(args.matrix))
        anchors = out.read("ground_truth", args.gt, read_ground_truth_csv)
    with _stage("evaluate"):
        matrix, gt, dropped = _restrict_to_ground_truth(matrix, anchors)
        full = precision_at_full_recall(matrix, gt, cfg.loc_threshold_us)
        curve = _pr_curve(matrix, gt, cfg)
    with _stage("write"):
        out.write("eval.csv", write_eval_results_csv([full]))
        out.write("pr.csv", write_eval_results_csv(curve))
    return {"dropped_queries": dropped, "precision": full.precision}


def _write_run_outputs(out: _Outputs, cfg: PipelineConfig, result: PipelineResult) -> None:
    scored = [*zip(result.members, result.member_evals), (result.fused, result.fused_eval)]
    if result.approximate is not None:
        scored.append((result.approximate, result.approximate_eval))
    summaries = []
    for matrix, ev in scored:
        slug = _slug(matrix.member_label)
        out.write(f"dist_{slug}.csv", write_matrix_csv(matrix))
        out.write(f"eval_{slug}.csv", write_eval_results_csv([ev]))
        summaries.append(_eval_summary(matrix.member_label, ev))

    curve = _pr_curve(result.fused, result.ground_truth, cfg)
    out.write(f"pr_{_slug(result.fused.member_label)}.csv", write_eval_results_csv(curve))

    n = len(result.members)
    summary = {
        "members": summaries[:n],
        "fused": summaries[n],
        "approximate": summaries[n + 1] if result.approximate is not None else None,
        "dropped_grid_points": result.dropped_grid_points,
        "loc_threshold_us": cfg.loc_threshold_us,
    }
    out.write("summary.json", _json_bytes(summary))


def _query_and_reference(out: _Outputs, query_side, reference_side):
    """``(query_side(), reference_side())``, the reference side in a forked worker.

    The two traverses are independent until the distance stage, so each
    side parses, filters and describes on a CPU and interpreter of its own.
    The worker sends back, pickled, its side's result or error, its
    --profile records and the manifest entries it read, which join the
    caller's.  A failure is raised as the sequential order would raise it,
    the query side's first; on any exception in the caller the worker is
    killed at once, and no worker outlives this call.
    """
    # flushed first, so that the child holds no copy of pending output
    sys.stdout.flush()
    sys.stderr.flush()
    n_records = 0 if _PROFILE is None else len(_PROFILE)
    roles = set(out.inputs)
    read_fd, write_fd = os.pipe()
    with warnings.catch_warnings():
        # Python 3.12+ warns on fork() while other OS threads exist; here
        # those are OpenBLAS's pool, which OpenBLAS stops around a fork
        # (pthread_atfork) and restarts in the child on demand.  The child
        # runs only this package's numpy code and leaves by os._exit.
        warnings.filterwarnings(
            "ignore", r"This process .* is multi-threaded, use of fork\(\)", DeprecationWarning
        )
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            try:
                outcome = reference_side()
            except BaseException as e:  # re-raised in the caller below
                outcome = e
            records = [] if _PROFILE is None else _PROFILE[n_records:]
            inputs = {k: v for k, v in out.inputs.items() if k not in roles}
            with open(write_fd, "wb") as pipe:
                pickle.dump((outcome, records, inputs), pipe, pickle.HIGHEST_PROTOCOL)
            code = 0
        except BaseException:
            sys.excepthook(*sys.exc_info())
        finally:
            # never return into the caller's stack (a test runner, a tracer)
            os._exit(code)
    os.close(write_fd)
    with open(read_fd, "rb") as pipe:
        try:
            query = query_side()
            payload = pipe.read()
        except BaseException:
            import signal

            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            _, status = os.waitpid(pid, 0)
    if status != 0:
        import signal

        code = os.waitstatus_to_exitcode(status)
        how = f"exited with code {code}"
        if code < 0:
            how = f"was killed by {signal.Signals(-code).name}"
        raise StageError("reference", f"worker process {how} before sending its result")
    reference, records, inputs = pickle.loads(payload)
    if _PROFILE is not None:
        _PROFILE.extend(records)
    out.inputs.update(inputs)
    if isinstance(reference, BaseException):
        raise reference
    return query, reference


def cmd_run(args, cfg: PipelineConfig, out: _Outputs) -> dict:
    with _stage("config"):
        event_mode = args.query is not None or args.reference is not None
        desc_mode = bool(args.query_descriptors) or bool(args.reference_descriptors)
        if event_mode and (args.query is None or args.reference is None):
            raise ConfigError("--query and --reference go together")
        if desc_mode and not (args.query_descriptors and args.reference_descriptors):
            raise ConfigError("--query-descriptors and --reference-descriptors go together")
        if event_mode == desc_mode:
            raise ConfigError("pass either event CSVs or descriptor CSVs, not both")
        if event_mode:
            k = len(cfg.counts) + len(cfg.spans_us)
        else:
            k, n_ref = len(args.query_descriptors), len(args.reference_descriptors)
            if k != n_ref:
                raise ConfigError(f"{k} query but {n_ref} reference descriptor files")
        cfg.rule.check_members(k)
    with _stage("read-ground-truth"):
        anchors = out.read("ground_truth", args.gt, read_ground_truth_csv)

    if event_mode:
        (q_seqs, approx_query), (r_seqs, _) = _query_and_reference(
            out,
            lambda: _describe_events(out, "query", args.query, cfg, cfg.approximate_fraction),
            lambda: _describe_events(out, "reference", args.reference, cfg),
        )
    else:
        with _stage("read-descriptors"):
            q_seqs = [
                out.read("query_descriptors", p, load_descriptors, _stem(p))
                for p in args.query_descriptors
            ]
            r_seqs = [
                out.read("reference_descriptors", p, load_descriptors, _stem(p))
                for p in args.reference_descriptors
            ]
        if cfg.approximate_fraction is not None:
            logger.warning("approximate ensemble needs event inputs; skipping it")
        approx_query = None
    with _stage("pipeline"):
        result = run_from_sequences(
            q_seqs,
            r_seqs,
            anchors,
            metric=cfg.metric,
            rule=cfg.rule,
            loc_threshold_us=cfg.loc_threshold_us,
            approximate_query=approx_query,
        )

    with _stage("write"):
        _write_run_outputs(out, cfg, result)
    print(f"fused {result.fused.member_label}: precision {result.fused_eval.precision:.4f}")
    return {"dropped_grid_points": result.dropped_grid_points}


# ---------------------------------------------------------------------------
# parser


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file (defaults apply when omitted)")
    p.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY.PATH=VALUE",
        help="override one config value (JSON-parsed; repeatable; wins over --config)",
    )
    p.add_argument("-o", "--output", required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evplace",
        description="Ensemble place recognition for event cameras.",
    )
    parser.add_argument("--version", action="version", version=f"evplace {__version__}")
    parser.add_argument(
        "--profile",
        metavar="PATH",
        help="write each stage's wall time and the peak RSS of the process that ran it "
        "(run's reference side: its worker) to this JSON file (outside the output directory)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("filter", help="denoise an event CSV (hot pixels, bursts)")
    _add_common(p)
    p.add_argument("--events", required=True, help="input event CSV (t,x,y,p)")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("synth", help="generate a seeded synthetic query/reference pair")
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("windows", help="list the temporal windows of every family")
    _add_common(p)
    p.add_argument("--events", required=True, help="input event CSV (t,x,y,p)")
    p.set_defaults(func=cmd_windows)

    p = sub.add_parser("describe", help="compute descriptor sequences per window family")
    _add_common(p)
    p.add_argument("--events", required=True, help="input event CSV (t,x,y,p)")
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("distance", help="distance matrix between two descriptor CSVs")
    _add_common(p)
    p.add_argument("--query", required=True, help="query descriptor CSV")
    p.add_argument("--reference", required=True, help="reference descriptor CSV")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("ensemble", help="fuse member distance matrices with a rule")
    _add_common(p)
    p.add_argument("--members", required=True, nargs="+", help="member matrix CSVs")
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("evaluate", help="score a distance matrix against ground truth")
    _add_common(p)
    p.add_argument("--matrix", required=True, help="distance matrix CSV")
    p.add_argument("--gt", required=True, help="ground truth CSV (t_query_s,t_ref_s)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("run", help="full pipeline: filter, window, describe, fuse, evaluate")
    _add_common(p)
    p.add_argument("--query", help="query event CSV")
    p.add_argument("--reference", help="reference event CSV")
    p.add_argument("--query-descriptors", nargs="+", help="precomputed query descriptor CSVs")
    p.add_argument(
        "--reference-descriptors", nargs="+", help="precomputed reference descriptor CSVs"
    )
    p.add_argument("--gt", required=True, help="ground truth CSV (t_query_s,t_ref_s)")
    p.set_defaults(func=cmd_run)

    return parser


def main(argv=None) -> int:
    global _PROFILE
    _configure_logging()
    args = build_parser().parse_args(argv)
    _PROFILE = [] if args.profile else None
    try:
        with _stage("config"):
            cfg = load_config(args.config, args.set)
            if args.profile and Path(args.output).resolve() in Path(args.profile).resolve().parents:
                raise ConfigError("--profile must be outside the output directory")
        out = _Outputs(args.output)
        notes = args.func(args, cfg, out)
        with _stage("write"):
            manifest = {
                "command": args.command,
                "version": __version__,
                "config": cfg.resolved,
                "inputs": out.inputs,
                "outputs": sorted(out.names),
            }
            if notes:
                manifest["notes"] = notes
            out.write("manifest.json", _json_bytes(manifest))
        if args.profile:
            stages, _PROFILE = _PROFILE, None
            with _stage("profile"):
                Path(args.profile).write_bytes(
                    _json_bytes({"command": args.command, "stages": stages})
                )
    except StageError as e:
        print(f"evplace {args.command}: error {e}", file=sys.stderr)
        return 1
    finally:
        _PROFILE = None
    return 0


if __name__ == "__main__":
    sys.exit(main())
