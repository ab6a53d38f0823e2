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

``evplace --profile PATH <cmd> ...`` also writes each stage's wall time,
the peak RSS of the process that ran it at the stage's end and the minor
page faults that process took during the stage, to the JSON file ``PATH``,
a file outside the output directory, with the events in and out of the
read-events, hot-pixels and bursts stages and the pixels hot-pixels
flagged.  The records travel on the command's :class:`_Outputs`; those of
these stages and of ``describe`` name their input's ``role`` (``events``,
``query`` or ``reference``), and ``run``'s ``reference`` records carry the
worker's own peak.

Config values come from built-in defaults, overridden by ``--config
file.json``, overridden again by repeatable ``--set key.path=value``
flags.  Set ``EVPLACE_LOG=info`` (or ``debug``) for progress logging by
``evplace.cli``, which only :func:`entry_point` turns on.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
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
    pair_label,
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
    _read_only,
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
from .windowing import build_window_set, family_labels

logger = logging.getLogger("evplace.cli")  # also when run as __main__

_HASH_BLOCK_BYTES = 1 << 17
# mallopt's parameters in glibc's <malloc.h>, prctl's in <linux/prctl.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_PR_SET_PDEATHSIG = 1


class StageError(EvPlaceError):
    """An error annotated with the pipeline stage it occurred in."""

    def __init__(self, stage: str, error: Exception | str):
        detail = str(error) or type(error).__name__  # a bare MemoryError has no message
        super().__init__(f"[{stage}] {detail}")
        self.stage = stage
        self.detail = detail

    def __reduce__(self):
        # rebuilt from its stage and message: ``run``'s reference worker
        # sends its failure to the parent pickled
        return StageError, (self.stage, self.detail)


@contextmanager
def _stage(out: _Outputs, name: str, role: str | None = None):
    """Tag errors with the stage ``name``; with --profile, record the stage in ``out``.

    Yields a dict: data counters the stage puts there (events in and out,
    pixels flagged) join its record in ``out.stages``.  A ``role`` names
    the input the stage works on (``events``, ``query``, ``reference``) in
    the record, since ``run`` works on its two event inputs at once.
    """
    logger.info("stage %s", name if role is None else f"{name} ({role})")
    counters: dict = {} if role is None else {"role": role}
    start = time.perf_counter()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    try:
        yield counters
    except StageError:
        raise
    except (EvPlaceError, OSError, ValueError, MemoryError) as e:
        raise StageError(name, e) from e
    finally:
        if out.stages is not None:
            usage = resource.getrusage(resource.RUSAGE_SELF)
            out.stages.append(
                {
                    "stage": name,
                    "wall_s": time.perf_counter() - start,
                    "peak_rss_mb": usage.ru_maxrss / 1024.0,
                    "minor_faults": usage.ru_minflt - faults,
                    **counters,
                }
            )


def _libc_function(name: str, *argtypes):
    """The C library's ``int name(*argtypes)``, or None where it has none."""
    try:
        function = getattr(ctypes.CDLL(None), name)
    except AttributeError:
        return None
    function.argtypes = argtypes
    function.restype = ctypes.c_int
    return function


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", text)


def _stem(path: str) -> str:
    return _slug(Path(path).stem)


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")


class _Outputs:
    """One command's output directory plus the manifest entries it collects.

    The directory is made at the first write, so a command that fails
    before writing anything leaves no directory behind.  ``stages`` holds
    its --profile stage records, or is None without --profile.
    """

    def __init__(self, directory: str, profile: bool = False):
        self.dir = Path(directory)
        self.inputs: dict = {}
        self.names: list[str] = []
        self.stages: list[dict] | None = [] if profile else None

    def read(self, role: str, path: str, reader, *args):
        """``reader(file, *args)`` on an input opened for binary reading.

        The file is hashed a block at a time for the manifest, rewound,
        handed to ``reader`` and closed when it returns, so no input's
        whole text is held here.  One that cannot be rewound is refused unread.
        """
        with open(path, "rb") as fh:
            if not fh.seekable():
                raise ConfigError(f"{path} is not seekable; an input must be a regular file")
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
    with _stage(out, "read-events", role) as counters:
        stream = out.read(role, path, parse_event_csv, cfg.geometry)
        counters.update(events_in=len(stream), events_out=len(stream))
    report = {"events_in": len(stream)}
    if cfg.hot_pixels_enabled:
        with _stage(out, "hot-pixels", role) as counters:
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
        with _stage(out, "bursts", role) as counters:
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
    with _stage(out, "describe", role):
        return describe_traverse(
            stream, cfg.counts, cfg.spans_us, cfg.descriptor, cfg.grid_dt_us, approximate_fraction
        )


def _check_labels(cfg: PipelineConfig, labels: list[str] | None = None) -> list[str]:
    """The members' labels, by default the config's window families', refusing
    two alike: their output files would overwrite each other."""
    if labels is None:
        labels = family_labels(cfg.counts, cfg.spans_us, cfg.geometry)
    for i, label in enumerate(labels):
        if label in labels[:i]:
            raise ConfigError(f"two ensemble members share the label {label}")
    return labels


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
    with _stage(out, "write"):
        out.write("filtered.csv", event_csv_blocks(stream))
        out.write("filter_report.json", _json_bytes(report))


def cmd_synth(args, cfg: PipelineConfig, out: _Outputs) -> dict:
    """Write both traverses, each dropped before the next is drawn, and their ground truth."""
    with _stage(out, "config"):
        if cfg.synthetic is None:
            raise ConfigError("synth needs a config with a 'synthetic' section")
    s = cfg.synthetic
    with _stage(out, "generate", "reference"):
        world = generate_world(s.world_seed, s.n_places, cfg.geometry, s.segments_per_place)
        stream, ref_gt = generate_traverse(world, s.reference)
    with _stage(out, "write", "reference"):
        out.write("reference_events.csv", event_csv_blocks(stream))
    notes = {"places": s.n_places, "reference_events": len(stream)}
    del stream
    with _stage(out, "generate", "query"):
        stream, q_gt = generate_traverse(world, s.query)
    with _stage(out, "write", "query"):
        out.write("query_events.csv", event_csv_blocks(stream))
        out.write("ground_truth.csv", write_ground_truth_csv(pair_ground_truth(q_gt, ref_gt)))
    return {**notes, "query_events": len(stream)}


def cmd_windows(args, cfg: PipelineConfig, out: _Outputs) -> None:
    with _stage(out, "config"):
        _check_labels(cfg)
    stream, _ = _read_events(out, "events", args.events, cfg)
    with _stage(out, "windowing"):
        wset = build_window_set(stream, cfg.counts, cfg.spans_us)
        lines = ["family,index,start_idx,end_idx,t_start_us,t_end_us,n_events"]
        for fam in wset.families:
            columns = (fam.start_idx, fam.end_idx, fam.t_start_us, fam.t_end_us, fam.n_events)
            for i, row in enumerate(zip(*(c.tolist() for c in columns))):
                lines.append(f"{fam.label},{i}," + ",".join(map(str, row)))
    with _stage(out, "write"):
        out.write("windows.csv", ("\n".join(lines) + "\n").encode("utf-8"))


def cmd_describe(args, cfg: PipelineConfig, out: _Outputs) -> None:
    with _stage(out, "config"):
        _check_labels(cfg)
    seqs, _ = _describe_events(out, "events", args.events, cfg)
    with _stage(out, "write"):
        for seq in seqs:
            out.write(f"descriptors_{_slug(seq.label)}.csv", write_descriptors(seq))


def cmd_distance(args, cfg: PipelineConfig, out: _Outputs) -> dict:
    with _stage(out, "read-descriptors"):
        q_seq = out.read("query", args.query, load_descriptors, _stem(args.query))
        r_seq = out.read("reference", args.reference, load_descriptors, _stem(args.reference))
    with _stage(out, "distance"):
        matrix = build_distance_matrix(q_seq, r_seq, cfg.metric)
    with _stage(out, "write"):
        out.write("distance.csv", write_matrix_csv(matrix))
    return {"label": matrix.member_label}


def cmd_ensemble(args, cfg: PipelineConfig, out: _Outputs) -> dict:
    with _stage(out, "config"):
        cfg.rule.check_members(len(args.members))
    with _stage(out, "read-matrices"):
        members = [out.read("member", path, read_matrix_csv, _stem(path)) for path in args.members]
    with _stage(out, "combine"):
        fused = combine(members, cfg.rule)
    with _stage(out, "write"):
        out.write("ensemble.csv", write_matrix_csv(fused))
    return {"label": fused.member_label}


def _restrict_to_ground_truth(matrix: DistanceMatrix, anchors) -> tuple[DistanceMatrix, object, int]:
    """Interpolate truth onto the matrix's query times, dropping uncovered rows."""
    gt, keep = interpolate_ground_truth(anchors, matrix.query_t_us)
    dropped = int(matrix.n_queries - keep.sum())
    if dropped:
        values, query_t = (_read_only(a[keep]) for a in (matrix.values, matrix.query_t_us))
        matrix = DistanceMatrix(values, query_t, matrix.ref_t_us, matrix.member_label)
    return matrix, gt, dropped


def _pr_curve(matrix: DistanceMatrix, gt, cfg: PipelineConfig) -> list[EvalResult]:
    """Precision/recall over the configured sweep, or the matrix's own sweep."""
    sweep = cfg.sweep_values
    if sweep is None:
        sweep = default_similarity_sweep(matrix, cfg.sweep_points)
    return precision_recall_curve(matrix, gt, cfg.loc_threshold_us, sweep)


def cmd_evaluate(args, cfg: PipelineConfig, out: _Outputs) -> dict:
    with _stage(out, "read-inputs"):
        matrix = out.read("matrix", args.matrix, read_matrix_csv, _stem(args.matrix))
        anchors = out.read("ground_truth", args.gt, read_ground_truth_csv)
    with _stage(out, "evaluate"):
        matrix, gt, dropped = _restrict_to_ground_truth(matrix, anchors)
        full = precision_at_full_recall(matrix, gt, cfg.loc_threshold_us)
        curve = _pr_curve(matrix, gt, cfg)
    with _stage(out, "write"):
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


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)  # the shell's exit status for a SIGTERM


def _query_and_reference(out: _Outputs, query_side, reference_side):
    """``(query_side(), reference_side())``, the reference side in a forked worker.

    The two traverses are independent until the distance stage, so each
    side parses, filters and describes on a CPU and interpreter of its own.
    The worker records into its own copy of ``out``, emptied right after
    the fork, and sends back, pickled, its side's result or error with
    that copy's manifest inputs and --profile records, which join the
    caller's.  A failure is raised as the sequential order would raise it,
    the query side's first; on any exception in the caller, including the
    ``SystemExit`` a SIGTERM raises while the worker lives, the worker is
    killed at once, and no worker outlives this call.  A worker whose
    caller is gone exits silently; on Linux the kernel kills it when its
    caller is killed outright (SIGKILL).
    """
    import signal

    # flushed first, so that the child holds no copy of pending output
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    parent = os.getpid()
    # Until the worker is reaped, a SIGTERM raises SystemExit and so kills
    # the worker below.  Set before the fork: no SIGTERM finds a live worker
    # and the default action.
    previous = signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
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
                # The kernel sends the SIGKILL when the forking thread ends,
                # and that thread waits for this worker unless the whole
                # caller is killed.  A caller gone before the prctl has
                # already left this worker another parent.
                prctl = _libc_function("prctl", ctypes.c_int, ctypes.c_ulong)
                if prctl is not None:
                    prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
                if os.getppid() != parent:
                    os._exit(code)
                signal.signal(signal.SIGTERM, previous)
                os.close(read_fd)
                out.inputs.clear()
                out.stages = None if out.stages is None else []
                try:
                    outcome = reference_side()
                except BaseException as e:  # re-raised in the caller below
                    outcome = e
                with open(write_fd, "wb") as pipe:
                    pickle.dump((outcome, out.inputs, out.stages), pipe, pickle.HIGHEST_PROTOCOL)
                code = 0
            except BrokenPipeError:
                pass  # the caller is gone: nothing reads a result or a report
            except BaseException:
                sys.excepthook(*sys.exc_info())
            finally:
                # never return into the caller's stack (a test runner, a tracer)
                os._exit(code)
        os.close(write_fd)
        try:
            with open(read_fd, "rb") as pipe:
                query = query_side()
                payload = pipe.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            _, status = os.waitpid(pid, 0)
    finally:
        signal.signal(signal.SIGTERM, previous)
    if status != 0:
        code = os.waitstatus_to_exitcode(status)
        how = f"exited with code {code}"
        if code < 0:
            how = f"was killed by {signal.Signals(-code).name}"
        raise StageError("reference", f"worker process {how} before sending its result")
    reference, inputs, stages = pickle.loads(payload)
    out.inputs.update(inputs)
    if stages:
        out.stages += stages
    if isinstance(reference, BaseException):
        raise reference
    return query, reference


def cmd_run(args, cfg: PipelineConfig, out: _Outputs) -> dict:
    with _stage(out, "config"):
        event_mode = args.query is not None or args.reference is not None
        desc_mode = bool(args.query_descriptors) or bool(args.reference_descriptors)
        if event_mode and (args.query is None or args.reference is None):
            raise ConfigError("--query and --reference go together")
        if desc_mode and not (args.query_descriptors and args.reference_descriptors):
            raise ConfigError("--query-descriptors and --reference-descriptors go together")
        if event_mode == desc_mode:
            raise ConfigError("pass either event CSVs or descriptor CSVs, not both")
        labels = None
        if desc_mode:
            k, n_ref = len(args.query_descriptors), len(args.reference_descriptors)
            if k != n_ref:
                raise ConfigError(f"{k} query but {n_ref} reference descriptor files")
            pairs = zip(args.query_descriptors, args.reference_descriptors)
            labels = [pair_label(f"external_{_stem(q)}", f"external_{_stem(r)}") for q, r in pairs]
        cfg.rule.check_members(len(_check_labels(cfg, labels)))
    with _stage(out, "read-ground-truth"):
        anchors = out.read("ground_truth", args.gt, read_ground_truth_csv)

    if event_mode:
        (q_seqs, approx_query), (r_seqs, _) = _query_and_reference(
            out,
            lambda: _describe_events(out, "query", args.query, cfg, cfg.approximate_fraction),
            lambda: _describe_events(out, "reference", args.reference, cfg),
        )
    else:
        with _stage(out, "read-descriptors"):
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
    with _stage(out, "pipeline"):
        result = run_from_sequences(
            q_seqs,
            r_seqs,
            anchors,
            metric=cfg.metric,
            rule=cfg.rule,
            loc_threshold_us=cfg.loc_threshold_us,
            approximate_query=approx_query,
        )

    with _stage(out, "write"):
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
    args = build_parser().parse_args(argv)
    out = _Outputs(args.output, profile=bool(args.profile))
    try:
        with _stage(out, "config"):
            cfg = load_config(args.config, args.set)
            if args.profile:
                profile = Path(args.profile).resolve()
                if profile.is_dir() or Path(args.output).resolve() in (profile, *profile.parents):
                    raise ConfigError("--profile must be a file outside the output directory")
        notes = args.func(args, cfg, out)
        with _stage(out, "write"):
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
            with _stage(out, "profile"):
                Path(args.profile).write_bytes(
                    _json_bytes({"command": args.command, "stages": out.stages})
                )
    except StageError as e:
        print(f"evplace {args.command}: error {e}", file=sys.stderr)
        return 1
    return 0


def entry_point() -> int:
    """The ``evplace`` command: :func:`main` in a process set up for it.

    ``gc.freeze()`` moves every object the imports left out of the
    collector's reach, so neither the run nor the exit collects them again.
    Fixed malloc thresholds (glibc's ``mallopt``: mmap at 1 MiB, trim at
    4 MiB) keep the heap pages one parse block, filter chunk or describe
    frame frees for the next one, rather than giving them back to the
    kernel and faulting them in again; arrays of 1 MiB and more, such as
    event columns, are still mapped and unmapped on their own.  The ``run``
    worker inherits both.  ``EVPLACE_LOG`` sets the level of the stderr log
    handler installed here.  Only process entry does this; callers of
    :func:`main` keep the collector, the allocator and logging as they were.
    """
    level = getattr(logging, os.environ.get("EVPLACE_LOG", "warning").upper(), logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    gc.freeze()
    mallopt = _libc_function("mallopt", ctypes.c_int, ctypes.c_int)
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, 1 << 20)
        mallopt(_M_TRIM_THRESHOLD, 4 << 20)
    return main()


if __name__ == "__main__":
    sys.exit(entry_point())
