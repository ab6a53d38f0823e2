"""Traced evplace CLI run: spans and counters recorded from outside the program.

Run from the checkout root as::

    PYTHONPATH=src python3 perfbench/tracing.py OUT.json -- <evplace arguments>

Each layer's public functions are wrapped at the names their callers import
(``evplace.cli.parse_event_csv``, ``evplace.pipeline.build_distance_matrix``,
``evplace.descriptors.align_to_time``, ...) and ``evplace.cli.main`` runs
in-process under a root span.  Every wrapper records a span (name, start,
end, parent) and adds counts read from the call's arguments and return value.
Spans and counters stay in memory and are written to ``OUT.json`` when the
run ends; :func:`layer_metrics` turns them into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _count_parse(c, a, kw, r):
    c["events.events_parsed"] += len(r)


def _count_write_events(c, a, kw, r):
    c["events.bytes_written"] += len(r)


def _count_hot_pixels(c, a, kw, r):
    stream, flagged = r
    c["events.hot_pixels_flagged"] += len(flagged)
    c["events.hot_pixel_events_removed"] += len(_arg(a, kw, 0, "stream")) - len(stream)
    c["events.filter_calls"] += 1


def _count_bursts(c, a, kw, r):
    c["events.burst_events_removed"] += len(_arg(a, kw, 0, "stream")) - len(r)
    c["events.filter_calls"] += 1


def _count_grid(c, a, kw, r):
    c["windowing.grid_points"] += len(r)


def _count_window_set(c, a, kw, r):
    for family in r.families:
        c["windowing.windows"] += len(family)
        c["windowing.empty_windows"] += sum(w.is_empty for w in family.windows)


def _count_split(c, a, kw, r):
    c["windowing.windows"] += len(r)


def _count_align(c, a, kw, r):
    c["windowing.align_calls"] += 1


def _count_describe(c, a, kw, r):
    n_families = len(_arg(a, kw, 0, "window_set").families)
    c["descriptors.frames_requested"] += n_families * len(_arg(a, kw, 2, "grid"))


def _count_accumulate(c, a, kw, r):
    c["descriptors.frames_computed"] += 1


def _count_distance(c, a, kw, r):
    c["distance.matrices"] += 1
    c["distance.cells"] += int(r.values.size)


def _count_eval(c, a, kw, r):
    c["evaluation.queries_scored"] += r.total_queries


def _count_dropped(c, a, kw, r):
    c["pipeline.dropped_grid_points"] += r.dropped_grid_points


# span name -> (the "module:attribute" names it is installed at, counter)
SPANS = {
    "config.load_config": (["evplace.cli:load_config"], None),
    "evaluation.read_ground_truth_csv": (["evplace.cli:read_ground_truth_csv"], None),
    "events.parse_event_csv": (["evplace.cli:parse_event_csv"], _count_parse),
    "events.remove_hot_pixels": (["evplace.cli:remove_hot_pixels"], _count_hot_pixels),
    "events.filter_bursts": (["evplace.cli:filter_bursts"], _count_bursts),
    "events.write_event_csv": (["evplace.cli:write_event_csv"], _count_write_events),
    "pipeline.run_place_recognition": (["evplace.cli:run_place_recognition"], None),
    "pipeline.run_from_sequences": (["evplace.pipeline:run_from_sequences"], _count_dropped),
    "windowing.sample_grid": (["evplace.pipeline:sample_grid"], _count_grid),
    "windowing.build_window_set": (["evplace.pipeline:build_window_set"], _count_window_set),
    "windowing.split_fixed_count": (["evplace.pipeline:split_fixed_count"], _count_split),
    "windowing.align_to_time": (["evplace.descriptors:align_to_time"], _count_align),
    "descriptors.describe_window_set": (
        ["evplace.pipeline:describe_window_set"],
        _count_describe,
    ),
    "descriptors.accumulate_image": (["evplace.descriptors:accumulate_image"], _count_accumulate),
    "descriptors.sad_descriptor": (["evplace.descriptors:sad_descriptor"], None),
    "distance.build_distance_matrix": (
        ["evplace.pipeline:build_distance_matrix", "evplace.ensemble:build_distance_matrix"],
        _count_distance,
    ),
    "distance.write_matrix_csv": (["evplace.cli:write_matrix_csv"], None),
    "ensemble.combine": (["evplace.pipeline:combine"], None),
    "ensemble.approximate_combine": (["evplace.pipeline:approximate_combine"], None),
    "evaluation.interpolate_ground_truth": (["evplace.pipeline:interpolate_ground_truth"], None),
    "evaluation.precision_at_full_recall": (
        ["evplace.pipeline:precision_at_full_recall"],
        _count_eval,
    ),
    "evaluation.default_similarity_sweep": (["evplace.cli:default_similarity_sweep"], None),
    "evaluation.precision_recall_curve": (["evplace.cli:precision_recall_curve"], None),
    "evaluation.write_eval_results_csv": (["evplace.cli:write_eval_results_csv"], None),
}
ROOT = "cli.main"


class Tracer:
    """In-memory spans ``[name, start, end, parent]`` and named counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self.counter_errors: list[str] = []
        self._stack: list[int] = []

    def call(self, name, fn, counter, args, kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()
        if counter is not None:
            try:
                counter(self.counters, args, kwargs, result)
            except (AttributeError, TypeError, KeyError, IndexError) as e:
                # The program's API moved under the counter: report, don't fail the run.
                self.counter_errors.append(f"{name}: {e!r}")
        return result

    def wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            return self.call(name, fn, counter, args, kwargs)

        return traced

    def install(self) -> None:
        """Replace every name in ``SPANS`` that exists with a traced wrapper."""
        for span, (targets, counter) in SPANS.items():
            for target in targets:
                module_name, attr = target.split(":")
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.append(target)
                    continue
                setattr(module, attr, self.wrap(span, fn, counter))


def span_times(spans) -> tuple[dict, dict, dict]:
    """Per span name: total time, self time (minus child spans) and calls."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    total, self_time, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    for i, (name, start, end, _) in enumerate(spans):
        total[name] += end - start
        self_time[name] += end - start - child[i]
        calls[name] += 1
    return total, self_time, calls


def layer_metrics(trace: dict, traced_wall_s: float) -> dict:
    """Per-layer metrics of one traced run (see BENCHMARK.json ``per_layer``)."""
    total, self_time, _ = span_times(trace["spans"])
    c = defaultdict(int, trace["counters"])
    parsed = c["events.events_parsed"]
    removed = c["events.hot_pixel_events_removed"] + c["events.burst_events_removed"]
    build_s = total["distance.build_distance_matrix"]
    requested = c["descriptors.frames_requested"]
    eval_spans = (
        "evaluation.interpolate_ground_truth",
        "evaluation.precision_at_full_recall",
        "evaluation.default_similarity_sweep",
        "evaluation.precision_recall_curve",
        "evaluation.write_eval_results_csv",
    )
    return {
        "events.parse_s": total["events.parse_event_csv"],
        "events.events_parsed": parsed,
        "events.write_s": total["events.write_event_csv"],
        "events.bytes_written": c["events.bytes_written"],
        "events.hot_pixels_s": total["events.remove_hot_pixels"],
        "events.bursts_s": total["events.filter_bursts"],
        "events.hot_pixels_flagged": c["events.hot_pixels_flagged"],
        "events.hot_pixel_events_removed": c["events.hot_pixel_events_removed"],
        "events.burst_events_removed": c["events.burst_events_removed"],
        # With both filters off every parsed event passes: the fraction is 1.
        "events.filter_keep_frac": (
            1.0 - removed / parsed if c["events.filter_calls"] and parsed else 1.0
        ),
        "windowing.build_window_set_s": (
            total["windowing.build_window_set"] + total["windowing.split_fixed_count"]
        ),
        "windowing.align_s": total["windowing.align_to_time"],
        "windowing.align_calls": c["windowing.align_calls"],
        "windowing.windows": c["windowing.windows"],
        "windowing.empty_windows": c["windowing.empty_windows"],
        "windowing.grid_points": c["windowing.grid_points"],
        "descriptors.describe_self_s": self_time["descriptors.describe_window_set"],
        "descriptors.accumulate_s": total["descriptors.accumulate_image"],
        "descriptors.sad_s": total["descriptors.sad_descriptor"],
        "descriptors.frames_requested": requested,
        "descriptors.frames_computed": c["descriptors.frames_computed"],
        "descriptors.reuse_frac": (
            1.0 - c["descriptors.frames_computed"] / requested if requested else 0.0
        ),
        "distance.build_s": build_s,
        "distance.matrices": c["distance.matrices"],
        "distance.cells": c["distance.cells"],
        "distance.cells_per_s": c["distance.cells"] / build_s if build_s else 0.0,
        "ensemble.combine_s": total["ensemble.combine"],
        "ensemble.approximate_self_s": self_time["ensemble.approximate_combine"],
        "evaluation.read_gt_s": total["evaluation.read_ground_truth_csv"],
        "evaluation.eval_s": sum(total[s] for s in eval_spans),
        "evaluation.queries_scored": c["evaluation.queries_scored"],
        "pipeline.self_s": (
            self_time["pipeline.run_place_recognition"]
            + self_time["pipeline.run_from_sequences"]
        ),
        "pipeline.dropped_grid_points": c["pipeline.dropped_grid_points"],
        "cli.self_s": self_time[ROOT],
        "cli.write_matrix_s": total["distance.write_matrix_csv"],
        "config.load_s": total["config.load_config"],
        "trace.uncovered_s": traced_wall_s - total[ROOT],
    }


def main(argv: list[str]) -> int:
    out, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracing.py OUT.json -- <evplace arguments>")
    import evplace.cli

    tracer = Tracer()
    tracer.install()
    code = tracer.call(ROOT, evplace.cli.main, None, (cli_args,), {})
    with open(out, "w") as fh:
        json.dump(
            {
                "spans": tracer.spans,
                "counters": dict(tracer.counters),
                "missing": tracer.missing,
                "counter_errors": sorted(set(tracer.counter_errors)),
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
