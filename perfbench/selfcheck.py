"""Fast self-check of the benchmark harness, on the tiny workload.

Run from the root of a checkout::

    python3 perfbench/selfcheck.py

It checks that a run emits exactly the metric names of ``BENCHMARK.json``
with tracing off and on, that every span nests under ``cli.main``, that a
tampered output file (against recorded digests and against the golden
run) is counted as a failure, and that the benchmark refuses to run in a
directory without the program's sources.  Exits non-zero on the first
failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import tracing
import workloads

SPEC = json.loads(run.SPEC.read_text())


def check(ok: bool, what: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {what}")
    if not ok:
        sys.exit(1)


def check_golden_tamper(scratch: Path) -> None:
    copy = scratch / "golden"
    shutil.copytree(workloads.GOLDEN_DIR, copy)
    expected = workloads.expected_digests("bench", 0)
    check(not workloads.mismatched_files(workloads.output_digests(copy), expected),
          "golden copy matches the bench reference")
    target = copy / "summary.json"
    target.write_bytes(target.read_bytes().replace(b"1.0", b"0.9", 1))
    bad = workloads.mismatched_files(workloads.output_digests(copy), expected)
    check(bad == ["summary.json"], "a tampered golden file is named as a mismatch")


def last_json(cmd: list[str]) -> dict:
    out = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_metric_names() -> None:
    base = [sys.executable, str(run.HERE / "run.py"), "--workload", "tiny", "--seed", "1",
            "--seconds", "1"]
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        result = last_json(base + ["--trace", str(trace)])
        names = [m["name"] for m in SPEC[kind]]
        check(sorted(result) == ["attempted", "correct", "failed", "metrics"]
              and list(result["metrics"]) == names
              and all(result["metrics"][n]["unit"] == m["unit"]
                      for n, m in zip(names, SPEC[kind])),
              f"--trace {trace} emits exactly the {kind} metrics of BENCHMARK.json")
        check(result["correct"] and result["attempted"] >= 1 and result["failed"] == 0,
              f"--trace {trace} run on the tiny workload is correct")


def check_spans_and_tamper(scratch: Path) -> None:
    runner = run.Runner(workloads.WORKLOADS["tiny"], 1, scratch)
    res = runner.check(runner.launch(traced=True))
    check(res is not None and runner.failed == 0, "traced invocation passes its output check")
    spans = res["trace"]["spans"]
    roots = [i for i, s in enumerate(spans) if s[3] == -1]
    check(roots == [0] and spans[0][0] == tracing.ROOT, "the only root span is cli.main")
    nested = all(
        spans[s[3]][1] <= s[1] and s[2] <= spans[s[3]][2] and s[3] < i
        for i, s in enumerate(spans) if i
    )
    check(nested, "every span lies inside its parent, and all descend from cli.main")
    seen = {s[0] for s in spans}
    expected = set(tracing.SPANS) - {
        "events.remove_hot_pixels", "events.filter_bursts", "events.write_event_csv",
    }
    check(expected <= seen and not res["trace"]["missing"]
          and not res["trace"]["counter_errors"],
          "every traced layer function of a run was seen")

    res = runner.launch(traced=False)
    victim = runner.outdir / "dist_mean_of_9.csv"
    victim.write_bytes(victim.read_bytes() + b"\n")
    check(runner.check(res) is None and runner.failed == 1 and runner.attempted == 2,
          "a tampered output file is counted as a failed attempt")


def check_refuses_bare_directory(scratch: Path) -> None:
    bare = scratch / "bare"
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.SPEC, bare / run.SPEC.name)
    out = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "tiny", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    check(out.returncode != 0 and '"metrics"' not in out.stdout,
          "a directory holding only the benchmark exits non-zero without a result")


def main() -> int:
    if not (run.SRC / "evplace").is_dir():
        print(f"no evplace sources under {run.ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    scratch = run.ROOT / ".perfbench" / "selfcheck"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        check_golden_tamper(scratch)
        check_spans_and_tamper(scratch)
        check_metric_names()
        check_refuses_bare_directory(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
