"""Benchmark of the evplace command line on seeded synthetic workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload bench --seed 1 --seconds 10 --trace 0

Load model: a closed loop with one client.  Every timed run is one fresh
``evplace`` process, started after the previous one has exited, so nothing
runs concurrently.  Inputs are generated from ``--seed`` by a child
process before timing starts and are not part of any metric.  ``--seconds``
covers the set-up probes and the invocations; no invocation is started that
would, at the length of the last, end after it.  Every invocation's output
directory is checked byte for byte (see ``workloads.py``); a non-zero exit,
a timeout or a mismatch counts as a failed attempt.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
The times are host-speed corrected: a calibration child (``calibrate.py``,
fixed work that never changes with the program) runs before every
invocation's set-up probe and once after the last invocation.  An
invocation's wall time is divided by the calibration's work time next to it
and multiplied by ``CAL_WORK_REF_S``; a probe's time is divided by the
calibration's start-up time (interpreter start, numpy import, exit) and
multiplied by ``CAL_START_REF_S``.  On a shared host whose speed drifts by
up to 1.8x for minutes at a time, these ratios are steady where raw times
are not; ``run_s`` and ``setup_s`` are the medians of the corrected times.
The raw wall times and the calibration times are printed above the result.
``--trace 1`` alternates untraced invocations with traced ones
(``tracing.py``) and reports the per-layer metrics.  The last line of
standard output is the JSON result; the lines before it are a readable
report with provenance, sample counts and, when traced, every span's total
and self time.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
# About the calibration's work and start-up times on the 2-CPU host the
# benchmark was built on, in its fast stretches; corrected times are in
# seconds of that host.
CAL_WORK_REF_S = 0.16
CAL_START_REF_S = 0.14
SETUP_PROBES_PER_INVOCATION = 1
CLI_TIMEOUT_S = 120.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# Set-up as a user pays it: a fresh interpreter imports the CLI and loads
# the workload's config, without reading any input.
SETUP_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import evplace.cli\n"
    "evplace.cli.load_config(sys.argv[1])\n"
    "print(repr(time.perf_counter() - t0))\n"
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("EVPLACE_LOG", None)
    # The same string hashing in every child, so set and dict order never varies.
    env["PYTHONHASHSEED"] = "0"
    # No more BLAS/OpenMP threads than the CPUs this process may use.
    for var in THREAD_VARS:
        env.setdefault(var, str(len(os.sched_getaffinity(0))))
    return env


def invoke(cmd: list[str], env: dict, log: Path) -> dict:
    """Run one child to completion; wall time and the child's own peak RSS."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        killed = []
        timer = threading.Timer(CLI_TIMEOUT_S, lambda: (killed.append(True), proc.kill()))
        timer.start()
        try:
            # wait4 reports this child's rusage alone; RUSAGE_CHILDREN would
            # be the running maximum over every child reaped so far.
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "code": proc.returncode,
        "timed_out": bool(killed),
    }


def setup_probe(config: Path, env: dict) -> float:
    cmd = [sys.executable, "-c", SETUP_PROBE, str(config)]
    out = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, check=True)
    return float(out.stdout.strip())


def calibrate(env: dict, log: Path) -> tuple[float, float]:
    """Work and start-up seconds of one run of the fixed calibration work."""
    res = invoke([sys.executable, str(HERE / "calibrate.py")], env, log)
    fields = log.read_text().split()
    if res["code"] != 0 or res["timed_out"] or len(fields) != 2:
        raise RuntimeError(f"calibration failed: {log.read_text()[-2000:]}")
    work = float(fields[1])
    return work, res["wall_s"] - work


def generate_inputs(workload: str, variant: int, workdir: Path, env: dict):
    """Inputs written by a child process, so this process stays small."""
    cmd = [sys.executable, str(HERE / "workloads.py"), workload, str(variant), str(workdir)]
    out = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError(f"input generation failed: {out.stderr[-2000:]}")
    return workloads.Inputs.from_json(out.stdout.strip().splitlines()[-1])


def provenance(env: dict) -> dict:
    sha = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        sha = out.stdout.strip() or sha
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {v: env[v] for v in THREAD_VARS},
        "platform": platform.platform(),
    }


class Runner:
    """One workload variant: its inputs, invocations and output checks."""

    def __init__(self, workload, seed: int, workdir: Path):
        self.variant = seed % workloads.VARIANTS
        self.workdir = workdir
        self.env = child_env()
        self.inputs = generate_inputs(workload.name, self.variant, workdir, self.env)
        self.expected = workloads.expected_digests(workload.name, self.variant)
        self.outdir = workdir / "out"
        self.args = workload.cli_args(self.inputs, self.outdir)
        self.attempted = 0
        self.failed = 0
        self.summary = None

    def run(self, traced: bool) -> dict | None:
        """One checked invocation; ``None`` when it failed."""
        return self.check(self.launch(traced))

    def launch(self, traced: bool) -> dict:
        """Run the CLI once into a fresh output directory, unchecked."""
        shutil.rmtree(self.outdir, ignore_errors=True)
        spans = self.workdir / "spans.json"
        if traced:
            cmd = [sys.executable, str(HERE / "tracing.py"), str(spans), "--", *self.args]
        else:
            cmd = [sys.executable, "-m", "evplace.cli", *self.args]
        res = invoke(cmd, self.env, self.workdir / "cli.log")
        res["spans"] = spans if traced else None
        return res

    def problem(self, res: dict) -> str | None:
        """Why an invocation failed, or ``None`` when it succeeded."""
        if res["timed_out"]:
            return f"timed out after {CLI_TIMEOUT_S:.0f} s"
        if res["code"] != 0:
            return f"exit code {res['code']}: {(self.workdir / 'cli.log').read_text()[-2000:]}"
        if self.expected is None:
            return f"no recorded digests for variant {self.variant}"
        bad = workloads.mismatched_files(workloads.output_digests(self.outdir), self.expected)
        if bad:
            return "outputs differ from the reference: " + ", ".join(bad)
        return None

    def check(self, res: dict) -> dict | None:
        """Count the attempt; the result with its trace, or ``None`` on failure."""
        self.attempted += 1
        problem = self.problem(res)
        if problem:
            self.failed += 1
            print(f"FAILED {'traced ' if res['spans'] else ''}invocation: {problem}")
            return None
        if self.summary is None and (self.outdir / "summary.json").exists():
            self.summary = json.loads((self.outdir / "summary.json").read_text())
        if res["spans"]:
            res["trace"] = json.loads(res["spans"].read_text())
        res["bytes_written"] = sum(p.stat().st_size for p in self.outdir.iterdir())
        return res

    def precision(self, key: str) -> float:
        entry = (self.summary or {}).get(key)
        return float(entry["precision"]) if entry else 0.0


def repeat_until(deadline: float, step) -> None:
    """Call ``step`` once, then again while a call as long as the last would end by ``deadline``."""
    while True:
        t0 = time.perf_counter()
        step()
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            return


def keep(runs: list, res: dict | None) -> None:
    if res is not None:
        runs.append(res)


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Untraced invocations, each after set-up probes, all within ``seconds``.

    A calibration runs before each invocation's probes and once after the
    last invocation, so every probe and invocation has one close by: probes
    are corrected by the start-up time of the calibration just before them,
    an invocation by the mean work time of the two around it.
    """
    deadline = time.perf_counter() + seconds
    config, env = runner.inputs.config, runner.env
    cal_log = runner.workdir / "calibrate.log"
    setup_probe(config, env)  # compiles bytecode and warms the file cache
    calibrate(env, cal_log)
    cals, setup, runs = [], [], []

    def step() -> None:
        cals.append(calibrate(env, cal_log))
        setup.extend((setup_probe(config, env), cals[-1][1])
                     for _ in range(SETUP_PROBES_PER_INVOCATION))
        res = runner.run(traced=False)
        if res is not None:
            res["cal_index"] = len(cals) - 1
            runs.append(res)

    repeat_until(deadline, step)
    cals.append(calibrate(env, cal_log))
    if not runs:
        raise RuntimeError("every invocation failed")
    walls = [r["wall_s"] for r in runs]
    works = [c[0] for c in cals]
    ratios = [r["wall_s"] / statistics.fmean(works[r["cal_index"]:r["cal_index"] + 2])
              for r in runs]
    for name, values in (("run wall", walls), ("calibration work", works),
                         ("calibration start-up", [c[1] for c in cals]),
                         ("set-up probe", [s for s, _ in setup])):
        print(f"raw {name} over {len(values)} samples: fastest {min(values):.4f} s, "
              f"median {statistics.median(values):.4f} s, slowest {max(values):.4f} s")
    run_s = CAL_WORK_REF_S * statistics.median(ratios)
    metrics = {
        "run_s": run_s,
        "events_per_s": runner.inputs.total_events / run_s,
        "peak_rss_mb": statistics.median([r["rss_mb"] for r in runs]),
        "setup_s": CAL_START_REF_S * statistics.median([s / c for s, c in setup]),
    }
    n = len(runs)
    samples = {"run_s": n, "events_per_s": n, "peak_rss_mb": n, "setup_s": len(setup)}
    return metrics, samples


def per_layer(runner: Runner, seconds: float) -> tuple[dict, dict, dict, float]:
    """Layer metrics of the fastest traced invocation, so its spans add up to its wall."""
    plain, traced = [], []

    def pair() -> None:
        keep(plain, runner.run(traced=False))
        keep(traced, runner.run(traced=True))

    repeat_until(time.perf_counter() + seconds, pair)
    if not plain or not traced:
        raise RuntimeError("every untraced or every traced invocation failed")
    plain_run_s = min(r["wall_s"] for r in plain)
    fastest = min(traced, key=lambda r: r["wall_s"])
    metrics = tracing.layer_metrics(fastest["trace"], fastest["wall_s"])
    metrics["cli.bytes_read"] = sum(p.stat().st_size for p in runner.inputs.files.values())
    metrics["cli.bytes_written"] = fastest["bytes_written"]
    metrics["trace.overhead_frac"] = fastest["wall_s"] / plain_run_s - 1.0
    metrics["fused_precision"] = runner.precision("fused")
    metrics["approx_precision"] = runner.precision("approximate")
    metrics["failed_frac"] = runner.failed / runner.attempted
    samples = {key: 1 for key in metrics}
    samples["trace.overhead_frac"] = len(traced) + len(plain)
    samples["failed_frac"] = runner.attempted
    return metrics, samples, fastest, plain_run_s


def print_spans(run: dict, plain_run_s: float) -> None:
    """Every span's total and self time in one traced invocation."""
    total, self_time, calls = tracing.span_times(run["trace"]["spans"])
    print(f"traced wall {run['wall_s']:.4f} s; untraced run_s {plain_run_s:.4f} s")
    print(f"{'span':40s} {'calls':>7s} {'total_s':>10s} {'self_s':>10s}")
    for name in sorted(total, key=lambda k: -total[k]):
        print(f"{name:40s} {calls[name]:7d} {total[name]:10.4f} {self_time[name]:10.4f}")
    uncovered = run["wall_s"] - total[tracing.ROOT]
    print(f"{'(uncovered: start-up, imports, exit)':40s} {'':7s} {uncovered:10.4f}")
    for target in run["trace"]["missing"]:
        print(f"note: {target} does not exist, so it was not traced")
    for error in run["trace"]["counter_errors"]:
        print(f"note: counter of {error}")


def emit(kind: str, metrics: dict, samples: dict, runner: Runner) -> dict:
    spec = json.loads(SPEC.read_text())[kind]
    out = {}
    for m in spec:
        if m["name"] not in metrics:
            raise KeyError(f"metric {m['name']} was not measured")
        out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:36s} {metrics[m['name']]:>16.6g} {m['unit']:10s} n={samples[m['name']]}")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": out,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A termination request unwinds like an error, so every child is killed
    # and waited for and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "evplace" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"no evplace sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = scratch / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        runner = Runner(workloads.WORKLOADS[args.workload], args.seed, workdir)
        print(f"workload {args.workload}, seed {args.seed}, variant {runner.variant}")
        for role, path in runner.inputs.files.items():
            events = runner.inputs.events.get(role)
            print(f"input {role}: {path.name} sha256 {workloads.sha256_file(path)}"
                  + (f" events {events}" if events is not None else ""))
        print("provenance " + json.dumps(provenance(runner.env), sort_keys=True))
        if args.trace:
            metrics, samples, fastest, plain_run_s = per_layer(runner, args.seconds)
            print_spans(fastest, plain_run_s)
            result = emit("per_layer", metrics, samples, runner)
        else:
            metrics, samples = end_to_end(runner, args.seconds)
            result = emit("end_to_end", metrics, samples, runner)
    except RuntimeError as e:
        print(f"{args.workload}: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # Children spawned with vfork start from this process's high-water mark.
    harness_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"harness peak RSS {harness_mb:.1f} MB (a floor under every child's peak RSS)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
