"""One workload in one fresh process: set up, warm up, run the closed loop.

Started by ``run.py``; not meant to be run by hand. Prints ``ready`` on
stdout once ``uaris.cli`` is imported and the inputs are written (the parent
times set-up to that line), then one JSON line with the run's results.

One client, no threads: each job is ``uaris.cli.main(argv)`` called
in-process, so it is one real CLI run minus interpreter start-up. Every job's
artifacts are checked after it returns; the checks, the clean-up of the
output directory and a ``gc.collect()`` happen outside the timed region.
Objects alive after the warm-up are frozen out of the collector. Right after
each job the calibration loop of ``speed.py`` is timed, and the end-to-end
timings are the job times scaled to the loop's nominal speed; the wall times
are reported beside them.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import uaris  # noqa: E402
import uaris.cli  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

MIN_TIMED_JOBS = 100  # p90 then has at least 10 samples beyond it
WALL_CAP_S = 140.0  # stop early rather than overrun the caller's time limit
_FAILURES_KEPT = 5


class Runner:
    """Runs jobs of one plan and keeps the failure tally."""

    def __init__(self, plan: workloads.Plan, work: Path):
        self.plan = plan
        self.inputs = work / "inputs"
        self.out = work / "out"
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.artifact_bytes = 0

    def run(self, index: int, job: workloads.Job, tracer: spans.Tracer | None = None) -> tuple[float, float]:
        """Run and check one job; returns its wall time and the time of the
        calibration loop run right after it, in seconds."""
        shutil.rmtree(self.out, ignore_errors=True)
        argv = job.argv(self.inputs, self.out)
        stderr = io.StringIO()
        error = None
        gc.collect()
        with contextlib.redirect_stderr(stderr):
            span = tracer.job_span(index) if tracer is not None else contextlib.nullcontext()
            t0 = time.perf_counter()
            try:
                with span:
                    rc = uaris.cli.main(argv)
            except SystemExit as exc:  # argparse rejects argv
                rc = exc.code
            except Exception as exc:  # a traceback is a failed job, not a crashed benchmark
                rc, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
        calibration = speed.calibration_s()
        self.attempted += 1
        if error is None and rc != 0:
            error = f"exit code {rc}: {stderr.getvalue().strip()[-300:]}"
        if error is None:
            try:
                checks.check_job(job.command, job.flags, self.out, self.plan.scenarios[job.scenario])
            except (checks.CheckError, OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                error = f"check failed: {type(exc).__name__}: {exc}"
        if tracer is not None:
            self.artifact_bytes += sum(f.stat().st_size for f in self.out.iterdir() if f.is_file())
        if error is not None:
            self.failed += 1
            if len(self.failures) < _FAILURES_KEPT:
                self.failures.append(f"{job.label} ({job.scenario}): {error}")
        return elapsed, calibration

    def run_pass(self, first_index: int, tracer: spans.Tracer | None = None) -> list[tuple[float, float]]:
        return [self.run(first_index + i, job, tracer) for i, job in enumerate(self.plan.jobs)]


def _latency_metrics(latencies: list[float]) -> dict:
    return {
        "jobs_per_s": len(latencies) / sum(latencies),
        "job_p50_s": statistics.median(latencies),
        "job_p90_s": statistics.quantiles(latencies, n=10)[8],
    }


def _timed(runner: Runner, seconds: float, started: float) -> dict:
    """Closed loop over whole passes until ``seconds`` of job time and
    :data:`MIN_TIMED_JOBS` jobs, so every run measures the same job mix."""
    wall: list[float] = []
    latencies: list[float] = []  # scaled to the calibration loop's nominal speed
    passes = 0
    while (sum(wall) < seconds or len(wall) < MIN_TIMED_JOBS) and time.perf_counter() - started < WALL_CAP_S:
        for elapsed, calibration in runner.run_pass(len(wall)):
            wall.append(elapsed)
            latencies.append(speed.at_nominal_speed(elapsed, calibration))
        passes += 1
    by_label: dict[str, list[float]] = {}
    for job, latency in zip(runner.plan.jobs * passes, latencies):
        by_label.setdefault(job.label, []).append(latency)
    return {
        "passes": passes,
        "samples": len(latencies),
        "median_s_by_job": {label: statistics.median(v) for label, v in sorted(by_label.items())},
        "metrics": {
            **_latency_metrics(latencies),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "wall_metrics": _latency_metrics(wall),
    }


def _traced(runner: Runner, seconds: float, started: float, spans_path: Path) -> dict:
    """Alternate untraced and traced passes; per-layer metrics are per traced pass."""
    tracer = spans.Tracer()
    untraced = traced = 0.0
    passes = 0
    index = 0
    n = len(runner.plan.jobs)
    while passes == 0 or (untraced + traced < seconds and time.perf_counter() - started < WALL_CAP_S):
        untraced += sum(t for t, _ in runner.run_pass(index))
        index += n
        tracer.install()
        try:
            traced += sum(t for t, _ in runner.run_pass(index, tracer))
        finally:
            tracer.uninstall()
        index += n
        passes += 1
    tracer.write_spans(spans_path)
    return {
        "passes": 2 * passes,
        "samples": index,
        "metrics": spans.layer_metrics(tracer, passes, n, untraced, runner.artifact_bytes),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--spans", type=Path, help="where the traced run writes its spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if not Path(uaris.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: uaris imported from {uaris.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    plan = workloads.generate(args.workload, args.seed)
    plan.write(args.work / "inputs")
    print("ready", flush=True)
    if args.setup_only:
        return 0

    runner = Runner(plan, args.work)
    for i, job in enumerate(plan.warmup):
        runner.run(-1 - i, job)
    # Everything alive now lives for the whole run; freezing it keeps the
    # per-job collection (and any automatic one inside a job) short.
    gc.collect()
    gc.freeze()
    if args.trace:
        result = _traced(runner, args.seconds, started, args.spans or args.work / "spans.csv.gz")
    else:
        result = _timed(runner, args.seconds, started)
    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        failures=runner.failures,
        jobs_per_pass=len(plan.jobs),
        environment={
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "uaris": getattr(uaris, "__version__", "unknown"),
            "nproc": len(os.sched_getaffinity(0)),
        },
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
