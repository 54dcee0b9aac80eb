"""uaris benchmark: closed-loop CLI workloads with end-to-end and per-layer metrics.

Run from the repository root (the program is read from ``src/``)::

    python3 perfbench/run.py --workload large_array --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload small_batch --seed 1 --seconds 40 --trace 1

Workloads are ``large_array`` and ``small_batch`` (see ``BENCHMARK.json``
for why each was chosen). Inputs are generated from
``--seed``. Each run starts the workload in a fresh child process
(``worker.py``) with one client and BLAS threads pinned to one.

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``setup_s``: spawn of a fresh interpreter until the first job is ready
  (``import uaris.cli``, numpy included, plus writing the scenario files);
  the median of :data:`SETUP_SAMPLES` spawns;
* ``jobs_per_s``, ``job_p50_s``, ``job_p90_s``: over whole passes of the
  job list, at least ``--seconds`` of job time and 100 jobs;
* ``peak_rss_mb``: the child's ``ru_maxrss``.

The CPUs of a shared host change speed for seconds to minutes at a time, so
every timing above is scaled to a nominal host speed (``speed.py``): a fixed
calibration loop is timed right after each job and right before each spawn,
and each time is multiplied by the loop's nominal time over its measured
time. The unscaled wall times are printed beside them and saved.

``--trace 1`` wraps the public functions of each ``uaris`` module and prints
the per-layer metrics of ``spans.METRICS``. Every job's artifacts are checked
in both modes; a failed job or check counts in ``failed`` and makes
``correct`` false. The last stdout line is the JSON result; the environment
(Python, numpy, git commit, nproc, seed) is printed before it and saved with
the result under ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import METRICS  # noqa: E402
from speed import at_nominal_speed, calibration_s  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 15
CALIBRATION_SAMPLES = 5
TIME_LIMIT_S = 170.0
END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "peak_rss_mb": "MB",
}
# One client, no threads: keep BLAS from starting a pool behind numpy.
_CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
}


def git_commit(root: Path) -> str:
    """Commit of ``root`` read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _spawn(worker_args: list[str], deadline: float) -> tuple[float, float, dict | None]:
    """Start a worker; return the seconds until it printed ``ready``, the
    calibration loop's time measured just before, and its JSON result."""
    env = {**os.environ, **_CHILD_ENV}
    cmd = [sys.executable, str(HERE / "worker.py"), *worker_args]
    calibration = statistics.median(calibration_s() for _ in range(CALIBRATION_SAMPLES))
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode} before finishing")
    lines = out.strip().splitlines()
    return setup, calibration, json.loads(lines[-1]) if lines else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="uaris closed-loop benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so the ``finally`` in _spawn stops the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "uaris" / "cli.py").is_file():
        print(f"error: no uaris sources under {ROOT / 'src'}; run from a repository checkout", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + TIME_LIMIT_S
    base = ROOT / ".perfbench_work"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = base / f"{tag}-{os.getpid()}"
    (base / "results").mkdir(parents=True, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = []  # (wall seconds, calibration seconds)
        if not args.trace:
            for i in range(SETUP_SAMPLES - 1):
                setup, calibration, _ = _spawn([*common, "--work", str(run_dir / f"setup{i}"), "--setup-only"], deadline)
                setups.append((setup, calibration))
        setup, calibration, result = _spawn(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work", str(run_dir / "run"), "--spans", str(base / "results" / f"{tag}-spans.csv.gz")],
            deadline,
        )
        setups.append((setup, calibration))
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    env = {**result["environment"], "commit": git_commit(ROOT), "seed": args.seed, "workload": args.workload}
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    wall = {}
    if args.trace:
        metrics = {name: {"value": result["metrics"][name], "unit": METRICS[name][0]} for name in METRICS}
    else:
        values = {"setup_s": statistics.median(at_nominal_speed(s, c) for s, c in setups), **result["metrics"]}
        wall = {"setup_s": statistics.median(s for s, _ in setups), **result["wall_metrics"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    samples = result["samples"]
    print(f"{args.workload}: {samples} jobs in {result['passes']} passes of {result['jobs_per_pass']}")
    for name, m in metrics.items():
        note = ""
        if name == "setup_s":
            note = f"  (median of {len(setups)} spawns)"
        elif name in ("job_p50_s", "job_p90_s", "jobs_per_s"):
            note = f"  (n={samples})"
        if name in wall:
            note += f"  wall {wall[name]:.6g} {m['unit']}"
        print(f"  {name:38s} {m['value']:.6g} {m['unit']}{note}")
    error_rate = result["failed"] / result["attempted"]
    print(f"  {'error_rate':38s} {error_rate:.6g} ratio  ({result['failed']} of {result['attempted']} jobs failed)")
    for failure in result["failures"]:
        print(f"  failure: {failure}")
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    (base / "results" / f"{tag}.json").write_text(
        json.dumps({**line, "wall_metrics": wall, "environment": env, "passes": result["passes"],
                    "median_s_by_job": result.get("median_s_by_job")}, indent=2) + "\n"
    )
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
