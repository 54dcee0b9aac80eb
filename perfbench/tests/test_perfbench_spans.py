"""Self-time arithmetic, wrapper transparency and the per-layer metric set."""

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import pytest  # noqa: E402

import spans  # noqa: E402
import uaris.beam  # noqa: E402
import uaris.cli  # noqa: E402
import uaris.geometry  # noqa: E402
import workloads  # noqa: E402


def test_self_time_on_hand_built_tree():
    # root [0, 10] with children a [1, 4] and b [3, 6] (overlapping) and
    # c [8, 12] (runs past its parent); a has a child g [2, 3].
    start = [0.0, 1.0, 3.0, 8.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    parent = [-1, 0, 0, 0, 1]
    got = spans.self_times(start, end, parent)
    # root: 10 - |[1, 6] u [8, 10]| = 10 - 5 - 2
    assert got == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0])


def _jobs():
    small = workloads.generate("small_batch", 5)
    large = workloads.generate("large_array", 5)
    picked = [(small, j) for j in small.jobs]
    picked += [(large, next(j for j in large.jobs if j.label == "steer-q:16x16"))]
    return picked


def _run_all(picked, root: Path, tracer=None) -> dict[str, bytes]:
    files = {}
    for i, (plan, job) in enumerate(picked):
        inputs = root / plan.workload
        plan.write(inputs)
        out = root / f"out{i:02d}"
        span = tracer.job_span(i) if tracer else contextlib.nullcontext()
        with contextlib.redirect_stderr(io.StringIO()), span:
            assert uaris.cli.main(job.argv(inputs, out)) == 0
        files.update({f"{i:02d}/{p.name}": p.read_bytes() for p in sorted(out.iterdir())})
    return files


def test_wrappers_leave_artifacts_byte_identical(tmp_path):
    picked = _jobs()
    plain = _run_all(picked, tmp_path / "plain")
    originals = (uaris.cli.array_factor, uaris.beam.array_factor, uaris.geometry.ArrayGeometry.__dict__["from_json"])
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert uaris.cli.array_factor is not originals[0]
        assert uaris.beam.array_factor is uaris.cli.array_factor
        traced = _run_all(picked, tmp_path / "traced", tracer)
    finally:
        tracer.uninstall()
    assert (uaris.cli.array_factor, uaris.beam.array_factor, uaris.geometry.ArrayGeometry.__dict__["from_json"]) == originals
    assert traced.keys() == plain.keys()
    assert [k for k in plain if plain[k] != traced[k]] == []

    metrics = spans.layer_metrics(tracer, 1, len(picked), 1.0, 1)
    assert list(metrics) == list(spans.METRICS)
    assert metrics["scenario.load_calls"] == len(picked)
    tanks = len(workloads.SMALL_BATCH_TANKS)
    assert metrics["channel.samples_rendered"] == tanks * 2 * round(0.03 * workloads.TANK_SAMPLE_RATE_HZ)
    # quantize_gamma rebuilds the catalog for every element it quantizes
    assert metrics["hardware.catalog_builds_per_quantize"] == pytest.approx(
        metrics["hardware.quantize_gamma_calls"] / tracer_quantize_calls(tracer))
    assert 0.0 <= metrics["trace.uncovered_share"] < 0.5


def tracer_quantize_calls(tracer):
    nid = tracer.names.index("uaris.synthesis:quantize_assignment")
    return sum(1 for n in tracer.span_name if n == nid)


def test_benchmark_json_lists_every_layer_metric():
    doc = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == {k: u for k, (u, _) in spans.METRICS.items()}
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
