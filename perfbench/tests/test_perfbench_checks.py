"""Each output check accepts real artifacts and rejects a corrupted one."""

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import pytest  # noqa: E402

import checks  # noqa: E402
import uaris.cli  # noqa: E402
import workloads  # noqa: E402


def _run(plan, label, tmp_path):
    job = next(j for j in plan.jobs if j.label == label)
    plan.write(tmp_path / "inputs")
    out = tmp_path / "out"
    with contextlib.redirect_stderr(io.StringIO()):
        assert uaris.cli.main(job.argv(tmp_path / "inputs", out)) == 0
    scenario = plan.scenarios[job.scenario]
    checks.check_job(job.command, job.flags, out, scenario)
    return job, out, scenario


def _edit_json(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


@pytest.fixture(scope="module")
def small():
    return workloads.generate("small_batch", 3)


def test_assignment_magnitude_above_one_is_rejected(small, tmp_path):
    job, out, scenario = _run(small, "steer-q:4x2", tmp_path)
    _edit_json(out / "assignment.json", lambda d: d["elements"]["0"].update(quantized_re=1.2, quantized_im=0.0))
    with pytest.raises(checks.CheckError, match=r"\|gamma\|"):
        checks.check_job(job.command, job.flags, out, scenario)


def test_main_lobe_off_target_is_rejected(small, tmp_path):
    job, out, scenario = _run(small, "steer:8x4", tmp_path)
    metrics = json.loads((out / "metrics.json").read_text())
    metrics["main_lobe_deg"] += 2 * scenario["sweep"]["step_deg"]
    with pytest.raises(checks.CheckError, match="more than one step"):
        checks.check_main_lobe_on_target(metrics, scenario, "metrics.json")


def test_pattern_off_the_array_factor_is_rejected(small, tmp_path):
    job, out, scenario = _run(small, "steer:8x8", tmp_path)
    path = out / "pattern.csv"
    lines = path.read_text().splitlines()
    peak_row = 1 + max(range(len(lines) - 1), key=lambda i: float(lines[1 + i].split(",")[1]))
    angle, mag, phase, norm = lines[peak_row].split(",")
    lines[peak_row] = ",".join([angle, mag, repr(float(phase) + 1e-6), norm])  # 1e-6 of peak
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckError, match="deviates from the array factor"):
        checks.check_job(job.command, job.flags, out, scenario)


def test_compare_with_inconsistent_deltas_is_rejected(small, tmp_path):
    job, out, scenario = _run(small, "compare:4x4", tmp_path)
    _edit_json(out / "comparison.json", lambda d: d["deltas"]["synthetic_vs_1bit"].update(hpbw_delta_deg=9.0))
    with pytest.raises(checks.CheckError, match="hpbw"):
        checks.check_job(job.command, job.flags, out, scenario)


def test_link_range_off_the_equation_is_rejected(small, tmp_path):
    job, out, scenario = _run(small, "link:2x2", tmp_path)
    _edit_json(out / "link.json", lambda d: d["ranges"]["alpha_1"].update(
        extended_range_km=d["ranges"]["alpha_1"]["extended_range_km"] * (1 + 1e-6)))
    with pytest.raises(checks.CheckError, match="range equation"):
        checks.check_job(job.command, job.flags, out, scenario)


def test_tank_ratio_off_prediction_is_rejected(small, tmp_path):
    job, out, scenario = _run(small, "tank:5taps:0.03s", tmp_path)
    _edit_json(out / "tank.json", lambda d: d.update(differential_amplitude=d["differential_amplitude"] * 1.01))
    with pytest.raises(checks.CheckError, match="differential ratio"):
        checks.check_job(job.command, job.flags, out, scenario)


def test_truncated_waveform_is_rejected(small, tmp_path):
    job, out, scenario = _run(small, "tank:16taps:0.03s", tmp_path)
    path = out / "differential.csv"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    with pytest.raises(checks.CheckError, match="samples"):
        checks.check_job(job.command, job.flags, out, scenario)
