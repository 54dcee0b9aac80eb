"""Scenario validation and CLI artifact tests."""

import copy
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from uaris.channel import LinkBudgetParams, range_extension, rate_multiplier
from uaris.cli import main, run_scenario
from uaris.hardware import HardwareCatalog, catalog_gammas
from uaris.scenario import ScenarioError, load_scenario

REPO_SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

BASE_SCENARIO = {
    "frequency_hz": 28000.0,
    "sound_speed_mps": 1500.0,
    "array": {"rows": 4, "cols": 2, "spacing_wavelengths": 2.0},
    "incident": {"azimuth_deg": 0.0, "elevation_deg": 90.0},
    "target": {"azimuth_deg": -90.0, "elevation_deg": -45.0},
    "scheme": "synthetic",
    "sweep": {"plane": "yz", "start_deg": 180.0, "stop_deg": 250.0, "step_deg": 0.5},
    "link": {"delta_snr_db": 2.9, "r_x_km": 0.5, "beta_db_per_km": 6.1},
    "power": {"vcc": 2.0, "hold_duration_s": 1.0},
}


@pytest.fixture
def scenario_file(tmp_path):
    def write(doc, name="scenario.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc, indent=1))
        return path

    return write


def sweep_sample_count(doc):
    s = doc["sweep"]
    return int(round((s["stop_deg"] - s["start_deg"]) / s["step_deg"])) + 1


class TestScenarioValidation:
    def test_valid_scenario_loads(self, scenario_file):
        scenario = load_scenario(scenario_file(BASE_SCENARIO))
        assert scenario.frequency_hz == 28000.0
        assert scenario.sweep.angles_deg.size == sweep_sample_count(BASE_SCENARIO)

    def test_unknown_scheme_names_field(self, scenario_file):
        doc = copy.deepcopy(BASE_SCENARIO)
        doc["scheme"] = "3bit"
        with pytest.raises(ScenarioError) as err:
            load_scenario(scenario_file(doc))
        assert err.value.field == "scheme"

    def test_unknown_top_level_field_rejected(self, scenario_file):
        doc = copy.deepcopy(BASE_SCENARIO)
        doc["frobnicate"] = 1
        with pytest.raises(ScenarioError) as err:
            load_scenario(scenario_file(doc))
        assert err.value.field == "frobnicate"

    def test_unknown_nested_field_rejected(self, scenario_file):
        doc = copy.deepcopy(BASE_SCENARIO)
        doc["sweep"]["plan"] = "yz"
        with pytest.raises(ScenarioError) as err:
            load_scenario(scenario_file(doc))
        assert err.value.field == "sweep.plan"

    def test_missing_required_field(self, scenario_file):
        doc = copy.deepcopy(BASE_SCENARIO)
        del doc["frequency_hz"]
        with pytest.raises(ScenarioError) as err:
            load_scenario(scenario_file(doc))
        assert err.value.field == "frequency_hz"

    def test_nonfinite_angle_rejected(self, scenario_file):
        doc = copy.deepcopy(BASE_SCENARIO)
        doc["incident"]["azimuth_deg"] = float("nan")
        with pytest.raises(ScenarioError) as err:
            load_scenario(scenario_file(doc))
        assert "azimuth" in err.value.field

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_explicit_scheme_needs_gammas(self, scenario_file):
        doc = copy.deepcopy(BASE_SCENARIO)
        doc["scheme"] = "explicit"
        with pytest.raises(ScenarioError) as err:
            load_scenario(scenario_file(doc))
        assert err.value.field == "gammas"

    @pytest.mark.parametrize(
        "ids, message",
        [(("0",), "missing element ids [1]"), (("0", "1", "2"), "unknown element ids [2]")],
    )
    def test_explicit_gammas_must_match_array_ids(self, scenario_file, ids, message):
        doc = copy.deepcopy(BASE_SCENARIO)
        doc["array"] = {"rows": 1, "cols": 2, "spacing_wavelengths": 0.5}
        doc["scheme"] = "explicit"
        doc["gammas"] = {i: {"re": 0.5, "im": 0.0} for i in ids}
        with pytest.raises(ScenarioError) as err:
            load_scenario(scenario_file(doc))
        assert err.value.field == "gammas"
        assert message in str(err.value)

    def test_explicit_gammas_follow_listed_position_ids(self, scenario_file):
        doc = copy.deepcopy(BASE_SCENARIO)
        doc["array"] = {"positions": [[0, 0, 0], [0.1, 0, 0]], "ids": [4, 9]}
        doc["scheme"] = "explicit"
        doc["gammas"] = {"4": {"re": 0.5, "im": 0.0}, "9": {"re": 0.5, "im": 0.0}}
        scenario = load_scenario(scenario_file(doc))
        assert set(scenario.gammas) == set(scenario.geometry.ids)

    def test_geometry_built_once(self, scenario_file):
        scenario = load_scenario(scenario_file(BASE_SCENARIO))
        assert scenario.geometry is scenario.geometry

    def test_directions_resolve_per_convention(self, scenario_file):
        scenario = load_scenario(scenario_file(BASE_SCENARIO))
        # Arrives from the zenith: propagates straight down.
        assert scenario.incident_wave.direction == pytest.approx([0, 0, -1])
        assert scenario.target_dir == pytest.approx(
            [0, -math.sqrt(0.5), -math.sqrt(0.5)]
        )


class TestSteerCommand:
    def test_artifacts_and_exit_code(self, scenario_file, tmp_path, capsys):
        path = scenario_file(BASE_SCENARIO)
        out = tmp_path / "out"
        assert main(["steer", "--scenario", str(path), "--out", str(out)]) == 0
        pattern = (out / "pattern.csv").read_text().strip().splitlines()
        assert pattern[0] == "angle_deg,magnitude,phase_rad,normalized"
        assert len(pattern) - 1 == sweep_sample_count(BASE_SCENARIO)
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["main_lobe_deg"] == pytest.approx(225.0, abs=2.0)
        assignment = json.loads((out / "assignment.json").read_text())
        assert len(assignment["elements"]) == 8
        assert json.loads((out / "link.json").read_text())["delta_snr_db"] == 2.9
        assert json.loads((out / "power.json").read_text())["standby_power_uw"] == pytest.approx(73.3)

    def test_byte_identical_reruns(self, scenario_file, tmp_path):
        path = scenario_file(BASE_SCENARIO)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_scenario(path, out1) == 0
        assert run_scenario(path, out2) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_input_file_not_mutated(self, scenario_file, tmp_path):
        path = scenario_file(BASE_SCENARIO)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        run_scenario(path, tmp_path / "out")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_malformed_scheme_exits_2_naming_field(self, scenario_file, tmp_path, capsys):
        doc = copy.deepcopy(BASE_SCENARIO)
        doc["scheme"] = "3bit"
        code = main(
            ["steer", "--scenario", str(scenario_file(doc)), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "scheme" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(
            ["steer", "--scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
        )
        assert code == 2

    def test_unpairable_geometry_exits_3(self, scenario_file, tmp_path, capsys):
        lam = 1500.0 / 28000.0
        doc = copy.deepcopy(BASE_SCENARIO)
        doc["array"] = {"positions": [[0, 0, 0], [0, lam, 0], [0, 2 * lam, 0]]}
        code = main(
            ["steer", "--scenario", str(scenario_file(doc)), "--out", str(tmp_path / "o")]
        )
        assert code == 3
        assert "solver error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "array, field",
        [
            ({"rows": 0, "cols": 2, "spacing_wavelengths": 0.5}, "array"),
            ({"rows": 2, "cols": 2}, "array"),
            ({"positions": [[0, 0, 0], [0.1, 0, 0]], "ids": [3, 3]}, "array"),
            ({"positions": [[0, 0, 0], [0.1, 0, 0.1]]}, "array"),
            ({"positions": [[0, 0], [0.1, 0]]}, "array"),
            ({"positions": []}, "array"),
            ({"positions": [[0.1 * i, 0, 0] for i in range(4)], "ids": [0, 1]}, "array.ids"),
            ({"positions": [[0, 0, 0], [0.1, 0, 0]], "ids": [0, 1, 9]}, "array.ids"),
        ],
        ids=[
            "zero-rows",
            "no-spacing",
            "duplicate-ids",
            "non-coplanar",
            "2d-positions",
            "no-positions",
            "fewer-ids",
            "more-ids",
        ],
    )
    def test_bad_array_exits_2_naming_field(
        self, array, field, scenario_file, tmp_path, capsys
    ):
        doc = copy.deepcopy(BASE_SCENARIO)
        doc["array"] = array
        code = main(
            ["steer", "--scenario", str(scenario_file(doc)), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert f"error: {field}: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "ids", [["a", "b", "c", "d"], [True, False, 2, 3], [0.0, 1.0, 2.0, 3.0], "0123"],
        ids=["strings", "bools", "floats", "not-a-list"],
    )
    def test_non_integer_ids_exit_2(self, ids, scenario_file, tmp_path, capsys):
        doc = copy.deepcopy(BASE_SCENARIO)
        doc["array"] = {"positions": [[0.1 * i, 0, 0] for i in range(4)], "ids": ids}
        code = main(
            ["steer", "--scenario", str(scenario_file(doc)), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "error: array.ids: " in capsys.readouterr().err

    @pytest.mark.parametrize("quantize", [False, True], ids=["ideal", "quantize"])
    def test_clipped_main_lobe_exits_3_without_artifacts(
        self, quantize, tmp_path, capsys
    ):
        # A 2-degree sweep cannot hold the main lobe's half-power crossings.
        doc = json.loads((REPO_SCENARIOS / "steer_225.json").read_text())
        doc["sweep"] = {"plane": "yz", "start_deg": 224.0, "stop_deg": 226.0, "step_deg": 0.5}
        path = tmp_path / "narrow.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        flags = ["--quantize"] if quantize else []
        assert main(["steer", "--scenario", str(path), "--out", str(out)] + flags) == 3
        assert "solver error: sweep: " in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_quantize_emits_quantized_views(self, tmp_path):
        out = tmp_path / "out"
        code = run_scenario(REPO_SCENARIOS / "steer_225.json", out, quantize=True)
        assert code == 0
        assert (out / "pattern_quantized.csv").exists()
        assert (out / "metrics_quantized.json").exists()
        assignment = json.loads((out / "assignment.json").read_text())
        entry = next(iter(assignment["elements"].values()))
        assert "load_state" in entry

    def test_quantize_without_catalog_exits_2(self, scenario_file, tmp_path, capsys):
        path = scenario_file(BASE_SCENARIO)  # no catalog section
        code = main(
            ["steer", "--scenario", str(path), "--out", str(tmp_path / "o"), "--quantize"]
        )
        assert code == 2
        assert "catalog" in capsys.readouterr().err

    def test_explicit_scheme(self, scenario_file, tmp_path):
        doc = copy.deepcopy(BASE_SCENARIO)
        doc["array"] = {"rows": 1, "cols": 2, "spacing_wavelengths": 0.5}
        doc["scheme"] = "explicit"
        doc["gammas"] = {
            "0": {"re": 0.9, "im": 0.0},
            "1": {"re": 0.9, "im": 0.0},
        }
        doc["sweep"] = {"plane": "xz", "start_deg": 0.0, "stop_deg": 180.0, "step_deg": 1.0}
        out = tmp_path / "out"
        assert run_scenario(scenario_file(doc), out) == 0
        assignment = json.loads((out / "assignment.json").read_text())
        assert assignment["scheme"] == "explicit"


class TestCompareCommand:
    def test_comparison_artifacts(self, scenario_file, tmp_path):
        path = scenario_file(BASE_SCENARIO)
        out = tmp_path / "out"
        code = main(
            [
                "compare",
                "--scenario",
                str(path),
                "--out",
                str(out),
                "--schemes",
                "synthetic,1bit",
            ]
        )
        assert code == 0
        doc = json.loads((out / "comparison.json").read_text())
        assert set(doc["metrics"]) == {"synthetic", "1bit"}
        assert "synthetic_vs_1bit" in doc["deltas"]
        assert (out / "pattern_synthetic.csv").exists()
        assert (out / "pattern_1bit.csv").exists()

    @pytest.mark.parametrize(
        "schemes, with_gammas, field",
        [
            ("synthetic,3bit", False, "--schemes"),
            ("synthetic,explicit", True, "--schemes"),
            ("synthetic", False, "--schemes"),
            ("synthetic,explicit", False, "gammas"),
        ],
    )
    def test_bad_scheme_list_exits_2(
        self, scenario_file, tmp_path, capsys, schemes, with_gammas, field
    ):
        doc = copy.deepcopy(BASE_SCENARIO)
        if with_gammas:
            doc["scheme"] = "explicit"
            doc["gammas"] = {str(i): {"re": 0.5, "im": 0.0} for i in range(8)}
        argv = ["compare", "--scenario", str(scenario_file(doc)), "--out", str(tmp_path / "o")]
        assert main(argv + ["--schemes", schemes]) == 2
        assert f"error: {field}:" in capsys.readouterr().err

    def test_clipped_main_lobe_exits_3_without_artifacts(self, scenario_file, tmp_path, capsys):
        doc = copy.deepcopy(BASE_SCENARIO)
        doc["sweep"] = {"plane": "yz", "start_deg": 224.0, "stop_deg": 226.0, "step_deg": 0.5}
        out = tmp_path / "o"
        code = main(["compare", "--scenario", str(scenario_file(doc)), "--out", str(out)])
        assert code == 3
        assert "solver error: sweep: " in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_quantize_without_catalog_exits_2(self, scenario_file, tmp_path, capsys):
        path = scenario_file(BASE_SCENARIO)  # no catalog section
        code = main(
            ["compare", "--scenario", str(path), "--out", str(tmp_path / "o"), "--quantize"]
        )
        assert code == 2
        assert "catalog" in capsys.readouterr().err


class TestArrayValidatedForEveryCommand:
    @pytest.mark.parametrize("command", ["link", "power", "tank", "catalog"])
    def test_zero_rows_exit_2_naming_array(self, command, scenario_file, tmp_path, capsys):
        doc = copy.deepcopy(BASE_SCENARIO)
        doc["array"] = {"rows": 0, "cols": 2, "spacing_wavelengths": 0.5}
        doc["tank"] = {"random_taps": 4}
        code = main([command, "--scenario", str(scenario_file(doc)), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error: array: " in capsys.readouterr().err


class TestDeterminism:
    def test_large_compare_independent_of_blas_threads(self, scenario_file, tmp_path):
        # A 64x64 lattice takes the separable array factor (a complex matrix
        # product); its artifacts must not depend on the BLAS thread count.
        doc = copy.deepcopy(BASE_SCENARIO)
        doc["array"] = {"rows": 64, "cols": 64, "spacing_wavelengths": 0.5}
        doc["sweep"] = {"plane": "yz", "start_deg": 180.0, "stop_deg": 360.0, "step_deg": 0.25}
        doc["catalog"] = {}
        del doc["link"], doc["power"]
        path = scenario_file(doc)
        src = Path(__file__).resolve().parent.parent / "src"
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"out{threads}"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": str(src)}
            argv = ["compare", "--scenario", str(path), "--out", str(out)]
            argv += ["--schemes", "synthetic,1bit,2bit", "--quantize"]
            subprocess.run([sys.executable, "-m", "uaris.cli", *argv], env=env, check=True)
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert len(outputs[0]) == 4
        assert outputs[0] == outputs[1]


class TestSubcommandFlags:
    @pytest.mark.parametrize(
        "command, flags",
        [
            ("link", ["--quantize"]),
            ("tank", ["--quantize"]),
            ("power", ["--seed", "7"]),
            ("steer", ["--format", "json"]),
        ],
    )
    def test_flag_of_another_subcommand_rejected(self, command, flags, tmp_path):
        argv = [command, "--scenario", str(REPO_SCENARIOS / "steer_225.json")]
        with pytest.raises(SystemExit) as err:
            main(argv + ["--out", str(tmp_path / "o"), *flags])
        assert err.value.code == 2


class TestTankCommand:
    def test_replay_artifacts(self, tmp_path):
        out = tmp_path / "out"
        code = run_scenario(REPO_SCENARIOS / "tank_replay.json", out, command="tank")
        assert code == 0
        for name in ("received_a.csv", "received_b.csv", "differential.csv", "tank.json"):
            assert (out / name).exists(), name
        report = json.loads((out / "tank.json").read_text())
        assert report["predicted_ratio_vs_open_short"] == 1.0
        assert report["differential_amplitude"] > 0

    def test_wav_flag(self, tmp_path):
        out = tmp_path / "out"
        code = run_scenario(
            REPO_SCENARIOS / "tank_replay.json", out, command="tank", wav=True
        )
        assert code == 0
        assert (out / "differential.wav").exists()

    def test_random_taps_seeded_deterministic(self, scenario_file, tmp_path):
        doc = copy.deepcopy(BASE_SCENARIO)
        del doc["link"]
        del doc["power"]
        doc["tank"] = {"random_taps": 5, "duration_s": 0.02}
        path = scenario_file(doc)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_scenario(path, out1, command="tank", seed=7) == 0
        assert run_scenario(path, out2, command="tank", seed=7) == 0
        assert (out1 / "tank.json").read_bytes() == (out2 / "tank.json").read_bytes()

    def test_missing_tank_section_exits_2(self, scenario_file, tmp_path, capsys):
        code = main(
            [
                "tank",
                "--scenario",
                str(scenario_file(BASE_SCENARIO)),
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == 2
        assert "tank" in capsys.readouterr().err


class TestLinkCommand:
    def test_report_matches_direct_computation(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        assert run_scenario(scenario_file(BASE_SCENARIO), out, command="link") == 0
        doc = json.loads((out / "link.json").read_text())
        assert doc["rate_multiplier"] == pytest.approx(rate_multiplier(2.9))
        expected = range_extension(LinkBudgetParams(2.0, 6.1, 0.5, 2.9))
        assert doc["ranges"]["alpha_2"]["extended_range_km"] == pytest.approx(expected)

    def test_absorption_default_when_beta_missing(self, scenario_file, tmp_path):
        doc = copy.deepcopy(BASE_SCENARIO)
        doc["link"] = {"delta_snr_db": 2.9, "r_x_km": 0.5}
        out = tmp_path / "out"
        assert run_scenario(scenario_file(doc), out, command="link") == 0
        report = json.loads((out / "link.json").read_text())
        assert report["beta_db_per_km"] == pytest.approx(6.097477, abs=1e-4)


class TestPowerCommand:
    def test_report_values(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        assert run_scenario(scenario_file(BASE_SCENARIO), out, command="power") == 0
        doc = json.loads((out / "power.json").read_text())
        assert doc["standby_power_uw"] == pytest.approx(73.3)
        assert doc["phase1_energy_uj"] == pytest.approx(197.664 + 49.0752)
        assert doc["phase2_energy_mj"] == pytest.approx(9.3)
        assert len(doc["reference_deviation"]) == 21
        assert (out / "reference_energy.csv").exists()


class TestCatalogCommand:
    def test_csv_listing(self, scenario_file, tmp_path):
        doc = copy.deepcopy(BASE_SCENARIO)
        out = tmp_path / "out"
        assert run_scenario(scenario_file(doc), out, command="catalog") == 0
        lines = (out / "catalog.csv").read_text().strip().splitlines()
        assert lines[0] == "state,re,im,magnitude,phase_rad"
        assert len(lines) - 1 == len(catalog_gammas(HardwareCatalog()))

    def test_json_listing(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        code = run_scenario(
            scenario_file(BASE_SCENARIO), out, command="catalog", format="json"
        )
        assert code == 0
        doc = json.loads((out / "catalog.json").read_text())
        assert any(entry["state"] == "C0.9" for entry in doc)


class TestShippedScenarios:
    @pytest.mark.parametrize("name", ["steer_225.json", "tank_replay.json"])
    def test_shipped_scenarios_validate(self, name):
        load_scenario(REPO_SCENARIOS / name)

    def test_emitted_json_round_trips(self, tmp_path):
        out = tmp_path / "out"
        run_scenario(REPO_SCENARIOS / "steer_225.json", out)
        for artifact in out.glob("*.json"):
            doc = json.loads(artifact.read_text())
            re_emitted = json.dumps(doc, indent=2, sort_keys=True) + "\n"
            assert re_emitted == artifact.read_text(), artifact.name
