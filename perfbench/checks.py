"""Output checks on the artifacts of one job.

Every check rests on an invariant of the model, never on a byte golden, so
deliberate last-digit float changes in the program still pass:

* every |gamma| in ``assignment.json`` is at most 1;
* a synthetic pattern's main lobe lies within one sweep step of the target;
* ``pattern*.csv`` matches an independent evaluation of
  ``AF(u) = sum_i gamma_i * exp(j*k * p_i . (u - d))`` from ``assignment.json``
  within 1e-9 of the pattern peak;
* the tank differential amplitude equals the predicted ratio times the
  open/short differential amplitude, the magnitude of the summed reflector
  tap phasors at the carrier;
* ``link.json`` ranges satisfy the range equation to 1e-6 dB.

A failed check raises :class:`CheckError`.
"""

from __future__ import annotations

import csv
import json
import math
import wave
from pathlib import Path

import numpy as np

AF_TOLERANCE = 1e-9  # of the pattern peak
RANGE_TOLERANCE_DB = 1e-6
# sqrt(2)*RMS over a window that is not a whole number of carrier cycles is
# off by at most ~0.65/n_samples (n >= 1e4 here); 1e-3 leaves a wide margin.
TANK_RATIO_TOLERANCE = 1e-3
_AF_CHUNK = 256  # elements per block, keeps the check's memory small


class CheckError(AssertionError):
    """An artifact violates a model invariant."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _load_json(path: Path):
    _require(path.is_file(), f"missing artifact {path.name}")
    return json.loads(path.read_text())


def _direction(bearing: dict) -> np.ndarray:
    az = math.radians(bearing["azimuth_deg"])
    el = math.radians(bearing["elevation_deg"])
    return np.array([math.cos(el) * math.cos(az), math.cos(el) * math.sin(az), math.sin(el)])


def _sweep_angles(sweep: dict) -> np.ndarray:
    n = int(round((sweep["stop_deg"] - sweep["start_deg"]) / sweep["step_deg"])) + 1
    return sweep["start_deg"] + sweep["step_deg"] * np.arange(n)


def _probe_dirs(plane: str, angles_deg: np.ndarray) -> np.ndarray:
    _require(plane == "yz", f"checks cover yz sweeps only, got {plane!r}")
    th = np.deg2rad(angles_deg)
    return np.stack([np.zeros_like(th), np.cos(th), np.sin(th)], axis=-1)


def _target_angle(scenario: dict) -> float:
    """Target bearing as a yz-plane sweep angle at or above the sweep start."""
    t = _direction(scenario["target"])
    theta = math.degrees(math.atan2(t[2], t[1])) % 360.0
    start = scenario["sweep"]["start_deg"]
    return theta + 360.0 * max(0, math.ceil((start - theta) / 360.0))


def grid_positions(scenario: dict) -> np.ndarray:
    """Element positions of a ``rows x cols`` grid spec, in id order (m)."""
    arr = scenario["array"]
    spacing = arr["spacing_wavelengths"] * scenario.get("sound_speed_mps", 1500.0) / scenario["frequency_hz"]
    r, c = np.divmod(np.arange(arr["rows"] * arr["cols"]), arr["cols"])
    return np.stack([c * spacing, r * spacing, np.zeros(r.size)], axis=-1)


def expected_pattern(scenario: dict, gammas: np.ndarray) -> np.ndarray:
    """Independent array factor over the scenario's sweep."""
    k = 2.0 * math.pi * scenario["frequency_hz"] / scenario.get("sound_speed_mps", 1500.0)
    d = -_direction(scenario["incident"])  # propagation direction
    probes = _probe_dirs(scenario["sweep"]["plane"], _sweep_angles(scenario["sweep"])) - d
    pos = grid_positions(scenario)
    total = np.zeros(probes.shape[0], dtype=complex)
    for lo in range(0, pos.shape[0], _AF_CHUNK):
        phase = k * (pos[lo:lo + _AF_CHUNK] @ probes.T)
        total += gammas[lo:lo + _AF_CHUNK] @ np.exp(1j * phase)
    return total


def read_pattern(path: Path) -> dict[str, np.ndarray]:
    _require(path.is_file(), f"missing artifact {path.name}")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    _require(rows[0] == ["angle_deg", "magnitude", "phase_rad", "normalized"], f"{path.name}: bad header")
    data = np.array(rows[1:], dtype=float)
    return {
        "angle": data[:, 0],
        "magnitude": data[:, 1],
        "phase": data[:, 2],
        "normalized": data[:, 3],
    }


def check_pattern_shape(pattern: dict, scenario: dict, metrics: dict, name: str) -> None:
    """Angles follow the sweep, ``normalized`` is magnitude over peak, and the
    metrics' main lobe is the pattern's argmax."""
    angles = _sweep_angles(scenario["sweep"])
    _require(pattern["angle"].shape == angles.shape, f"{name}: {pattern['angle'].size} rows, sweep has {angles.size}")
    _require(np.allclose(pattern["angle"], angles, rtol=1e-5, atol=0), f"{name}: angle grid differs from the sweep")
    peak = float(pattern["magnitude"].max())
    _require(peak > 0, f"{name}: flat zero pattern")
    _require(np.allclose(pattern["normalized"], pattern["magnitude"] / peak, rtol=0, atol=1e-9), f"{name}: normalized != magnitude/peak")
    # Equal-height lobes tie up to rounding, so accept any sample at the peak.
    imain = int(np.argmin(np.abs(angles - metrics["main_lobe_deg"])))
    _require(abs(angles[imain] - metrics["main_lobe_deg"]) <= 1e-6, f"{name}: main_lobe_deg is not a sweep angle")
    _require(pattern["magnitude"][imain] >= peak * (1.0 - 1e-9),
             f"{name}: main_lobe_deg {metrics['main_lobe_deg']} is not at the pattern peak")
    _require(math.isclose(metrics["main_lobe_mag"], peak, rel_tol=1e-9), f"{name}: main_lobe_mag != pattern peak")
    _require(metrics["hpbw_deg"] > 0, f"{name}: non-positive beamwidth")


def check_pattern_values(pattern: dict, scenario: dict, gammas: np.ndarray, name: str) -> None:
    expected = expected_pattern(scenario, gammas)
    got = pattern["magnitude"] * np.exp(1j * pattern["phase"])
    peak = float(np.max(np.abs(expected)))
    err = float(np.max(np.abs(got - expected)))
    _require(err <= AF_TOLERANCE * peak, f"{name}: deviates from the array factor by {err / peak:.3e} of peak")


def check_main_lobe_on_target(metrics: dict, scenario: dict, name: str) -> None:
    target = _target_angle(scenario)
    step = scenario["sweep"]["step_deg"]
    _require(abs(metrics["main_lobe_deg"] - target) <= step + 1e-9,
             f"{name}: main lobe {metrics['main_lobe_deg']} deg is more than one step from target {target:.4f}")


def _assignment_gammas(doc: dict, n: int, key_re: str, key_im: str) -> np.ndarray:
    elements = doc["elements"]
    _require(sorted(elements, key=int) == [str(i) for i in range(n)], "assignment ids differ from the array")
    g = np.array([complex(elements[str(i)][key_re], elements[str(i)][key_im]) for i in range(n)])
    _require(bool(np.all(np.abs(g) <= 1.0 + 1e-12)), f"assignment has |gamma| = {np.abs(g).max():.6f} > 1")
    return g


def check_steer(out: Path, scenario: dict, quantize: bool) -> None:
    n = scenario["array"]["rows"] * scenario["array"]["cols"]
    assignment = _load_json(out / "assignment.json")
    _require(assignment["scheme"] == scenario["scheme"], "assignment scheme differs from the scenario")
    views = [("pattern.csv", "metrics.json", "re", "im")]
    if quantize:
        views.append(("pattern_quantized.csv", "metrics_quantized.json", "quantized_re", "quantized_im"))
    for csv_name, metrics_name, key_re, key_im in views:
        gammas = _assignment_gammas(assignment, n, key_re, key_im)
        metrics = _load_json(out / metrics_name)
        pattern = read_pattern(out / csv_name)
        check_pattern_shape(pattern, scenario, metrics, csv_name)
        check_pattern_values(pattern, scenario, gammas, csv_name)
    if scenario["scheme"] == "synthetic":
        check_main_lobe_on_target(_load_json(out / "metrics.json"), scenario, "metrics.json")
    if "link" in scenario:
        check_link(out, scenario)
    if "power" in scenario:
        check_power(out, scenario, with_csv=False)


def check_compare(out: Path, scenario: dict, schemes: list[str]) -> None:
    doc = _load_json(out / "comparison.json")
    metrics = doc["metrics"]
    _require(sorted(metrics) == sorted(schemes), f"comparison covers {sorted(metrics)}, asked {schemes}")
    for scheme in schemes:
        pattern = read_pattern(out / f"pattern_{scheme}.csv")
        check_pattern_shape(pattern, scenario, metrics[scheme], f"pattern_{scheme}.csv")
    if "synthetic" in metrics:
        check_main_lobe_on_target(metrics["synthetic"], scenario, "comparison synthetic")

    def side(s):
        return metrics[s]["side_lobes"][0]["normalized"] if metrics[s]["side_lobes"] else 0.0

    for a in schemes:
        for b in schemes:
            if a == b:
                continue
            delta = doc["deltas"][f"{a}_vs_{b}"]
            _require(math.isclose(delta["hpbw_delta_deg"], metrics[a]["hpbw_deg"] - metrics[b]["hpbw_deg"], abs_tol=1e-12),
                     f"delta {a}_vs_{b} hpbw inconsistent")
            _require(math.isclose(delta["max_side_lobe_delta"], side(a) - side(b), abs_tol=1e-12),
                     f"delta {a}_vs_{b} side lobe inconsistent")


def check_link(out: Path, scenario: dict) -> None:
    doc = _load_json(out / "link.json")
    link = scenario["link"]
    delta = link["delta_snr_db"]
    r_x = link.get("r_x_km", 0.5)
    beta = doc["beta_db_per_km"]
    _require(math.isclose(doc["delta_snr_db"], delta) and math.isclose(doc["r_x_km"], r_x), "link.json echoes wrong inputs")
    if "beta_db_per_km" in link:
        _require(math.isclose(beta, link["beta_db_per_km"]), "link.json beta differs from the scenario")
    _require(beta > 0 and math.isfinite(beta), f"absorption {beta} dB/km is not positive")
    _require(math.isclose(doc["rate_multiplier"], 10.0 ** (delta / 10.0), rel_tol=1e-12), "rate multiplier != 10^(dSNR/10)")
    alphas = [link["alpha"]] if "alpha" in link else [1.0, 2.0]
    _require(sorted(doc["ranges"]) == sorted(f"alpha_{a:g}" for a in alphas), "link.json range keys")
    for alpha in alphas:
        entry = doc["ranges"][f"alpha_{alpha:g}"]
        r_y = entry["extended_range_km"]
        lhs = 10.0 * alpha * (math.log10(r_y) - math.log10(r_x)) + beta * (r_y - r_x)
        _require(abs(lhs - delta) <= RANGE_TOLERANCE_DB, f"alpha {alpha}: range equation residual {lhs - delta:.3e} dB")
        _require(math.isclose(entry["extension_pct"], (r_y / r_x - 1.0) * 100.0, rel_tol=1e-9, abs_tol=1e-9), "extension_pct")


def check_power(out: Path, scenario: dict, with_csv: bool) -> None:
    doc = _load_json(out / "power.json")
    _require(math.isclose(doc["vcc"], scenario["power"].get("vcc", 2.0)), "power.json vcc")
    for key in ("standby_power_uw", "phase1_energy_uj", "phase2_energy_mj"):
        _require(math.isfinite(doc[key]) and doc[key] > 0, f"power.json {key} = {doc[key]}")
    rows = doc["reference_deviation"]
    _require(len(rows) > 0, "empty reference deviation report")
    for row in rows:
        dev = (row["model_uj"] - row["measured_uj"]) / row["measured_uj"] * 100.0
        _require(math.isclose(row["deviation_pct"], dev, rel_tol=1e-9, abs_tol=1e-9), "deviation_pct inconsistent")
    if with_csv:
        path = out / "reference_energy.csv"
        _require(path.is_file(), "missing artifact reference_energy.csv")
        lines = path.read_text().splitlines()
        _require(lines[0] == "vcc,protocol,baud,energy_uJ,phase", "reference_energy.csv header")
        _require(len(lines) - 1 == len(rows), "reference_energy.csv row count differs from the report")


def check_catalog(out: Path) -> None:
    path = out / "catalog.csv"
    _require(path.is_file(), "missing artifact catalog.csv")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    _require(rows[0] == ["state", "re", "im", "magnitude", "phase_rad"], "catalog.csv header")
    _require(len(rows) > 1, "empty catalog")
    data = np.array([r[1:] for r in rows[1:]], dtype=float)
    mag = np.hypot(data[:, 0], data[:, 1])
    _require(bool(np.all(mag <= 1.0 + 1e-12)), "catalog has |gamma| > 1")
    _require(np.allclose(data[:, 2], mag, rtol=1e-10, atol=1e-12), "catalog magnitude != |gamma|")


def reflector_phasor_sum(taps: list[dict], frequency_hz: float) -> float:
    """|sum of A*exp(j*(psi - 2*pi*f*tau))| over the reflector taps."""
    return abs(sum(
        t["amplitude"] * complex(math.cos(ph), math.sin(ph))
        for t in taps
        for ph in (t["phase_rad"] - 2.0 * math.pi * frequency_hz * t["delay_s"],)
    ))


def _count_rows(path: Path) -> int:
    _require(path.is_file(), f"missing artifact {path.name}")
    with open(path, "rb") as fh:
        return fh.read().count(b"\n") - 1


def check_tank(out: Path, scenario: dict, wav: bool) -> None:
    tank = scenario["tank"]
    doc = _load_json(out / "tank.json")
    g_a = complex(tank["gamma_a"]["re"], tank["gamma_a"]["im"])
    g_b = complex(tank["gamma_b"]["re"], tank["gamma_b"]["im"])
    predicted = abs(g_a - g_b) / 2.0
    _require(math.isclose(doc["predicted_ratio_vs_open_short"], predicted, rel_tol=1e-12), "predicted ratio != |ga - gb|/2")
    # Open/short differential: (r_open - r_short)/2 keeps exactly the reflector
    # taps at gamma = 1; once all have arrived it is a tone whose amplitude is
    # the magnitude of the summed carrier phasors A*exp(j*(psi - w*tau)).
    open_short = reflector_phasor_sum(tank["channel"]["reflector_taps"], scenario["frequency_hz"])
    ratio = doc["differential_amplitude"] / open_short
    _require(abs(ratio - predicted) <= TANK_RATIO_TOLERANCE * predicted,
             f"differential ratio {ratio:.6f} vs predicted {predicted:.6f}")
    n = int(round(tank["duration_s"] * tank["sample_rate_hz"]))
    for stem in ("received_a", "received_b", "differential"):
        _require(_count_rows(out / f"{stem}.csv") == n, f"{stem}.csv does not hold {n} samples")
        if wav:
            path = out / f"{stem}.wav"
            _require(path.is_file(), f"missing artifact {path.name}")
            with wave.open(str(path), "rb") as wf:
                _require(wf.getnframes() == n and wf.getframerate() == round(tank["sample_rate_hz"]),
                         f"{stem}.wav frames/rate")


def check_job(command: str, flags: tuple[str, ...], out: Path, scenario: dict) -> None:
    """Check the artifacts one CLI run wrote to ``out``."""
    if command == "steer":
        check_steer(out, scenario, "--quantize" in flags)
    elif command == "compare":
        schemes = flags[flags.index("--schemes") + 1].split(",")
        check_compare(out, scenario, schemes)
    elif command == "link":
        check_link(out, scenario)
    elif command == "power":
        check_power(out, scenario, with_csv=True)
    elif command == "catalog":
        check_catalog(out)
    elif command == "tank":
        check_tank(out, scenario, "--wav" in flags)
    else:
        raise CheckError(f"no check for command {command!r}")
