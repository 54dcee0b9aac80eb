"""Scenario files: one strict JSON document drives every CLI subcommand.

Angles in files are degrees (human-facing); all internal math is radians.
Direction conventions:

* ``incident`` gives the bearing the wave arrives *from* (its propagation
  direction is the negation);
* ``target`` gives the bearing the reflected beam should point *to*;
* both are ``{azimuth_deg, elevation_deg}`` per :func:`uaris.core.direction_from_angles`.

Validation is strict: unknown fields are rejected, and every error names the
offending field so the CLI can print a usable diagnostic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .channel import TankChannel
from .core import PlaneWave, direction_from_angles
from .geometry import ArrayGeometry
from .hardware import HardwareCatalog

__all__ = ["ScenarioError", "Scenario", "load_scenario"]

SCHEMES = ("synthetic", "1bit", "2bit", "explicit")


class ScenarioError(ValueError):
    """Malformed scenario input; ``field`` names the offending entry."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


def _require(doc: dict, field: str, path: str):
    if field not in doc:
        raise ScenarioError(f"{path}{field}", "missing required field")
    return doc[field]


def _check_known(doc: dict, known: tuple[str, ...], path: str) -> None:
    for key in doc:
        if key not in known:
            raise ScenarioError(f"{path}{key}", "unknown field")


def _finite_number(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(field, f"expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ScenarioError(field, "must be finite")
    return float(value)


def _angles(doc, path: str) -> tuple[float, float]:
    if not isinstance(doc, dict):
        raise ScenarioError(path.rstrip("."), "expected an object")
    _check_known(doc, ("azimuth_deg", "elevation_deg"), path)
    az = _finite_number(_require(doc, "azimuth_deg", path), f"{path}azimuth_deg")
    el = _finite_number(_require(doc, "elevation_deg", path), f"{path}elevation_deg")
    return az, el


@dataclass(frozen=True)
class Sweep:
    plane: str
    start_deg: float
    stop_deg: float
    step_deg: float

    @property
    def angles_deg(self) -> np.ndarray:
        n = int(round((self.stop_deg - self.start_deg) / self.step_deg)) + 1
        return self.start_deg + self.step_deg * np.arange(n)


@dataclass(frozen=True)
class Scenario:
    """Validated scenario document."""

    frequency_hz: float
    sound_speed_mps: float
    array_doc: dict
    incident_az_el: tuple[float, float]
    target_az_el: tuple[float, float]
    scheme: str
    sweep: Sweep
    catalog: HardwareCatalog | None = None
    gammas: dict[int, complex] | None = None
    link: dict | None = None
    power: dict | None = None
    tank: dict | None = None

    @property
    def wavelength_m(self) -> float:
        return self.sound_speed_mps / self.frequency_hz

    @cached_property
    def geometry(self) -> ArrayGeometry:
        """The array, built on first use; construction errors name ``array``."""
        try:
            return ArrayGeometry.from_json(self.array_doc, wavelength_m=self.wavelength_m)
        except (ValueError, KeyError, TypeError) as err:
            raise ScenarioError("array", str(err)) from None

    @property
    def incident_wave(self) -> PlaneWave:
        az, el = self.incident_az_el
        direction = -direction_from_angles(az, el)  # arrives from (az, el)
        return PlaneWave(
            self.frequency_hz,
            propagation_dir=tuple(direction),
            sound_speed_mps=self.sound_speed_mps,
        )

    @property
    def target_dir(self) -> np.ndarray:
        az, el = self.target_az_el
        return direction_from_angles(az, el)


_TOP_FIELDS = (
    "frequency_hz",
    "sound_speed_mps",
    "array",
    "incident",
    "target",
    "scheme",
    "catalog",
    "gammas",
    "sweep",
    "link",
    "power",
    "tank",
)
_SWEEP_FIELDS = ("plane", "start_deg", "stop_deg", "step_deg")
_ARRAY_FIELDS = ("rows", "cols", "spacing_wavelengths", "positions", "ids", "normal")
_LINK_FIELDS = (
    "delta_snr_db",
    "r_x_km",
    "alpha",
    "beta_db_per_km",
    "temperature_c",
    "salinity_ppt",
    "ph",
    "depth_m",
)
_POWER_FIELDS = (
    "vcc",
    "hold_duration_s",
    "i2c_payload_bytes",
    "i2c_baud",
    "spi_payload_bytes",
    "spi_baud",
)
_TANK_FIELDS = (
    "channel",
    "gamma_a",
    "gamma_b",
    "duration_s",
    "sample_rate_hz",
    "random_taps",
)
_CATALOG_FIELDS = (
    "z0",
    "wiper_resistance",
    "max_resistance",
    "potentiometer_steps",
    "cap_stage_gammas",
    "ind_stage_gammas",
    "gamma_max",
)


def _parse_sweep(doc, path="sweep.") -> Sweep:
    if not isinstance(doc, dict):
        raise ScenarioError("sweep", "expected an object")
    _check_known(doc, _SWEEP_FIELDS, path)
    plane = _require(doc, "plane", path)
    if plane not in ("yz", "xz", "xy"):
        raise ScenarioError(f"{path}plane", f"must be one of yz/xz/xy, got {plane!r}")
    start = _finite_number(_require(doc, "start_deg", path), f"{path}start_deg")
    stop = _finite_number(_require(doc, "stop_deg", path), f"{path}stop_deg")
    step = _finite_number(_require(doc, "step_deg", path), f"{path}step_deg")
    if step <= 0:
        raise ScenarioError(f"{path}step_deg", "must be positive")
    if stop <= start:
        raise ScenarioError(f"{path}stop_deg", "must exceed start_deg")
    sweep = Sweep(plane, start, stop, step)
    if sweep.angles_deg.size < 3:
        raise ScenarioError("sweep", "needs at least 3 samples")
    return sweep


def _parse_complex(doc, field: str) -> complex:
    if not isinstance(doc, dict) or set(doc) - {"re", "im"}:
        raise ScenarioError(field, "expected an object with 're' and 'im'")
    re = _finite_number(_require(doc, "re", f"{field}."), f"{field}.re")
    im = _finite_number(_require(doc, "im", f"{field}."), f"{field}.im")
    return complex(re, im)


def _parse_scenario(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("(root)", "scenario must be a JSON object")
    _check_known(doc, _TOP_FIELDS, "")

    frequency = _finite_number(_require(doc, "frequency_hz", ""), "frequency_hz")
    if frequency <= 0:
        raise ScenarioError("frequency_hz", "must be positive")
    sound_speed = _finite_number(doc.get("sound_speed_mps", 1500.0), "sound_speed_mps")
    if sound_speed <= 0:
        raise ScenarioError("sound_speed_mps", "must be positive")

    array_doc = _require(doc, "array", "")
    if not isinstance(array_doc, dict):
        raise ScenarioError("array", "expected an object")
    _check_known(array_doc, _ARRAY_FIELDS, "array.")
    if "positions" not in array_doc and "rows" not in array_doc:
        raise ScenarioError("array", "needs 'positions' or a rows/cols grid spec")
    ids, positions = array_doc.get("ids"), array_doc.get("positions")
    if isinstance(ids, list) and isinstance(positions, list) and len(ids) != len(positions):
        raise ScenarioError(
            "array.ids", f"has {len(ids)} entries but 'positions' has {len(positions)}"
        )

    incident = _angles(_require(doc, "incident", ""), "incident.")
    target = _angles(_require(doc, "target", ""), "target.")

    scheme = _require(doc, "scheme", "")
    if scheme not in SCHEMES:
        raise ScenarioError("scheme", f"must be one of {'/'.join(SCHEMES)}, got {scheme!r}")

    sweep = _parse_sweep(_require(doc, "sweep", ""))

    catalog = None
    if "catalog" in doc:
        cat_doc = doc["catalog"]
        if not isinstance(cat_doc, dict):
            raise ScenarioError("catalog", "expected an object")
        _check_known(cat_doc, _CATALOG_FIELDS, "catalog.")
        try:
            catalog = HardwareCatalog.from_json(cat_doc)
        except (ValueError, KeyError, TypeError) as err:
            raise ScenarioError("catalog", str(err)) from None

    gammas = None
    if "gammas" in doc:
        if not isinstance(doc["gammas"], dict):
            raise ScenarioError("gammas", "expected an object of element id -> {re, im}")
        gammas = {}
        for key, val in doc["gammas"].items():
            try:
                eid = int(key)
            except ValueError:
                raise ScenarioError(f"gammas.{key}", "element id must be an integer") from None
            gammas[eid] = _parse_complex(val, f"gammas.{key}")
    if scheme == "explicit" and gammas is None:
        raise ScenarioError("gammas", "required when scheme is 'explicit'")

    link = None
    if "link" in doc:
        if not isinstance(doc["link"], dict):
            raise ScenarioError("link", "expected an object")
        _check_known(doc["link"], _LINK_FIELDS, "link.")
        link = dict(doc["link"])
        _finite_number(_require(link, "delta_snr_db", "link."), "link.delta_snr_db")

    power = None
    if "power" in doc:
        if not isinstance(doc["power"], dict):
            raise ScenarioError("power", "expected an object")
        _check_known(doc["power"], _POWER_FIELDS, "power.")
        power = dict(doc["power"])

    tank = None
    if "tank" in doc:
        if not isinstance(doc["tank"], dict):
            raise ScenarioError("tank", "expected an object")
        _check_known(doc["tank"], _TANK_FIELDS, "tank.")
        tank = dict(doc["tank"])
        if "channel" in tank:
            try:
                tank["channel"] = TankChannel.from_json(tank["channel"])
            except (ValueError, KeyError, TypeError) as err:
                raise ScenarioError("tank.channel", str(err)) from None
        elif "random_taps" not in tank:
            raise ScenarioError("tank", "needs 'channel' taps or 'random_taps'")
        for name in ("gamma_a", "gamma_b"):
            if name in tank:
                tank[name] = _parse_complex(tank[name], f"tank.{name}")

    scenario = Scenario(
        frequency_hz=frequency,
        sound_speed_mps=sound_speed,
        array_doc=array_doc,
        incident_az_el=incident,
        target_az_el=target,
        scheme=scheme,
        sweep=sweep,
        catalog=catalog,
        gammas=gammas,
        link=link,
        power=power,
        tank=tank,
    )
    if scheme == "explicit":
        ids = set(scenario.geometry.ids)
        missing, extra = ids - set(gammas), set(gammas) - ids
        if missing:
            raise ScenarioError("gammas", f"missing element ids {sorted(missing)}")
        if extra:
            raise ScenarioError("gammas", f"unknown element ids {sorted(extra)}")
    return scenario


def load_scenario(path_or_doc) -> Scenario:
    """Load and validate a scenario from a JSON file path or a parsed dict.

    :raises ScenarioError: naming the offending field on any violation
    """
    if isinstance(path_or_doc, dict):
        return _parse_scenario(path_or_doc)
    path = Path(path_or_doc)
    try:
        text = path.read_text()
    except OSError as err:
        raise ScenarioError("(file)", f"cannot read {path}: {err}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ScenarioError("(file)", f"invalid JSON: {err}") from None
    return _parse_scenario(doc)
