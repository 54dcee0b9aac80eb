"""Seeded workload generator: scenario documents plus the job list of one pass.

A workload is a fixed *shape* (array sizes, subcommands, tap counts and
durations, so the work per pass does not depend on the seed) filled in with
seeded details (spacing, bearings, link and power parameters, channel taps).
The same ``(workload, seed)`` always yields byte-identical files.

Bearings and sweeps lie in the yz plane and the arrays are ``rows x cols``
grids in z = 0 with an even column count, so every wavefront group holds
whole rows, every pair shares its incident phase and no pair solve is ever
singular. Because the pattern then depends on ``u_y = cos(theta)`` only,
grating and image lobes sit at known ``u_y`` values; :func:`_alias_free`
rejects draws that would put an equal-height lobe where it could win the
main-lobe argmax or be clipped by the sweep edge.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

from checks import reflector_phasor_sum

WORKLOADS = ("large_array", "small_batch")

COMPARE_SCHEMES = "synthetic,1bit,2bit"
TANK_FREQUENCY_HZ = 28230.0
TANK_SAMPLE_RATE_HZ = 451680.0  # 16 samples per carrier cycle

# Job costs in each pass are spread smoothly (distinct sizes a few tens of
# percent apart) around the median and the 90th percentile. The host's CPU
# speed switches between two levels about 1.4x apart for seconds at a time;
# with a block of identical jobs at a percentile, that percentile would jump
# between the two levels from run to run, while with a smooth spread it
# moves only with the share of slow time, like the mean.

# (rows, cols, kind) per pass, cheapest first: 27 jobs, N = 256..4096.
LARGE_ARRAY_PASS = (
    (16, 16, "steer"),
    (16, 20, "steer"),
    (20, 20, "steer"),
    (16, 16, "compare"),
    (16, 32, "steer"),
    (24, 24, "steer"),
    (24, 28, "steer"),
    (16, 24, "compare"),
    (28, 28, "steer"),
    (28, 32, "steer"),
    (32, 32, "steer"),
    (16, 32, "compare"),
    (32, 36, "steer"),
    (36, 36, "steer"),
    (36, 40, "steer"),
    (24, 32, "compare"),
    (40, 44, "steer"),
    (16, 16, "steer-q"),
    (32, 32, "compare"),
    (44, 48, "steer"),
    (48, 56, "steer"),
    (16, 32, "steer-q"),
    (32, 64, "compare"),
    (56, 64, "steer"),
    (64, 64, "steer"),
    (32, 32, "steer-q"),
    (64, 64, "compare"),
)
# Shipped-size arrays, N = 4..64; every array subcommand runs on each.
SMALL_BATCH_SHAPES = ((2, 2), (4, 2), (6, 2), (4, 4), (10, 2), (6, 4), (8, 4), (10, 4), (12, 4), (8, 8))
SMALL_BATCH_KINDS = ("steer", "steer-q", "compare", "link", "power", "catalog")
# (tap count, duration in s) of the shipped-size tank replays in each pass.
SMALL_BATCH_TANKS = ((5, 0.03), (16, 0.03))

_WORKLOAD_SALT = {name: i for i, name in enumerate(WORKLOADS)}
_MAX_DRAWS = 100000


@dataclass(frozen=True)
class Job:
    """One CLI run: subcommand, its flags, and the scenario file it reads."""

    label: str
    command: str
    flags: tuple[str, ...]
    scenario: str

    def argv(self, work_dir: Path, out_dir: Path) -> list[str]:
        return [
            self.command,
            *self.flags,
            "--scenario",
            str(work_dir / self.scenario),
            "--out",
            str(out_dir),
        ]

    def to_json(self) -> dict:
        """Label and argv, with the scenario relative to the inputs directory."""
        return {"label": self.label, "argv": self.argv(Path("."), Path("{out}"))}


@dataclass
class Plan:
    """Generated inputs of one workload at one seed."""

    workload: str
    seed: int
    scenarios: dict[str, dict] = field(default_factory=dict)
    jobs: list[Job] = field(default_factory=list)
    warmup: list[Job] = field(default_factory=list)

    def write(self, work_dir: Path) -> None:
        """Write every scenario file and ``jobs.json`` (argv lists) to ``work_dir``."""
        work_dir.mkdir(parents=True, exist_ok=True)
        for name, doc in self.scenarios.items():
            (work_dir / name).write_text(_dumps(doc))
        jobs_doc = {
            "workload": self.workload,
            "seed": self.seed,
            "warmup": [j.to_json() for j in self.warmup],
            "jobs": [j.to_json() for j in self.jobs],
        }
        (work_dir / "jobs.json").write_text(_dumps(jobs_doc))


def _dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _argv(kind: str) -> tuple[str, tuple[str, ...]]:
    if kind == "steer":
        return "steer", ()
    if kind == "steer-q":
        return "steer", ("--quantize",)
    if kind == "compare":
        return "compare", ("--schemes", COMPARE_SCHEMES)
    if kind == "tank":
        return "tank", ("--wav",)
    return kind, ()


def _bearing(theta_deg: float) -> dict:
    """yz-plane sweep angle -> {azimuth_deg, elevation_deg} of the same direction."""
    theta = theta_deg % 360.0
    if theta <= 90.0 or theta >= 270.0:
        el = theta if theta <= 90.0 else theta - 360.0
        return {"azimuth_deg": 90.0, "elevation_deg": round(el, 6)}
    return {"azimuth_deg": -90.0, "elevation_deg": round(180.0 - theta, 6)}


def _angles_of(u: float, reach_u: float) -> tuple[float, ...]:
    """Angles of a lobe centred at ``u``; a lobe just beyond ``|u| = 1`` still
    shows its flank at 0 or 180 deg, so it counts up to ``reach_u`` past it."""
    if abs(u) > 1.0 + reach_u:
        return ()
    a = math.degrees(math.acos(max(-1.0, min(1.0, u))))
    return (a, 360.0 - a)


def _near(angle: float, lo: float, hi: float) -> bool:
    return any(lo <= angle + turn <= hi for turn in (-360.0, 0.0, 360.0))


def _alias_free(theta_t, lo, hi, spacing, d_y, rows) -> bool:
    """True when no full-height lobe other than the target can disturb the sweep.

    ``hp(a)`` is a lobe's half-power half width, ``0.443/(rows*spacing)`` in
    ``u_y``, in degrees at angle ``a``. The target lobe must fit inside the
    sweep. Synthetic-scheme grating lobes and the mirror ``-theta_t`` must lie
    outside it, so the argmax is the target. The 1-bit image lobe family
    (``2*d_y - u_t + m/s``, about as high as the main lobe, higher for few
    rows) may lie inside or outside, but not within ``2*hp`` of an edge, where
    its flank could hold the maximum with no half-power crossing.
    """
    hp_u = 0.443 / (rows * spacing)

    def hp(angle):
        return math.degrees(hp_u / max(abs(math.sin(math.radians(angle))), 1e-3))

    if theta_t - lo < 2 * hp(theta_t) or hi - theta_t < 2 * hp(theta_t):
        return False
    u_t = math.cos(math.radians(theta_t))
    reach = int(math.ceil(2.0 * spacing)) + 1
    for m in range(-reach, reach + 1):
        for a in _angles_of(u_t + m / spacing, 2 * hp_u):
            if m == 0 and abs(a - theta_t % 360.0) < 1e-9:
                continue
            if _near(a, lo - hp(a), hi + hp(a)):
                return False
        for a in _angles_of(2.0 * d_y - u_t + m / spacing, 2 * hp_u):
            h = hp(a)
            if _near(a, lo - 2 * h, lo + 2 * h) or _near(a, hi - 2 * h, hi + 2 * h):
                return False
    return True


def _array_doc(rng, rows, cols, spacing_range, theta_range, incident_el, half_widths, step):
    """Draw spacing, target and incident bearings, and an alias-free sweep.

    ``half_widths`` holds the ranges of the sweep's extent below and above the
    target, in degrees.
    """
    for _ in range(_MAX_DRAWS):
        spacing = round(rng.uniform(*spacing_range), 3)
        theta_t = round(rng.uniform(*rng.choice(theta_range)), 3)
        side = rng.choice((90.0, -90.0))
        el = round(rng.uniform(*incident_el), 3)
        d_y = -math.cos(math.radians(el)) * math.sin(math.radians(side))
        lo_w, hi_w = (round(rng.uniform(*w) / step) * step for w in half_widths)
        lo = round(theta_t - lo_w, 1)
        hi = round(lo + lo_w + hi_w, 1)
        if _alias_free(theta_t, lo, hi, spacing, d_y, rows):
            return {
                "array": {"rows": rows, "cols": cols, "spacing_wavelengths": spacing},
                "incident": {"azimuth_deg": side, "elevation_deg": el},
                "target": _bearing(theta_t),
                "sweep": {"plane": "yz", "start_deg": lo, "stop_deg": hi, "step_deg": step},
            }
    raise RuntimeError(f"no alias-free draw for a {rows}x{cols} array")


def _large_array(rng: random.Random, plan: Plan) -> None:
    """Design studies at N = 256..4096: 0.1 deg sweeps over 70 deg, 701 probes."""
    for i, (rows, cols, kind) in enumerate(LARGE_ARRAY_PASS):
        name = f"la_{i:02d}_{rows}x{cols}_{kind}.json"
        plan.scenarios[name] = {
            "frequency_hz": 28000.0,
            "sound_speed_mps": 1500.0,
            "scheme": "synthetic",
            "catalog": {},
            **_array_doc(
                rng, rows, cols, (0.5, 2.0), ((195.0, 250.0), (290.0, 325.0)),
                (50.0, 90.0), ((35.0, 35.0), (35.0, 35.0)), 0.1,
            ),
        }
        command, flags = _argv(kind)
        plan.jobs.append(Job(f"{kind}:{rows}x{cols}", command, flags, name))
    plan.warmup = [j for j in plan.jobs if j.label.endswith(":16x16")]


def _link_doc(rng: random.Random, with_beta: bool) -> dict:
    doc = {
        "delta_snr_db": round(rng.uniform(1.0, 6.0), 3),
        "r_x_km": round(rng.uniform(0.3, 2.0), 3),
    }
    if with_beta:
        doc["beta_db_per_km"] = round(rng.uniform(2.0, 9.0), 3)
    else:
        doc.update(
            temperature_c=round(rng.uniform(0.0, 30.0), 2),
            salinity_ppt=round(rng.uniform(30.0, 38.0), 2),
            ph=round(rng.uniform(7.6, 8.3), 2),
            depth_m=round(rng.uniform(0.0, 500.0), 1),
        )
    return doc


def _power_doc(rng: random.Random) -> dict:
    return {
        "vcc": round(rng.uniform(2.0, 4.0), 3),
        "hold_duration_s": round(rng.uniform(0.1, 10.0), 3),
        "i2c_payload_bytes": 3 * rng.randint(1, 48),
        "spi_payload_bytes": 2 * rng.randint(1, 48),
    }


def _small_batch(rng: random.Random, plan: Plan) -> None:
    """Shipped-size scenarios: arrays of N = 4..64 at 2 wavelengths with 0.5 deg
    sweeps near 225 deg, and 0.03 s tank replays with 5 and 16 taps."""
    for i, (rows, cols) in enumerate(SMALL_BATCH_SHAPES):
        name = f"sb_{i}_{rows}x{cols}.json"
        plan.scenarios[name] = {
            "frequency_hz": 28000.0,
            "sound_speed_mps": 1500.0,
            "scheme": "synthetic",
            "catalog": {},
            **_array_doc(
                rng, rows, cols, (2.0, 2.0), ((215.0, 235.0),), (75.0, 90.0), ((20.0, 50.0), (15.0, 40.0)), 0.5,
            ),
            "link": _link_doc(rng, with_beta=i % 2 == 0),
            "power": _power_doc(rng),
        }
        for kind in SMALL_BATCH_KINDS:
            command, flags = _argv(kind)
            plan.jobs.append(Job(f"{kind}:{rows}x{cols}", command, flags, name))
    for i, (n_taps, duration) in enumerate(SMALL_BATCH_TANKS):
        name = f"sb_tank_{i}_{n_taps}taps.json"
        plan.scenarios[name] = _tank_doc(rng, n_taps, duration)
        command, flags = _argv("tank")
        plan.jobs.append(Job(f"tank:{n_taps}taps:{duration:g}s", command, flags, name))
    plan.warmup = plan.jobs[:len(SMALL_BATCH_KINDS)] + plan.jobs[-1:]


def _taps(rng: random.Random, n: int, lo: float, hi: float) -> list[dict]:
    return [
        {
            "amplitude": round(rng.uniform(lo, hi), 6),
            "phase_rad": round(rng.uniform(-math.pi, math.pi), 6),
            "delay_s": round(rng.uniform(0.5e-3, 8e-3), 7),
        }
        for _ in range(n)
    ]


def _passive_gamma(rng: random.Random) -> complex:
    mag = rng.uniform(0.0, 1.0)
    ph = rng.uniform(-math.pi, math.pi)
    return complex(round(mag * math.cos(ph), 6), round(mag * math.sin(ph), 6))


def _tank_doc(rng: random.Random, n_taps: int, duration: float) -> dict:
    """Explicit-tap tank channel at 28.23 kHz rendered at 451.68 kHz."""
    n_static = max(1, n_taps // 2)
    n_reflector = n_taps - n_static
    # Keep the differential signal well above rounding noise: the reflector
    # taps must not cancel and the two states must differ.
    while True:
        reflector = _taps(rng, n_reflector, 0.2, 0.8)
        coherent = reflector_phasor_sum(reflector, TANK_FREQUENCY_HZ)
        gamma_a, gamma_b = _passive_gamma(rng), _passive_gamma(rng)
        if coherent >= 0.1 and abs(gamma_a - gamma_b) >= 0.2 and abs(gamma_a) <= 1 and abs(gamma_b) <= 1:
            break
    return {
        "frequency_hz": TANK_FREQUENCY_HZ,
        "sound_speed_mps": 1500.0,
        "array": {"rows": 1, "cols": 2, "spacing_wavelengths": 1.2},
        "incident": {"azimuth_deg": 0.0, "elevation_deg": 90.0},
        "target": {"azimuth_deg": 0.0, "elevation_deg": 90.0},
        "scheme": "1bit",
        "sweep": {"plane": "yz", "start_deg": 0.0, "stop_deg": 180.0, "step_deg": 1.0},
        "tank": {
            "channel": {
                "static_taps": _taps(rng, n_static, 0.3, 1.0),
                "reflector_taps": reflector,
            },
            "gamma_a": {"re": gamma_a.real, "im": gamma_a.imag},
            "gamma_b": {"re": gamma_b.real, "im": gamma_b.imag},
            "duration_s": duration,
            "sample_rate_hz": TANK_SAMPLE_RATE_HZ,
        },
    }


_GENERATORS = {
    "large_array": _large_array,
    "small_batch": _small_batch,
}


def generate(workload: str, seed: int) -> Plan:
    """Build the plan of ``workload`` for ``seed`` (deterministic)."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(seed * len(WORKLOADS) + _WORKLOAD_SALT[workload])
    plan = Plan(workload, seed)
    _GENERATORS[workload](rng, plan)
    return plan
