"""Command-line interface: scenario ingestion, dispatch, artifact emission.

Subcommands (one scenario format feeds all of them; sections irrelevant to a
subcommand are ignored with a warning):

* ``steer``    configure one scheme, sweep the pattern, write artifacts
* ``compare``  run several schemes on identical sweeps and diff the metrics
* ``tank``     replay a tank channel and analyze the differential signals
* ``link``     range-extension and data-rate report
* ``power``    standby/adjustment/hold energy report with reference deviations
* ``catalog``  list the reflection coefficients a hardware config realizes

Exit codes: 0 success, 2 malformed input, 3 solver failure (singular or
empty pairing). Artifacts are byte-identical across runs for identical
inputs; no command mutates its input file.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .beam import array_factor, beam_metrics, compare_schemes
from .channel import (
    LinkBudgetParams,
    Tap,
    TankChannel,
    absorption_fg,
    differential_component,
    differential_ratio,
    rate_gain_percent,
    rate_multiplier,
    range_extension,
    simulate_received,
    steady_state_amplitude,
)
from .hardware import HardwareCatalog, catalog_gammas
from .power import (
    BusTransfer,
    PowerConfig,
    phase1_energy,
    phase2_energy,
    reference_deviation_report,
    standby_power,
    write_reference_csv,
)
from .scenario import Scenario, ScenarioError, load_scenario
from .synthesis import NoPairsError, SingularPairingError, configure

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3


def _dump_json(doc, path: Path) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _warn_ignored(scenario: Scenario, used: tuple[str, ...]) -> None:
    present = {
        name
        for name in ("link", "power", "tank")
        if getattr(scenario, name) is not None
    }
    for name in sorted(present - set(used)):
        print(f"warning: scenario section '{name}' is not used by this command", file=sys.stderr)


def _quantize_catalog(scenario: Scenario, quantize: bool):
    """The catalog to quantize onto, or None without ``--quantize``."""
    if not quantize:
        return None
    if scenario.catalog is None:
        raise ScenarioError("catalog", "required with --quantize")
    return scenario.catalog


def _cmd_steer(scenario: Scenario, out: Path, args) -> int:
    _warn_ignored(scenario, ("link", "power"))
    geometry = scenario.geometry
    incident = scenario.incident_wave
    assignment = configure(
        scenario.scheme,
        geometry,
        incident,
        scenario.target_dir,
        _quantize_catalog(scenario, args.quantize),
        scenario.gammas,
    )
    angles = scenario.sweep.angles_deg
    pattern = array_factor(geometry, assignment, incident, scenario.sweep.plane, angles)
    pattern.write_csv(out / "pattern.csv")
    metrics = beam_metrics(pattern)
    _dump_json(metrics.to_json(), out / "metrics.json")
    _dump_json(assignment.to_json(), out / "assignment.json")
    if args.quantize:
        q_pattern = array_factor(
            geometry, assignment, incident, scenario.sweep.plane, angles, use_quantized=True
        )
        q_pattern.write_csv(out / "pattern_quantized.csv")
        _dump_json(beam_metrics(q_pattern).to_json(), out / "metrics_quantized.json")
    if scenario.link is not None:
        _dump_json(_link_report(scenario), out / "link.json")
    if scenario.power is not None:
        _dump_json(_power_report(scenario), out / "power.json")
    return EXIT_OK


def _cmd_compare(scenario: Scenario, out: Path, args) -> int:
    _warn_ignored(scenario, ())
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    if "explicit" in schemes and scenario.gammas is None:
        raise ScenarioError("gammas", "required for the explicit scheme")
    rejected = [s for s in schemes if s not in ("synthetic", "1bit", "2bit")]
    if rejected:
        raise ScenarioError("--schemes", f"compare takes synthetic, 1bit, 2bit; got {rejected}")
    if len(schemes) < 2:
        raise ScenarioError("--schemes", "comparison needs at least 2 schemes")
    comparison = compare_schemes(
        scenario.geometry,
        scenario.incident_wave,
        scenario.target_dir,
        schemes,
        plane=scenario.sweep.plane,
        angles_deg=scenario.sweep.angles_deg,
        catalog=_quantize_catalog(scenario, args.quantize),
    )
    _dump_json(comparison.to_json(), out / "comparison.json")
    for label, pattern in comparison.patterns.items():
        pattern.write_csv(out / f"pattern_{label.replace('#', '_')}.csv")
    return EXIT_OK


def _random_channel(n_taps: int, seed: int) -> TankChannel:
    """Seeded synthetic channel for test drives: a few static taps plus
    reflector taps with random amplitudes, phases, and sub-10 ms delays."""
    rng = np.random.default_rng(seed)
    n_static = max(1, n_taps // 2)
    n_reflector = max(1, n_taps - n_static)

    def taps(n, lo, hi):
        return tuple(
            Tap(
                amplitude=float(rng.uniform(lo, hi)),
                phase_rad=float(rng.uniform(-np.pi, np.pi)),
                delay_s=float(rng.uniform(0.5e-3, 8e-3)),
            )
            for _ in range(n)
        )

    return TankChannel(taps(n_static, 0.3, 1.0), taps(n_reflector, 0.2, 0.8))


def _cmd_tank(scenario: Scenario, out: Path, args) -> int:
    _warn_ignored(scenario, ("tank",))
    tank = scenario.tank
    if tank is None:
        raise ScenarioError("tank", "scenario has no tank section")
    if "channel" in tank:
        channel = tank["channel"]
    else:
        channel = _random_channel(int(tank["random_taps"]), args.seed)
    gamma_a = tank.get("gamma_a", complex(1.0))   # open
    gamma_b = tank.get("gamma_b", complex(-1.0))  # short
    duration = float(tank.get("duration_s", channel.max_delay_s + 0.02))
    fs = tank.get("sample_rate_hz")
    source = scenario.incident_wave

    r_a = simulate_received(channel, gamma_a, source, duration, fs)
    r_b = simulate_received(channel, gamma_b, source, duration, fs)
    diff = differential_component(r_a, r_b)
    r_a.write_csv(out / "received_a.csv")
    r_b.write_csv(out / "received_b.csv")
    diff.write_csv(out / "differential.csv")
    if args.wav:
        peak = max(
            float(np.max(np.abs(w.samples))) for w in (r_a, r_b, diff)
        )
        r_a.write_wav(out / "received_a.wav", peak)
        r_b.write_wav(out / "received_b.wav", peak)
        diff.write_wav(out / "differential.wav", peak)

    settle = channel.max_delay_s
    report = {
        "gamma_a": {"re": gamma_a.real, "im": gamma_a.imag},
        "gamma_b": {"re": gamma_b.real, "im": gamma_b.imag},
        "steady_state_amplitude_a": steady_state_amplitude(r_a, settle),
        "steady_state_amplitude_b": steady_state_amplitude(r_b, settle),
        "differential_amplitude": steady_state_amplitude(diff, settle),
        "predicted_ratio_vs_open_short": differential_ratio(
            gamma_a, gamma_b, complex(1.0), complex(-1.0)
        ),
        "channel": channel.to_json(),
    }
    _dump_json(report, out / "tank.json")
    return EXIT_OK


def _link_report(scenario: Scenario) -> dict:
    link = dict(scenario.link or {})
    delta = float(link["delta_snr_db"])
    r_x = float(link.get("r_x_km", 0.5))
    beta = link.get("beta_db_per_km")
    if beta is None:
        beta = absorption_fg(
            scenario.frequency_hz,
            float(link.get("temperature_c", 10.0)),
            float(link.get("salinity_ppt", 35.0)),
            float(link.get("ph", 8.0)),
            float(link.get("depth_m", 0.0)),
        )
    alphas = [float(link["alpha"])] if "alpha" in link else [1.0, 2.0]
    ranges = {}
    for alpha in alphas:
        r_y = range_extension(LinkBudgetParams(alpha, float(beta), r_x, delta))
        ranges[f"alpha_{alpha:g}"] = {
            "extended_range_km": r_y,
            "extension_pct": (r_y / r_x - 1.0) * 100.0,
        }
    return {
        "delta_snr_db": delta,
        "beta_db_per_km": float(beta),
        "r_x_km": r_x,
        "rate_multiplier": rate_multiplier(delta),
        "rate_gain_pct": rate_gain_percent(delta),
        "ranges": ranges,
    }


def _cmd_link(scenario: Scenario, out: Path, args) -> int:
    _warn_ignored(scenario, ("link",))
    if scenario.link is None:
        raise ScenarioError("link", "scenario has no link section")
    _dump_json(_link_report(scenario), out / "link.json")
    return EXIT_OK


def _power_report(scenario: Scenario) -> dict:
    power = dict(scenario.power or {})
    config = PowerConfig(vcc=float(power.get("vcc", 2.0)))
    transfers = [
        BusTransfer.i2c(
            payload_bytes=int(power.get("i2c_payload_bytes", 72)),
            baud=float(power.get("i2c_baud", 50e3)),
        ),
        BusTransfer.spi(
            payload_bytes=int(power.get("spi_payload_bytes", 48)),
            baud=float(power.get("spi_baud", 125e3)),
        ),
    ]
    hold = float(power.get("hold_duration_s", 1.0))
    return {
        "vcc": config.vcc,
        "standby_power_uw": standby_power(config) * 1e6,
        "phase1_energy_uj": phase1_energy(transfers, config) * 1e6,
        "phase2_energy_mj": phase2_energy(hold, config) * 1e3,
        "hold_duration_s": hold,
        "reference_deviation": reference_deviation_report(config),
    }


def _cmd_power(scenario: Scenario, out: Path, args) -> int:
    _warn_ignored(scenario, ("power",))
    _dump_json(_power_report(scenario), out / "power.json")
    write_reference_csv(out / "reference_energy.csv")
    return EXIT_OK


def _cmd_catalog(scenario: Scenario, out: Path, args) -> int:
    _warn_ignored(scenario, ())
    catalog = scenario.catalog or HardwareCatalog()
    entries = catalog_gammas(catalog)
    if args.format == "json":
        doc = [
            {"state": state.label, "re": g.real, "im": g.imag, "magnitude": abs(g)}
            for state, g in entries
        ]
        _dump_json(doc, out / "catalog.json")
    else:
        with open(out / "catalog.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["state", "re", "im", "magnitude", "phase_rad"])
            for state, g in entries:
                writer.writerow(
                    [
                        state.label,
                        f"{g.real:.12g}",
                        f"{g.imag:.12g}",
                        f"{abs(g):.12g}",
                        f"{np.angle(g):.12g}",
                    ]
                )
    return EXIT_OK


def run_scenario(path, out_dir, command: str = "steer", **options) -> int:
    """Programmatic entry: run one subcommand on a scenario file.

    Returns the process exit code (0 / 2 / 3) rather than raising, matching
    the CLI contract.
    """
    argv = [command, "--scenario", str(path), "--out", str(out_dir)]
    for key, value in options.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif value is not False and value is not None:
            argv.extend([flag, str(value)])
    return main(argv)


_COMMANDS = {
    "steer": _cmd_steer,
    "compare": _cmd_compare,
    "tank": _cmd_tank,
    "link": _cmd_link,
    "power": _cmd_power,
    "catalog": _cmd_catalog,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uaris",
        description="Deterministic reflector-array beam steering and link simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    subs = {}
    for name, help_text in (
        ("steer", "configure one scheme and sweep its beam pattern"),
        ("compare", "compare schemes on identical sweeps"),
        ("tank", "replay a tank channel and analyze differential signals"),
        ("link", "range-extension and data-rate report"),
        ("power", "energy report with reference-measurement deviations"),
        ("catalog", "list realizable reflection coefficients"),
    ):
        p = subs[name] = sub.add_parser(name, help=help_text)
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--out", required=True, help="output directory (created if absent)")
    for name in ("steer", "compare"):
        subs[name].add_argument(
            "--quantize", action="store_true", help="apply the hardware catalog"
        )
    subs["compare"].add_argument(
        "--schemes", default="synthetic,1bit", help="comma-separated scheme list"
    )
    subs["tank"].add_argument(
        "--seed", type=int, default=0, help="seed for test utilities (random taps)"
    )
    subs["tank"].add_argument("--wav", action="store_true", help="also write WAV renders")
    subs["catalog"].add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
    except ScenarioError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        return _COMMANDS[args.command](scenario, out, args)
    except ScenarioError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except (SingularPairingError, NoPairsError) as err:
        detail = getattr(err, "pair_ids", None)
        suffix = f" (pair {detail})" if detail else ""
        print(f"solver error: {err}{suffix}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
