"""Energy and power accounting for the reflector-array controller.

Three regimes are modeled for the 24-channel control board (one MCU, twelve
I/O expanders, six programmable potentiometers):

* standby: supply voltage times the summed quiescent currents;
* phase I (load adjustment): bus traffic reprogramming every channel, costed
  as peak power times time-on-the-wire from a per-message framing model;
* phase II (load hold): measured hold power times the dwell duration.

Peak and hold powers are measured lookup tables over supply voltage with
linear interpolation between the measured points; the board's full
active-mode energy measurements ship as a reference dataset. The framing
model is committed only to the low-baud cells (50 kbps I2C, 125 kbps SPI);
the higher-baud measurements embed per-message controller overhead that the
on-the-wire model deliberately does not fit, so those cells are reported
with their deviation instead.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

__all__ = [
    "PowerConfig",
    "BusTransfer",
    "MeasuredEnergyCell",
    "REFERENCE_ACTIVE_MODE_ENERGY",
    "standby_power",
    "phase1_energy",
    "phase2_energy",
    "reference_deviation_report",
    "write_reference_csv",
]

# I2C message: start + 3 x (8 data + ack) + stop = 29 bits for the 3-byte
# (chip address, register, value) expander write.
I2C_BYTES_PER_MESSAGE = 3
I2C_FRAMING_BITS = 29
# SPI message: 2 bytes (channel id, wiper value) at an effective 9 bits per
# byte on the wire.
SPI_BYTES_PER_MESSAGE = 2
SPI_FRAMING_BITS = 18


def _default_peak_power() -> dict[float, float]:
    return {2.0: 14.2e-3, 4.0: 53.0e-3}


def _default_maintain_power() -> dict[float, float]:
    return {2.0: 9.3e-3, 3.0: 19.9e-3, 4.0: 35.3e-3}


@dataclass(frozen=True)
class PowerConfig:
    """Electrical parameters of the controller board.

    Currents are quiescent (standby) draws per device; counts give how many
    of each device the board carries. Power maps are watts keyed by supply
    voltage.
    """

    vcc: float = 2.0
    mcu_standby_current_a: float = 650e-9
    extender_standby_current_a: float = 500e-9
    extender_count: int = 12
    potentiometer_standby_current_a: float = 5e-6
    potentiometer_count: int = 6
    peak_power_by_vcc: dict[float, float] = field(default_factory=_default_peak_power)
    maintain_power_by_vcc: dict[float, float] = field(default_factory=_default_maintain_power)

    def __post_init__(self) -> None:
        if self.vcc <= 0:
            raise ValueError("supply voltage must be positive")
        for name in (
            "mcu_standby_current_a",
            "extender_standby_current_a",
            "potentiometer_standby_current_a",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.extender_count < 0 or self.potentiometer_count < 0:
            raise ValueError("device counts must be >= 0")
        for table in (self.peak_power_by_vcc, self.maintain_power_by_vcc):
            if any(p < 0 for p in table.values()):
                raise ValueError("powers must be >= 0")


@dataclass(frozen=True)
class BusTransfer:
    """One serial transfer reprogramming part of the load network."""

    protocol: str
    payload_bytes: int
    baud: float
    framing_bits_per_message: int
    bytes_per_message: int

    def __post_init__(self) -> None:
        if self.protocol not in ("i2c", "spi"):
            raise ValueError(f"protocol must be 'i2c' or 'spi', got {self.protocol!r}")
        if self.baud <= 0:
            raise ValueError("baud must be positive")
        if self.bytes_per_message <= 0:
            raise ValueError("bytes_per_message must be positive")
        if self.payload_bytes < 0:
            raise ValueError("payload must be >= 0 bytes")

    @classmethod
    def i2c(cls, payload_bytes: int = 72, baud: float = 50e3) -> "BusTransfer":
        """Expander traffic: 3-byte messages, 29 framed bits each.

        The 72-byte default reprograms all 24 channels' switch banks.
        """
        return cls("i2c", payload_bytes, baud, I2C_FRAMING_BITS, I2C_BYTES_PER_MESSAGE)

    @classmethod
    def spi(cls, payload_bytes: int = 48, baud: float = 125e3) -> "BusTransfer":
        """Potentiometer traffic: 2-byte messages at 9 bits per byte.

        The 48-byte default rewrites all 24 channels' wiper settings.
        """
        return cls("spi", payload_bytes, baud, SPI_FRAMING_BITS, SPI_BYTES_PER_MESSAGE)

    @property
    def message_count(self) -> int:
        if self.payload_bytes % self.bytes_per_message:
            raise ValueError(
                f"{self.payload_bytes}-byte payload is not divisible into "
                f"{self.bytes_per_message}-byte messages"
            )
        return self.payload_bytes // self.bytes_per_message

    @property
    def wire_time_s(self) -> float:
        return self.message_count * self.framing_bits_per_message / self.baud


def _interp_power(table: dict[float, float], vcc: float, what: str) -> float:
    """Linear interpolation between measured supply-voltage points."""
    if vcc in table:
        return table[vcc]
    vccs = sorted(table)
    if not vccs or vcc < vccs[0] or vcc > vccs[-1]:
        raise ValueError(
            f"{what} power not measured at {vcc} V and outside the "
            f"interpolation span {vccs}"
        )
    for lo, hi in zip(vccs, vccs[1:]):
        if lo <= vcc <= hi:
            w = (vcc - lo) / (hi - lo)
            return (1 - w) * table[lo] + w * table[hi]
    raise AssertionError("unreachable")


def standby_power(config: PowerConfig) -> float:
    """Standby draw in watts: vcc times the summed quiescent currents."""
    current = (
        config.mcu_standby_current_a
        + config.extender_count * config.extender_standby_current_a
        + config.potentiometer_count * config.potentiometer_standby_current_a
    )
    return config.vcc * current


def phase1_energy(transfers, config: PowerConfig) -> float:
    """Energy in joules spent reprogramming the load network.

    Peak power (interpolated at the config's supply voltage) times the summed
    time-on-the-wire of all transfers.

    :raises ValueError: if a payload does not divide into whole messages
    """
    peak = _interp_power(config.peak_power_by_vcc, config.vcc, "peak")
    return sum(peak * t.wire_time_s for t in transfers)


def phase2_energy(duration_s: float, config: PowerConfig) -> float:
    """Energy in joules spent holding the configured load impedances."""
    if duration_s < 0:
        raise ValueError("duration must be >= 0")
    maintain = _interp_power(config.maintain_power_by_vcc, config.vcc, "maintain")
    return maintain * duration_s


@dataclass(frozen=True)
class MeasuredEnergyCell:
    """One measured active-mode energy cell of the reference board."""

    vcc: float
    protocol: str | None  # None for the hold-phase column
    baud: float | None
    energy_uj: float
    phase: str  # "I" or "II"


# Measured active-mode energy of the reference 24-channel board: phase I per
# bus and baud, phase II for a 1 s hold.
REFERENCE_ACTIVE_MODE_ENERGY: tuple[MeasuredEnergyCell, ...] = (
    MeasuredEnergyCell(2.0, "i2c", 50e3, 198.5, "I"),
    MeasuredEnergyCell(2.0, "i2c", 200e3, 56.6, "I"),
    MeasuredEnergyCell(2.0, "i2c", 400e3, 38.4, "I"),
    MeasuredEnergyCell(2.0, "spi", 125e3, 48.9, "I"),
    MeasuredEnergyCell(2.0, "spi", 500e3, 15.3, "I"),
    MeasuredEnergyCell(2.0, "spi", 2e6, 8.8, "I"),
    MeasuredEnergyCell(2.0, None, None, 9300.0, "II"),
    MeasuredEnergyCell(3.0, "i2c", 50e3, 397.0, "I"),
    MeasuredEnergyCell(3.0, "i2c", 200e3, 112.4, "I"),
    MeasuredEnergyCell(3.0, "i2c", 400e3, 73.7, "I"),
    MeasuredEnergyCell(3.0, "spi", 125e3, 98.1, "I"),
    MeasuredEnergyCell(3.0, "spi", 500e3, 33.6, "I"),
    MeasuredEnergyCell(3.0, "spi", 2e6, 18.0, "I"),
    MeasuredEnergyCell(3.0, None, None, 19900.0, "II"),
    MeasuredEnergyCell(4.0, "i2c", 50e3, 694.7, "I"),
    MeasuredEnergyCell(4.0, "i2c", 200e3, 198.4, "I"),
    MeasuredEnergyCell(4.0, "i2c", 400e3, 127.7, "I"),
    MeasuredEnergyCell(4.0, "spi", 125e3, 172.5, "I"),
    MeasuredEnergyCell(4.0, "spi", 500e3, 58.6, "I"),
    MeasuredEnergyCell(4.0, "spi", 2e6, 31.8, "I"),
    MeasuredEnergyCell(4.0, None, None, 35300.0, "II"),
)


def reference_deviation_report(config: PowerConfig | None = None) -> list[dict]:
    """Model-vs-measurement deviation for every reference energy cell.

    Returns one dict per cell with the modeled energy, the measured energy,
    and the deviation in percent. High-baud phase-I cells are expected to
    deviate (unmodeled per-message controller overhead); the hold-phase cells
    and the low-baud cells should sit within a few percent.
    """
    base = config if config is not None else PowerConfig()
    rows: list[dict] = []
    for cell in REFERENCE_ACTIVE_MODE_ENERGY:
        cfg = replace(base, vcc=cell.vcc)
        if cell.phase == "I":
            transfer = (
                BusTransfer.i2c(baud=cell.baud)
                if cell.protocol == "i2c"
                else BusTransfer.spi(baud=cell.baud)
            )
            model_uj = phase1_energy([transfer], cfg) * 1e6
        else:
            model_uj = phase2_energy(1.0, cfg) * 1e6
        rows.append(
            {
                "vcc": cell.vcc,
                "protocol": cell.protocol or "",
                "baud": cell.baud or "",
                "phase": cell.phase,
                "measured_uj": cell.energy_uj,
                "model_uj": model_uj,
                "deviation_pct": (model_uj - cell.energy_uj) / cell.energy_uj * 100.0,
            }
        )
    return rows


def write_reference_csv(path) -> None:
    """Write the measured reference dataset as ``vcc,protocol,baud,energy_uJ,phase``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["vcc", "protocol", "baud", "energy_uJ", "phase"])
        for row in REFERENCE_ACTIVE_MODE_ENERGY:
            writer.writerow(
                [
                    f"{row.vcc:g}",
                    row.protocol or "",
                    f"{row.baud:g}" if row.baud else "",
                    f"{row.energy_uj:g}",
                    row.phase,
                ]
            )
