"""Tank multipath replay, differential-signal analysis, and the acoustic
link budget (seawater absorption, SNR-to-rate, SNR-to-range).

The tank channel is a static tap model: every received component is a
delayed, scaled, phase-shifted copy of the source tone. Taps split into a
static set (direct path and multipath that never touches the reflector) and
a reflector set, whose taps are additionally multiplied by the reflector's
complex reflection coefficient in baseband before the real waveform is
rendered. Only single-bounce reflector interaction is modeled; multiply
reflected waves are strongly attenuated and ignored.

Subtracting two received waveforms that differ only in the reflector
coefficient cancels the static taps exactly, which is what makes the
differential amplitude ratios predictable from the coefficients alone.
"""

from __future__ import annotations

import json
import math
import wave as wave_module
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import PlaneWave

__all__ = [
    "Tap",
    "TankChannel",
    "Waveform",
    "LinkBudgetParams",
    "simulate_received",
    "differential_component",
    "differential_ratio",
    "steady_state_amplitude",
    "absorption_fg",
    "rate_multiplier",
    "rate_gain_percent",
    "range_extension",
]

DEFAULT_SAMPLES_PER_CYCLE = 16
_BISECTION_RESIDUAL_DB = 1e-9


@dataclass(frozen=True)
class Tap:
    """One propagation path: amplitude scale, carrier phase shift, delay."""

    amplitude: float
    phase_rad: float
    delay_s: float

    def __post_init__(self) -> None:
        if self.amplitude < 0:
            raise ValueError(f"tap amplitude must be >= 0, got {self.amplitude}")
        if self.delay_s < 0:
            raise ValueError(f"tap delay must be >= 0, got {self.delay_s}")

    @property
    def coefficient(self) -> complex:
        return self.amplitude * complex(math.cos(self.phase_rad), math.sin(self.phase_rad))


@dataclass(frozen=True)
class TankChannel:
    """Static-plus-reflector tap model of a tank (or any static) channel."""

    static_taps: tuple[Tap, ...]
    reflector_taps: tuple[Tap, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "static_taps", tuple(self.static_taps))
        object.__setattr__(self, "reflector_taps", tuple(self.reflector_taps))

    @property
    def max_delay_s(self) -> float:
        delays = [t.delay_s for t in self.static_taps + self.reflector_taps]
        return max(delays) if delays else 0.0

    def to_json(self) -> dict:
        def tap_doc(t: Tap) -> dict:
            return {"amplitude": t.amplitude, "phase_rad": t.phase_rad, "delay_s": t.delay_s}

        return {
            "static_taps": [tap_doc(t) for t in self.static_taps],
            "reflector_taps": [tap_doc(t) for t in self.reflector_taps],
        }

    @classmethod
    def from_json(cls, doc: dict | str | Path) -> "TankChannel":
        if isinstance(doc, (str, Path)):
            doc = json.loads(Path(doc).read_text())
        def taps(rows) -> tuple[Tap, ...]:
            return tuple(Tap(r["amplitude"], r["phase_rad"], r["delay_s"]) for r in rows)

        return cls(taps(doc.get("static_taps", [])), taps(doc.get("reflector_taps", [])))


@dataclass(frozen=True)
class Waveform:
    """Uniformly sampled real waveform."""

    sample_rate_hz: float
    samples: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=float))
        if self.sample_rate_hz <= 0:
            raise ValueError("sample rate must be positive")

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.samples.size) / self.sample_rate_hz

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate_hz

    def write_csv(self, path) -> None:
        """Write ``t_s,value`` rows."""
        with open(path, "w", newline="") as fh:
            fh.write("t_s,value\n")
            for t, v in zip(self.times, self.samples):
                fh.write(f"{t:.9g},{v:.12g}\n")

    def write_wav(self, path, peak: float | None = None) -> None:
        """Write 16-bit PCM mono WAV for listening checks.

        ``peak`` sets the amplitude mapped to full scale; defaults to the
        waveform's own peak (silence stays silent).
        """
        scale = peak if peak is not None else float(np.max(np.abs(self.samples)))
        if scale == 0.0:
            scale = 1.0
        pcm = np.clip(self.samples / scale, -1.0, 1.0)
        data = (pcm * 32767.0).astype("<i2").tobytes()
        with wave_module.open(str(path), "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(2)
            wf.setframerate(int(round(self.sample_rate_hz)))
            wf.writeframes(data)


def simulate_received(
    channel: TankChannel,
    gamma: complex,
    source: PlaneWave,
    duration_s: float,
    sample_rate_hz: float | None = None,
) -> Waveform:
    """Render the received waveform for one reflector coefficient.

    Each tap contributes ``A * cos(2*pi*f*(t - tau) + psi)`` from its own
    delay onward (burst-style onset); reflector taps are first multiplied by
    ``gamma`` in complex baseband. The result is affine in ``gamma``. Only
    the source's frequency and amplitude matter here; propagation geometry
    lives in the taps.

    :param sample_rate_hz: default 16 samples per carrier cycle
    :raises ValueError: if the tone is undersampled or the duration does not
        cover the channel's longest delay
    """
    f = source.frequency_hz
    fs = sample_rate_hz if sample_rate_hz is not None else DEFAULT_SAMPLES_PER_CYCLE * f
    if fs <= 2.0 * f:
        raise ValueError(f"sample rate {fs} Hz undersamples a {f} Hz tone")
    if duration_s <= channel.max_delay_s:
        raise ValueError("duration must cover the channel's longest delay")

    n = int(round(duration_s * fs))
    t = np.arange(n) / fs
    omega = 2.0 * math.pi * f
    total = np.zeros(n)
    for tap, coeff in _tap_coefficients(channel, complex(gamma)):
        active = t >= tap.delay_s
        phase = omega * (t[active] - tap.delay_s)
        total[active] += source.amplitude * (
            coeff.real * np.cos(phase) - coeff.imag * np.sin(phase)
        )
    return Waveform(fs, total)


def _tap_coefficients(channel: TankChannel, gamma: complex):
    for tap in channel.static_taps:
        yield tap, tap.coefficient
    for tap in channel.reflector_taps:
        yield tap, gamma * tap.coefficient


def differential_component(r_a: Waveform, r_b: Waveform) -> Waveform:
    """Half-difference of two received waveforms, sample-wise.

    For waveforms that differ only in the reflector coefficient, the static
    taps cancel and only the reflector-borne signal remains.

    :raises ValueError: on mismatched lengths or sample rates
    """
    if r_a.samples.shape != r_b.samples.shape:
        raise ValueError("waveform lengths differ")
    if r_a.sample_rate_hz != r_b.sample_rate_hz:
        raise ValueError("waveform sample rates differ")
    return Waveform(r_a.sample_rate_hz, (r_a.samples - r_b.samples) / 2.0)


def differential_ratio(
    gamma_a: complex, gamma_b: complex, gamma_ref_a: complex, gamma_ref_b: complex
) -> float:
    """Predicted steady-state amplitude ratio of two differential signals.

    Differential signals sharing the same reflector taps scale with the
    difference of their reflector coefficients, so the ratio is
    ``|gamma_a - gamma_b| / |gamma_ref_a - gamma_ref_b|``.

    :raises ValueError: when the reference coefficients coincide
    """
    ref = abs(complex(gamma_ref_a) - complex(gamma_ref_b))
    if ref == 0.0:
        raise ValueError("reference coefficients coincide; ratio undefined")
    return abs(complex(gamma_a) - complex(gamma_b)) / ref


def steady_state_amplitude(waveform: Waveform, settle_s: float) -> float:
    """Tone amplitude estimated as sqrt(2) * RMS over t >= settle_s."""
    mask = waveform.times >= settle_s
    if not np.any(mask):
        raise ValueError("settle time leaves no samples to measure")
    return math.sqrt(2.0) * float(np.sqrt(np.mean(waveform.samples[mask] ** 2)))


# ---------------------------------------------------------------------------
# Link budget
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinkBudgetParams:
    """Inputs of the range-extension equation.

    :param alpha: geometric spreading coefficient (1 cylindrical / shallow,
        2 spherical / deep; any positive real is accepted)
    :param beta_db_per_km: absorption in dB/km
    :param r_x_km: baseline communication range in km
    :param delta_snr_db: SNR gain available to spend on extra range, in dB
    """

    alpha: float
    beta_db_per_km: float
    r_x_km: float
    delta_snr_db: float

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError("spreading coefficient must be positive")
        if self.beta_db_per_km < 0:
            raise ValueError("absorption must be >= 0")
        if self.r_x_km <= 0:
            raise ValueError("baseline range must be positive")


def absorption_fg(
    frequency_hz: float,
    temperature_c: float,
    salinity_ppt: float,
    ph: float,
    depth_m: float,
) -> float:
    """Seawater sound absorption in dB/km, Francois & Garrison (1982).

    Sum of the boric-acid and magnesium-sulfate relaxation terms and the
    pure-water viscous term, each with its published pressure/temperature
    dependence.

    :param frequency_hz: 100 Hz .. 1 MHz
    :param temperature_c: -6 .. 35 deg C
    :param salinity_ppt: 5 .. 50 ppt
    :param ph: 6 .. 9
    :param depth_m: 0 .. 11000 m
    :raises ValueError: outside these ranges
    """
    if not 100.0 <= frequency_hz <= 1e6:
        raise ValueError(f"frequency {frequency_hz} Hz outside [100 Hz, 1 MHz]")
    if not -6.0 <= temperature_c <= 35.0:
        raise ValueError(f"temperature {temperature_c} C outside [-6, 35]")
    if not 5.0 <= salinity_ppt <= 50.0:
        raise ValueError(f"salinity {salinity_ppt} ppt outside [5, 50]")
    if not 6.0 <= ph <= 9.0:
        raise ValueError(f"pH {ph} outside [6, 9]")
    if not 0.0 <= depth_m <= 11000.0:
        raise ValueError(f"depth {depth_m} m outside [0, 11000]")

    f = frequency_hz / 1000.0  # model works in kHz
    t = temperature_c
    s = salinity_ppt
    d = depth_m
    c = 1412.0 + 3.21 * t + 1.19 * s + 0.0167 * d

    # Boric acid
    a1 = 8.86 / c * 10.0 ** (0.78 * ph - 5.0)
    p1 = 1.0
    f1 = 2.8 * math.sqrt(s / 35.0) * 10.0 ** (4.0 - 1245.0 / (t + 273.0))

    # Magnesium sulfate
    a2 = 21.44 * s / c * (1.0 + 0.025 * t)
    p2 = 1.0 - 1.37e-4 * d + 6.2e-9 * d * d
    f2 = 8.17 * 10.0 ** (8.0 - 1990.0 / (t + 273.0)) / (1.0 + 0.0018 * (s - 35.0))

    # Pure water
    p3 = 1.0 - 3.83e-5 * d + 4.9e-10 * d * d
    if t <= 20.0:
        a3 = 4.937e-4 - 2.59e-5 * t + 9.11e-7 * t * t - 1.50e-8 * t ** 3
    else:
        a3 = 3.964e-4 - 1.146e-5 * t + 1.45e-7 * t * t - 6.5e-10 * t ** 3

    return (
        a1 * p1 * f1 * f * f / (f1 * f1 + f * f)
        + a2 * p2 * f2 * f * f / (f2 * f2 + f * f)
        + a3 * p3 * f * f
    )


def rate_multiplier(delta_snr_db: float) -> float:
    """Data-rate scale factor afforded by an SNR gain at fixed BER.

    Linear-SNR (fixed energy-per-bit) model: ``10**(delta_snr/10)``. The
    percentage gain is ``(factor - 1) * 100``.
    """
    return 10.0 ** (delta_snr_db / 10.0)


def rate_gain_percent(delta_snr_db: float) -> float:
    return (rate_multiplier(delta_snr_db) - 1.0) * 100.0


def _one_way_loss_gain_db(r_km: float, params: LinkBudgetParams) -> float:
    """Extra transmission loss of range r relative to the baseline, in dB."""
    return 10.0 * params.alpha * (
        math.log10(r_km) - math.log10(params.r_x_km)
    ) + params.beta_db_per_km * (r_km - params.r_x_km)


def range_extension(params: LinkBudgetParams) -> float:
    """Extended range r_y >= r_x whose extra spreading-plus-absorption loss
    equals the available SNR gain.

    Solves ``10*alpha*(log10(r_y) - log10(r_x)) + beta*(r_y - r_x) = dSNR``
    by bisection: the left-hand side is strictly increasing in ``r_y``, the
    bracket grows geometrically from [r_x, 2*r_x], and iteration stops when
    the residual falls below ``_BISECTION_RESIDUAL_DB``.

    :raises ValueError: for negative SNR gain (range shrinkage is not modeled)
    """
    d = params.delta_snr_db
    if d < 0:
        raise ValueError("delta_snr must be >= 0")
    if d == 0:
        return params.r_x_km
    lo, hi = params.r_x_km, 2.0 * params.r_x_km
    while _one_way_loss_gain_db(hi, params) < d:
        hi *= 2.0
    mid = 0.5 * (lo + hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        res = _one_way_loss_gain_db(mid, params) - d
        if abs(res) < _BISECTION_RESIDUAL_DB:
            return mid
        if res < 0:
            lo = mid
        else:
            hi = mid
    raise ArithmeticError("bisection failed to reach the residual target")
