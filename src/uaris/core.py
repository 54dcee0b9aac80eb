"""Shared value types and small signal-algebra helpers.

All tone-level math in this package runs on complex phasors (plain Python
``complex`` / numpy ``complex128``); time-domain waveforms are rendered only
by the tank-replay machinery in :mod:`uaris.channel`. Angles are radians
internally and normalized to (-pi, pi]; degrees appear only at file/CLI
boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def wrap_angle(radians: float) -> float:
    """Normalize an angle to the interval (-pi, pi]."""
    a = math.fmod(radians, TWO_PI)
    if a > math.pi:
        a -= TWO_PI
    elif a <= -math.pi:
        a += TWO_PI
    return a


def wrap_angles(radians: np.ndarray) -> np.ndarray:
    """Elementwise :func:`wrap_angle`, bitwise equal to it for each entry."""
    a = np.fmod(radians, TWO_PI)
    a = np.where(a > math.pi, a - TWO_PI, a)
    return np.where(a <= -math.pi, a + TWO_PI, a)


def circular_distance(a: float, b: float) -> float:
    """Distance between two angles on the circle, in [0, pi]."""
    return abs(wrap_angle(a - b))


def db_from_amplitude_ratio(v_new: float, v_base: float) -> float:
    """Gain in dB between two amplitude-like quantities (20*log10 convention).

    Applies to pressure or voltage amplitudes, e.g. received-signal voltages
    before and after reconfiguring the reflector array.

    :param v_new: new amplitude (> 0)
    :param v_base: baseline amplitude (> 0)
    :returns: 20*log10(v_new/v_base) in dB
    :raises ValueError: if either amplitude is not strictly positive
    """
    if v_new <= 0 or v_base <= 0:
        raise ValueError(
            f"amplitudes must be positive, got v_new={v_new}, v_base={v_base}"
        )
    return 20.0 * math.log10(v_new / v_base)


def unit_vector(v) -> np.ndarray:
    """Return ``v`` scaled to unit length as a float ndarray of shape (3,).

    :raises ValueError: if ``v`` is not 3-dimensional, non-finite, or zero.
    """
    arr = np.asarray(v, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("direction vector must be finite")
    norm = float(np.linalg.norm(arr))
    if norm == 0.0:
        raise ValueError("direction vector must be nonzero")
    return arr / norm


def direction_from_angles(azimuth_deg: float, elevation_deg: float) -> np.ndarray:
    """Unit direction vector from azimuth/elevation in degrees.

    Azimuth is measured in the x-y plane from +x toward +y; elevation from
    the x-y plane toward +z. (0, 0) maps to +x, (90, 0) to +y, (any, 90)
    to +z.
    """
    az = math.radians(azimuth_deg)
    el = math.radians(elevation_deg)
    return np.array(
        [math.cos(el) * math.cos(az), math.cos(el) * math.sin(az), math.sin(el)]
    )


@dataclass(frozen=True)
class PlaneWave:
    """Monochromatic plane wave used as the interrogating tone.

    ``propagation_dir`` is the direction of travel (not the source bearing)
    and is normalized on construction.

    :param frequency_hz: tone frequency in Hz (> 0)
    :param amplitude: pressure amplitude in arbitrary units
    :param propagation_dir: 3-vector direction of travel
    :param sound_speed_mps: medium sound speed in m/s (default 1500)
    """

    frequency_hz: float
    amplitude: float = 1.0
    propagation_dir: tuple[float, float, float] = (0.0, 0.0, -1.0)
    sound_speed_mps: float = 1500.0

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0:
            raise ValueError(f"frequency must be positive, got {self.frequency_hz}")
        if self.sound_speed_mps <= 0:
            raise ValueError(
                f"sound speed must be positive, got {self.sound_speed_mps}"
            )
        d = unit_vector(self.propagation_dir)
        object.__setattr__(self, "propagation_dir", (d[0], d[1], d[2]))

    @property
    def direction(self) -> np.ndarray:
        """Propagation direction as a unit ndarray."""
        return np.asarray(self.propagation_dir, dtype=float)

    @property
    def wavelength_m(self) -> float:
        return self.sound_speed_mps / self.frequency_hz

    @property
    def wavenumber(self) -> float:
        """Angular wavenumber k = 2*pi/wavelength, in rad/m."""
        return TWO_PI / self.wavelength_m
