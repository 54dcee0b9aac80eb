"""Far-field array-factor evaluation, angular sweeps, and beam metrics.

Elements are isotropic point scatterers: no element pattern, no baffle, no
mutual coupling, so lobe positions and ordinal scheme comparisons are
meaningful while absolute pressures are not. The array factor along a probe
direction ``u`` is

    AF(u) = sum_i gamma_i * exp(j*k * p_i . (u - d))

with ``d`` the incident propagation direction: the incident phase at each
element and the path advance toward the probe combine into the single
``(u - d)`` projection.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import PlaneWave
from .geometry import ArrayGeometry
from .hardware import HardwareCatalog
from .synthesis import GammaAssignment, configure

__all__ = [
    "NoLobesError",
    "BeamPattern",
    "BeamMetrics",
    "SchemeComparison",
    "sweep_directions",
    "array_factor",
    "beam_metrics",
    "compare_schemes",
]

SWEEP_PLANES = ("yz", "xz", "xy")
DEFAULT_SIDE_LOBE_FLOOR = 0.05
_HALF_POWER = 1.0 / math.sqrt(2.0)


class NoLobesError(ValueError):
    """The pattern is flat (or empty); lobe metrics are undefined."""


def sweep_directions(plane: str, angles_deg: np.ndarray) -> np.ndarray:
    """Unit probe directions for a named sweep plane, shape (M, 3).

    Angle convention per plane: ``yz`` maps theta to (0, cos, sin), ``xz`` to
    (cos, 0, sin), ``xy`` to (cos, sin, 0).
    """
    th = np.deg2rad(np.asarray(angles_deg, dtype=float))
    zeros = np.zeros_like(th)
    if plane == "yz":
        comps = (zeros, np.cos(th), np.sin(th))
    elif plane == "xz":
        comps = (np.cos(th), zeros, np.sin(th))
    elif plane == "xy":
        comps = (np.cos(th), np.sin(th), zeros)
    else:
        raise ValueError(f"sweep plane must be one of {SWEEP_PLANES}, got {plane!r}")
    return np.stack(comps, axis=-1)


@dataclass(frozen=True)
class BeamPattern:
    """Complex angular response over a sweep in a named plane.

    ``normalization`` is the pattern's own peak magnitude, used for the
    normalized view (each scheme is normalized to its own peak when patterns
    are compared).
    """

    plane: str
    angles_deg: np.ndarray
    response: np.ndarray

    def __post_init__(self) -> None:
        angles = np.asarray(self.angles_deg, dtype=float)
        resp = np.asarray(self.response, dtype=complex)
        if angles.ndim != 1 or angles.size < 3:
            raise ValueError("pattern needs at least 3 angle samples")
        if np.any(np.diff(angles) <= 0):
            raise ValueError("pattern angles must be strictly increasing")
        if resp.shape != angles.shape:
            raise ValueError("response and angle grids differ in shape")
        object.__setattr__(self, "angles_deg", angles)
        object.__setattr__(self, "response", resp)

    @property
    def magnitudes(self) -> np.ndarray:
        return np.abs(self.response)

    @property
    def normalization(self) -> float:
        return float(np.max(self.magnitudes))

    @property
    def normalized(self) -> np.ndarray:
        peak = self.normalization
        if peak == 0.0:
            return np.zeros_like(self.magnitudes)
        return self.magnitudes / peak

    def write_csv(self, target) -> None:
        """Write ``angle_deg,magnitude,phase_rad,normalized`` rows."""
        mags = self.magnitudes
        norm = self.normalized
        phases = np.angle(self.response)

        def _write(fh) -> None:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["angle_deg", "magnitude", "phase_rad", "normalized"])
            for a, m, p, n in zip(self.angles_deg, mags, phases, norm):
                writer.writerow([f"{a:.6g}", f"{m:.12g}", f"{p:.12g}", f"{n:.12g}"])

        if isinstance(target, (str, Path)):
            with open(target, "w", newline="") as fh:
                _write(fh)
        else:
            _write(target)

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        self.write_csv(buf)
        return buf.getvalue()


def array_factor(
    geometry: ArrayGeometry,
    assignment: GammaAssignment,
    incident: PlaneWave,
    plane: str = "yz",
    angles_deg=None,
    use_quantized: bool = False,
) -> BeamPattern:
    """Evaluate the array factor over an angular sweep.

    On a lattice array (``geometry.lattice``: a full product grid, one
    element per cell) the exponent separates per axis, the planar-array
    product form: ``AF = sum_rows (G @ E_x) * E_row``, where ``E_a`` holds
    ``exp(j*k*a*(u - d)_a)`` for the unique coordinates ``a`` of one axis,
    ``G`` is the (ny*nz, nx) coefficient grid and ``E_row`` the (ny*nz, M)
    product of the y and z factors. That costs (nx+ny+nz)*M ``exp`` calls
    instead of N*M for M probe angles. Any other layout takes the dense sum
    in ascending element id order. Either way the result depends only on the
    positions and coefficients, not on the element order, and identical
    inputs give identical bits (also across BLAS thread counts). A
    triangle-inequality guard, ``max |AF| <= sum |gamma|``, is asserted on
    every run.

    :param angles_deg: strictly increasing degree grid (default 0..360 step 0.5)
    :param use_quantized: evaluate the catalog-quantized coefficients instead
        of the ideal ones (requires a quantized assignment)
    :raises ValueError: if the assignment's ids do not match the geometry
    """
    if angles_deg is None:
        angles_deg = np.arange(0.0, 360.0, 0.5)
    angles = np.asarray(angles_deg, dtype=float)
    gam_map = assignment.quantized_gammas if use_quantized else assignment.gammas
    if use_quantized and gam_map is None:
        raise ValueError("assignment has no quantized coefficients")
    if set(gam_map) != set(geometry.ids):
        raise ValueError("assignment does not cover exactly the array's element ids")

    k = incident.wavenumber
    probe = sweep_directions(plane, angles) - incident.direction
    lattice = geometry.lattice
    if lattice is None:
        order = sorted(geometry.ids)
        pos = geometry.positions[[geometry.index[i] for i in order]]
        gammas = np.array([gam_map[i] for i in order], dtype=complex)
        response = (gammas[:, None] * np.exp(1j * (k * (pos @ probe.T)))).sum(axis=0)
    else:
        gammas = np.array([gam_map[i] for i in geometry.ids], dtype=complex)
        axes = lattice.axes
        ex, ey, ez = (np.exp(1j * (k * np.outer(v, probe[:, a]))) for a, v in enumerate(axes))
        nx, ny, nz = (len(v) for v in axes)
        ix, iy, iz = lattice.cells.T
        grid = np.zeros((ny * nz, nx), dtype=complex)
        grid[iy * nz + iz, ix] = gammas
        rows = (ey[:, None, :] * ez[None, :, :]).reshape(ny * nz, -1)
        response = ((grid @ ex) * rows).sum(axis=0)

    bound = float(np.sum(np.abs(gammas)))
    if float(np.max(np.abs(response))) > bound + 1e-9:
        raise AssertionError("array factor exceeded the coefficient-sum bound")
    return BeamPattern(plane, angles, response)


@dataclass(frozen=True)
class BeamMetrics:
    """Lobe structure of one pattern.

    ``side_lobes`` holds (angle_deg, normalized magnitude) for every local
    maximum other than the main lobe, above the reporting floor, sorted by
    magnitude descending. ``hpbw_deg`` is the width between the first
    half-power (1/sqrt(2)) crossings on either side of the main peak.
    """

    main_lobe_deg: float
    main_lobe_mag: float
    side_lobes: tuple[tuple[float, float], ...]
    hpbw_deg: float

    @property
    def max_side_lobe(self) -> float:
        return self.side_lobes[0][1] if self.side_lobes else 0.0

    def to_json(self) -> dict:
        return {
            "main_lobe_deg": self.main_lobe_deg,
            "main_lobe_mag": self.main_lobe_mag,
            "hpbw_deg": self.hpbw_deg,
            "side_lobes": [
                {"angle_deg": a, "normalized": m} for a, m in self.side_lobes
            ],
        }


def _interp_crossing(x0, y0, x1, y1, level) -> float:
    if y1 == y0:
        return x0
    return x0 + (level - y0) * (x1 - x0) / (y1 - y0)


def beam_metrics(pattern: BeamPattern) -> BeamMetrics:
    """Extract main lobe, side lobes, and half-power beamwidth.

    The main lobe is the global maximum of the sweep (first index on exact
    ties). Side lobes are the interior local maxima of the normalized
    magnitude at or above ``DEFAULT_SIDE_LOBE_FLOOR``.

    :raises NoLobesError: for a flat pattern, or when the half-power level is
        never crossed inside the sweep (main lobe clipped at the edge)
    """
    norm = pattern.normalized
    angles = pattern.angles_deg
    if np.ptp(norm) < 1e-12 or pattern.normalization == 0.0:
        raise NoLobesError("pattern is flat; no lobes to measure")

    imax = int(np.argmax(norm))
    side: list[tuple[float, float]] = []
    for i in range(1, len(norm) - 1):
        if i == imax:
            continue
        if (
            norm[i] > norm[i - 1]
            and norm[i] > norm[i + 1]
            and norm[i] >= DEFAULT_SIDE_LOBE_FLOOR
        ):
            side.append((float(angles[i]), float(norm[i])))
    side.sort(key=lambda t: (-t[1], t[0]))

    li = imax
    while li > 0 and norm[li] > _HALF_POWER:
        li -= 1
    ri = imax
    while ri < len(norm) - 1 and norm[ri] > _HALF_POWER:
        ri += 1
    if norm[li] > _HALF_POWER or norm[ri] > _HALF_POWER:
        raise NoLobesError("half-power level not crossed inside the sweep")
    left = _interp_crossing(angles[li], norm[li], angles[li + 1], norm[li + 1], _HALF_POWER)
    right = _interp_crossing(angles[ri], norm[ri], angles[ri - 1], norm[ri - 1], _HALF_POWER)

    return BeamMetrics(
        main_lobe_deg=float(angles[imax]),
        main_lobe_mag=float(pattern.magnitudes[imax]),
        side_lobes=tuple(side),
        hpbw_deg=float(right - left),
    )


@dataclass(frozen=True)
class SchemeComparison:
    """Metrics per scheme plus pairwise deltas on identical sweeps."""

    patterns: dict[str, BeamPattern]
    metrics: dict[str, BeamMetrics]
    deltas: dict[str, dict[str, float]]

    def to_json(self) -> dict:
        return {
            "metrics": {k: m.to_json() for k, m in self.metrics.items()},
            "deltas": self.deltas,
        }


def compare_schemes(
    geometry: ArrayGeometry,
    incident: PlaneWave,
    target_dir,
    schemes,
    plane: str = "yz",
    angles_deg=None,
    catalog: HardwareCatalog | None = None,
) -> SchemeComparison:
    """Configure, sweep, and measure several schemes on identical grids.

    ``deltas["a_vs_b"]`` reports ``a``'s max side lobe and half-power width
    minus ``b``'s, for every ordered scheme pair. Repeated scheme labels are
    disambiguated with a ``#n`` suffix (the delta of a scheme against itself
    is zero by construction).

    :raises ValueError: with fewer than 2 schemes
    """
    labels = list(schemes)
    if len(labels) < 2:
        raise ValueError("comparison needs at least 2 schemes")
    keys: list[str] = []
    for label in labels:
        key, n = label, 1
        while key in keys:
            n += 1
            key = f"{label}#{n}"
        keys.append(key)
    patterns: dict[str, BeamPattern] = {}
    metrics: dict[str, BeamMetrics] = {}
    for key, label in zip(keys, labels):
        assignment = configure(label, geometry, incident, target_dir, catalog)
        pattern = array_factor(geometry, assignment, incident, plane, angles_deg)
        patterns[key] = pattern
        metrics[key] = beam_metrics(pattern)
    deltas: dict[str, dict[str, float]] = {}
    for a in keys:
        for b in keys:
            if a == b:
                continue
            deltas[f"{a}_vs_{b}"] = {
                "max_side_lobe_delta": metrics[a].max_side_lobe - metrics[b].max_side_lobe,
                "hpbw_delta_deg": metrics[a].hpbw_deg - metrics[b].hpbw_deg,
            }
    return SchemeComparison(patterns, metrics, deltas)
