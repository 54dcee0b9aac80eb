"""Per-element reflection-coefficient synthesis.

Two families of steering configurations are produced, both reached through
:func:`configure`:

* the synthesized-pair scheme: elements on a common reflected wavefront are
  paired, the first member reflects a real (in-phase/antiphase) component and
  the second a quadrature component, and the two amplitudes are solved so the
  pair radiates an arbitrary target phase;
* the coded baselines, restricting each element to 2 or 4 discrete states.

The pair solve is defined by the substitution identity

    a1 * exp(j*phi1) + a2 * exp(j*(phi2 + pi/2)) = amp * exp(j*phi_r)

split into real and imaginary parts and solved by Cramer's rule on the
resulting real 2x2 system. The system is singular when the two basis phasors
are colinear, i.e. when cos(phi1 - phi2) vanishes. Solved pairs are scaled
onto the passive bound globally, by the worst component over all pairs, so
the designed wavefront is preserved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PlaneWave, unit_vector, wrap_angle
from .geometry import ArrayGeometry, incident_phases, pair_reflectors
from .hardware import HardwareCatalog, LoadState, quantize_gamma

__all__ = [
    "SingularPairingError",
    "NoPairsError",
    "PairSolution",
    "GammaAssignment",
    "solve_pair",
    "configure",
    "configure_synthetic",
    "configure_coded",
    "quantize_assignment",
]

_SINGULAR_TOL = 1e-6
PAIRING_TOLERANCE_WAVELENGTHS = 1.0 / 64.0  # < 6 deg of phase error within a pair


class SingularPairingError(ValueError):
    """The pair's basis phasors are colinear; no amplitude solution exists."""

    def __init__(self, message: str, pair_ids: tuple[int, int] | None = None):
        super().__init__(message)
        self.pair_ids = pair_ids


class NoPairsError(ValueError):
    """Wavefront pairing produced no usable pairs for this geometry/target."""


@dataclass(frozen=True)
class PairSolution:
    """Amplitudes of one synthesized pair.

    ``a1`` drives the real-axis (in-phase/antiphase) member, ``a2`` the
    quadrature member; both carry sign.
    """

    a1: float
    a2: float


def solve_pair(
    phi1: float, phi2: float, phi_r: float, target_amplitude: float
) -> PairSolution:
    """Solve the pair amplitudes realizing a target phasor.

    Returns (a1, a2) such that ``a1*e^{j phi1} + a2*e^{j(phi2+pi/2)}`` equals
    ``target_amplitude * e^{j phi_r}`` exactly.

    :param phi1: incident phase at the real-axis member, rad
    :param phi2: incident phase at the quadrature member, rad
    :param phi_r: phase the pair must radiate, rad
    :param target_amplitude: amplitude the pair must radiate (>= 0)
    :raises SingularPairingError: when |cos(phi1 - phi2)| < 1e-6
    """
    if target_amplitude < 0:
        raise ValueError(f"target amplitude must be >= 0, got {target_amplitude}")
    # Real part:  a1*cos(phi1) - a2*sin(phi2) = amp*cos(phi_r)
    # Imag part:  a1*sin(phi1) + a2*cos(phi2) = amp*sin(phi_r)
    det = math.cos(phi1) * math.cos(phi2) + math.sin(phi1) * math.sin(phi2)
    if abs(det) < _SINGULAR_TOL:
        raise SingularPairingError(
            f"singular pairing: cos(phi1 - phi2) = {det:.2e} for "
            f"phi1={phi1:.6f}, phi2={phi2:.6f}"
        )
    amp = target_amplitude
    det1 = amp * math.cos(phi_r) * math.cos(phi2) + math.sin(phi2) * amp * math.sin(phi_r)
    det2 = math.cos(phi1) * amp * math.sin(phi_r) - math.sin(phi1) * amp * math.cos(phi_r)
    return PairSolution(det1 / det, det2 / det)


@dataclass(frozen=True)
class GammaAssignment:
    """Per-element reflection coefficients for one steering configuration.

    ``quantized_states``/``quantized_gammas`` are populated only when a
    hardware catalog was supplied; ``gammas`` always holds the ideal
    (continuous) coefficients so quantization loss stays observable.
    ``unpaired`` flags elements that received the real-only fallback.
    """

    gammas: dict[int, complex]
    scheme: str
    quantized_states: dict[int, LoadState] | None = None
    quantized_gammas: dict[int, complex] | None = None
    unpaired: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for eid, g in self.gammas.items():
            if abs(g) > 1 + 1e-9:
                raise ValueError(f"|gamma| > 1 for element {eid}: {g}")

    def to_json(self) -> dict:
        doc: dict = {"scheme": self.scheme, "unpaired": list(self.unpaired), "elements": {}}
        for eid in sorted(self.gammas):
            g = self.gammas[eid]
            entry: dict = {"re": g.real, "im": g.imag}
            if self.quantized_states is not None:
                q = self.quantized_gammas[eid]
                entry["load_state"] = self.quantized_states[eid].label
                entry["quantized_re"] = q.real
                entry["quantized_im"] = q.imag
            doc["elements"][str(eid)] = entry
        return doc


def _ideal_phase(position: np.ndarray, k: float, target_dir: np.ndarray, d_inc: np.ndarray) -> float:
    """Continuous coefficient phase that puts this element's reflection in
    phase with the rest of the array along the target direction."""
    return wrap_angle(-k * float(position @ (target_dir - d_inc)))


def configure_synthetic(
    geometry: ArrayGeometry,
    incident: PlaneWave,
    target_dir,
    catalog: HardwareCatalog | None = None,
) -> GammaAssignment:
    """Steering configuration under the synthesized-pair scheme.

    Elements are paired on common wavefronts of the target direction
    (tolerance: wavelength/64). Each pair must radiate phase
    ``phi_r = -k*c`` (c: the pair's projection onto the target direction) so
    all pair contributions add in phase along the target; the two member
    amplitudes come from :func:`solve_pair` with a uniform target amplitude.
    Passivity scaling is global, by the worst pair component, so the relative
    pair weights (and hence the designed wavefront) are preserved. The first
    pair member takes the real amplitude, the second the quadrature one.

    Unpaired elements fall back to the real part of their ideal continuous
    coefficient at the pairs' common amplitude, clipped to the passivity
    bound; they are listed in ``unpaired``.

    :param catalog: when given, every coefficient is additionally quantized
        onto the hardware states; its ``gamma_max`` is the passivity bound
        (default 0.9, the default catalog's)
    :raises NoPairsError: when pairing yields no pairs at all
    :raises SingularPairingError: when a pair's incident phases are in
        quadrature (carries the offending pair ids)
    """
    gmax = catalog.gamma_max if catalog is not None else HardwareCatalog.gamma_max
    t_dir = unit_vector(target_dir)
    k = incident.wavenumber
    tol = PAIRING_TOLERANCE_WAVELENGTHS * incident.wavelength_m
    pairing = pair_reflectors(geometry, t_dir, tol)
    if not pairing.pairs:
        raise NoPairsError(
            "no element pairs share a reflected wavefront for this target"
        )
    phases = incident_phases(geometry, incident)

    pos, index = geometry.positions, geometry.index
    solutions: list[tuple[tuple[int, int], PairSolution]] = []
    for a, b in pairing.pairs:
        c = 0.5 * float((pos[index[a]] + pos[index[b]]) @ t_dir)
        phi_r = wrap_angle(-k * c)
        try:
            sol = solve_pair(phases[a], phases[b], phi_r, 1.0)
        except SingularPairingError as err:
            raise SingularPairingError(str(err), pair_ids=(a, b)) from None
        solutions.append(((a, b), sol))

    worst = max(max(abs(s.a1), abs(s.a2)) for _, s in solutions)
    scale = 1.0 if worst <= gmax else gmax / worst

    gammas: dict[int, complex] = {}
    for (a, b), sol in solutions:
        gammas[a] = complex(sol.a1 * scale)
        gammas[b] = 1j * (sol.a2 * scale)

    # Pair amplitude after scaling; unpaired elements reuse it so their
    # in-phase component stays commensurate with the pairs.
    common_amp = scale  # uniform target amplitude 1.0 times the global scale
    d_inc = incident.direction
    for eid in pairing.unpaired:
        theta = _ideal_phase(pos[index[eid]], k, t_dir, d_inc)
        re = common_amp * math.cos(theta)
        gammas[eid] = complex(max(-gmax, min(gmax, re)))

    assignment = GammaAssignment(
        gammas, "synthetic", unpaired=pairing.unpaired
    )
    if catalog is not None:
        assignment = quantize_assignment(assignment, catalog)
    return assignment


def configure_coded(
    geometry: ArrayGeometry,
    incident: PlaneWave,
    target_dir,
    scheme: str,
) -> GammaAssignment:
    """Steering configuration under a discrete coding baseline.

    For each element the ideal continuous coefficient phase is
    ``theta = -k * p . (target_dir - d_inc)`` (the phase maximizing the
    coherent sum along the target). ``1bit`` picks the closer of {+1, -1} in
    circular distance; ``2bit`` picks from {+1, -1, +0.9j, -0.9j}. Ties break
    toward +1, then +0.9j.
    """
    if scheme not in ("1bit", "2bit"):
        raise ValueError(f"coded scheme must be '1bit' or '2bit', got {scheme!r}")
    # Candidates in tie-break preference order.
    if scheme == "1bit":
        candidates = [(0.0, complex(1.0)), (math.pi, complex(-1.0))]
    else:
        candidates = [
            (0.0, complex(1.0)),
            (math.pi / 2, 0.9j),
            (math.pi, complex(-1.0)),
            (-math.pi / 2, -0.9j),
        ]
    t_dir = unit_vector(target_dir)
    k = incident.wavenumber
    d_inc = incident.direction
    gammas: dict[int, complex] = {}
    for eid, position in zip(geometry.ids, geometry.positions):
        theta = _ideal_phase(position, k, t_dir, d_inc)
        best = min(
            (
                (abs(wrap_angle(theta - phase)), rank, g)
                for rank, (phase, g) in enumerate(candidates)
            ),
        )
        gammas[eid] = best[2]
    return GammaAssignment(gammas, scheme)


def configure(
    scheme: str,
    geometry: ArrayGeometry,
    incident: PlaneWave,
    target_dir,
    catalog: HardwareCatalog | None = None,
    gammas: dict[int, complex] | None = None,
) -> GammaAssignment:
    """Steering configuration for a named scheme.

    ``synthetic`` goes to :func:`configure_synthetic`, ``1bit``/``2bit`` to
    :func:`configure_coded`; ``explicit`` takes ``gammas`` as given, in
    ``geometry.ids`` order (every array id must be a key). With a catalog,
    every coefficient is additionally quantized onto the hardware states.
    """
    if scheme == "synthetic":
        return configure_synthetic(geometry, incident, target_dir, catalog=catalog)
    if scheme == "explicit":
        assignment = GammaAssignment({i: gammas[i] for i in geometry.ids}, "explicit")
    else:
        assignment = configure_coded(geometry, incident, target_dir, scheme)
    if catalog is not None:
        assignment = quantize_assignment(assignment, catalog)
    return assignment


def quantize_assignment(
    assignment: GammaAssignment, catalog: HardwareCatalog
) -> GammaAssignment:
    """Quantize every coefficient of an assignment onto the hardware catalog."""
    states: dict[int, LoadState] = {}
    quantized: dict[int, complex] = {}
    for eid, g in assignment.gammas.items():
        state, gq = quantize_gamma(g, catalog)
        states[eid] = state
        quantized[eid] = gq
    return GammaAssignment(
        dict(assignment.gammas),
        assignment.scheme,
        quantized_states=states,
        quantized_gammas=quantized,
        unpaired=assignment.unpaired,
    )
