"""Electrical load network model: load states, reflection coefficients, and
quantization of ideal coefficients onto the realizable hardware states.

The load network behind each acoustic reflector is matched to a real
characteristic impedance ``z0`` and switched between a programmable
potentiometer (real-axis reflection coefficients), three capacitive stages
(coefficients on the -j axis), three inductive stages (+j axis), and the
open/short extremes. Reactive stages are described by their nominal
reflection coefficients, so the catalog does not depend on frequency.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

__all__ = [
    "LoadState",
    "HardwareCatalog",
    "reflection_coefficient",
    "catalog_gammas",
    "quantize_gamma",
]

_STATE_KINDS = (
    "open",
    "short",
    "potentiometer",
    "cap_stage",
    "ind_stage",
)


@dataclass(frozen=True)
class LoadState:
    """One selectable state of the load network.

    Each stage is switched through a back-to-back NMOS pair so the load can
    carry the AC signal in both half-cycles; switching transients are not
    modeled. ``value`` holds the state parameter:

    ==============  =======================
    kind            value
    ==============  =======================
    open / short    --
    potentiometer   total resistance (ohm,
                    wiper included)
    cap_stage       stage index 1..3
    ind_stage       stage index 1..3
    ==============  =======================
    """

    kind: str
    value: float | int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _STATE_KINDS:
            raise ValueError(f"unknown load-state kind {self.kind!r}")
        if self.kind in ("cap_stage", "ind_stage") and self.value not in (1, 2, 3):
            raise ValueError(f"stage index must be 1..3, got {self.value!r}")
        if self.kind == "potentiometer" and (
            self.value is None or float(self.value.real) < 0
        ):
            raise ValueError(f"potentiometer resistance must be >= 0, got {self.value!r}")

    @classmethod
    def open_circuit(cls) -> "LoadState":
        return cls("open")

    @classmethod
    def short_circuit(cls) -> "LoadState":
        return cls("short")

    @classmethod
    def potentiometer(cls, resistance_ohm: float) -> "LoadState":
        return cls("potentiometer", float(resistance_ohm))

    @classmethod
    def capacitive(cls, index: int) -> "LoadState":
        return cls("cap_stage", index)

    @classmethod
    def inductive(cls, index: int) -> "LoadState":
        return cls("ind_stage", index)

    @property
    def is_reactive(self) -> bool:
        return self.kind in ("cap_stage", "ind_stage")

    @property
    def label(self) -> str:
        """Short human-readable name, e.g. ``open``, ``R1000``, ``C0.6``."""
        if self.kind == "open":
            return "open"
        if self.kind == "short":
            return "short"
        if self.kind == "potentiometer":
            return f"R{self.value:g}"
        if self.kind == "cap_stage":
            return f"C{0.3 * self.value:.1f}"
        return f"L{0.3 * self.value:.1f}"


def _default_cap_gammas() -> tuple[complex, ...]:
    return (-0.3j, -0.6j, -0.9j)


def _default_ind_gammas() -> tuple[complex, ...]:
    return (0.3j, 0.6j, 0.9j)


@dataclass(frozen=True)
class HardwareCatalog:
    """Parameters of one reflector channel's load network.

    The high matching impedance (1 kohm by default) keeps the programmable
    potentiometer's wiper resistance small relative to ``z0`` so the real-axis
    reflection coefficient can swing well below zero; matching at 50 ohm with
    a 50 ohm wiper pins the coefficient at or above zero and antiphase
    reflection becomes unreachable.

    :param z0: matching impedance in ohm
    :param wiper_resistance: potentiometer wiper resistance in ohm (always in
        series with the programmed value; the grid of realizable resistances
        therefore starts at the wiper value)
    :param max_resistance: top of the realizable total-resistance range, ohm
    :param potentiometer_steps: number of taps on the linear resistance grid
    :param cap_stage_gammas: nominal coefficients of the capacitive stages
    :param ind_stage_gammas: nominal coefficients of the inductive stages
    :param gamma_max: passivity bound used by the synthesis stage
    """

    z0: float = 1000.0
    wiper_resistance: float = 50.0
    max_resistance: float = 50000.0
    potentiometer_steps: int = 256
    cap_stage_gammas: tuple[complex, ...] = field(default_factory=_default_cap_gammas)
    ind_stage_gammas: tuple[complex, ...] = field(default_factory=_default_ind_gammas)
    gamma_max: float = 0.9

    def __post_init__(self) -> None:
        if self.z0 <= 0:
            raise ValueError(f"z0 must be positive, got {self.z0}")
        if self.wiper_resistance < 0:
            raise ValueError("wiper resistance must be >= 0")
        if self.max_resistance <= self.wiper_resistance:
            raise ValueError("max_resistance must exceed wiper_resistance")
        if self.potentiometer_steps < 2:
            raise ValueError("potentiometer grid needs at least 2 steps")
        if not 0 < self.gamma_max <= 1:
            raise ValueError(f"gamma_max must be in (0, 1], got {self.gamma_max}")
        object.__setattr__(self, "cap_stage_gammas", tuple(map(complex, self.cap_stage_gammas)))
        object.__setattr__(self, "ind_stage_gammas", tuple(map(complex, self.ind_stage_gammas)))
        for g in self.cap_stage_gammas + self.ind_stage_gammas:
            if abs(g) > 1 + 1e-12:
                raise ValueError(f"catalog gamma {g} exceeds unit magnitude")

    def to_json(self) -> dict:
        return {
            "z0": self.z0,
            "wiper_resistance": self.wiper_resistance,
            "max_resistance": self.max_resistance,
            "potentiometer_steps": self.potentiometer_steps,
            "cap_stage_gammas": [{"re": g.real, "im": g.imag} for g in self.cap_stage_gammas],
            "ind_stage_gammas": [{"re": g.real, "im": g.imag} for g in self.ind_stage_gammas],
            "gamma_max": self.gamma_max,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "HardwareCatalog":
        kwargs = dict(doc)
        for key in ("cap_stage_gammas", "ind_stage_gammas"):
            if key in kwargs:
                kwargs[key] = tuple(
                    complex(g["re"], g["im"]) for g in kwargs[key]
                )
        return cls(**kwargs)


def reflection_coefficient(z_load: complex, z0: float) -> complex:
    """Reflection coefficient (Z_L - Z_0)/(Z_L + Z_0) at a load discontinuity.

    :param z_load: load impedance in ohm; ``inf`` is accepted as an open
        circuit and returns exactly 1
    :param z0: real matching impedance in ohm (> 0)
    :raises ValueError: if ``z0 <= 0`` or the load sits exactly at -z0
        (unreachable for passive loads, but guarded)
    """
    if z0 <= 0:
        raise ValueError(f"z0 must be positive, got {z0}")
    zl = complex(z_load)
    if cmath.isinf(zl):
        return complex(1.0)
    den = zl + z0
    if den == 0:
        raise ValueError(f"singular load impedance {z_load} = -z0")
    return (zl - z0) / den


def _potentiometer_resistances(catalog: HardwareCatalog) -> list[float]:
    """Linear tap grid over the realizable total-resistance range.

    The exact matched tap R = z0 is included whenever it lies inside the
    range so the matched load (gamma = 0) is always representable.
    """
    n = catalog.potentiometer_steps
    lo, hi = catalog.wiper_resistance, catalog.max_resistance
    step = (hi - lo) / (n - 1)
    grid = [lo + i * step for i in range(n)]
    if lo <= catalog.z0 <= hi and catalog.z0 not in grid:
        grid.append(catalog.z0)
    return sorted(grid)


def catalog_gammas(catalog: HardwareCatalog) -> list[tuple[LoadState, complex]]:
    """Enumerate every realizable (load state, reflection coefficient) pair.

    Comprises the open and short extremes, the nominal reactive stages, and
    the potentiometer tap grid.
    """
    entries: list[tuple[LoadState, complex]] = [
        (LoadState.open_circuit(), complex(1.0)),
        (LoadState.short_circuit(), complex(-1.0)),
    ]
    for i, g in enumerate(catalog.cap_stage_gammas, start=1):
        entries.append((LoadState.capacitive(i), g))
    for i, g in enumerate(catalog.ind_stage_gammas, start=1):
        entries.append((LoadState.inductive(i), g))
    for r in _potentiometer_resistances(catalog):
        entries.append(
            (LoadState.potentiometer(r), reflection_coefficient(complex(r), catalog.z0))
        )
    return entries


def quantize_gamma(target: complex, catalog: HardwareCatalog) -> tuple[LoadState, complex]:
    """Nearest realizable load state to a target reflection coefficient.

    Any complex target is accepted; over-unity requests clip onto the catalog
    boundary by design (passive hardware cannot amplify). Distance ties are
    broken toward the lower-magnitude coefficient, then toward resistive
    states over reactive ones.
    """
    target = complex(target)
    best = None
    for idx, (state, gamma) in enumerate(catalog_gammas(catalog)):
        key = (abs(gamma - target), abs(gamma), state.is_reactive, idx)
        if best is None or key < best[0]:
            best = (key, state, gamma)
    return best[1], best[2]
