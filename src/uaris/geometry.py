"""Reflector array geometry, incident-phase computation, and wavefront pairing.

Elements are isotropic point scatterers on a plane. Pairing groups elements
whose projections onto the intended reflection direction coincide (within a
tolerance), i.e. elements sitting on a common reflected wavefront; such
elements can act jointly as one synthesized reflector because their position
difference adds no phase along the reflected direction.

Sign convention used throughout the package: a wave travels along its
propagation direction ``d``, so an element farther along ``d`` receives the
wave later and its incident phase is ``-k * (p . d)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import unit_vector, wrap_angle, PlaneWave

__all__ = [
    "ReflectorElement",
    "ArrayGeometry",
    "Pairing",
    "incident_phases",
    "pair_reflectors",
]

_COPLANARITY_TOL_M = 1e-9


@dataclass(frozen=True)
class ReflectorElement:
    """One reflector: an integer id and a position in meters."""

    id: int
    position: tuple[float, float, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "position", tuple(float(x) for x in self.position))


class ArrayGeometry:
    """A planar array of reflector elements.

    Built once from the elements: ``ids`` (tuple, element order),
    ``positions`` (read-only (N, 3) float array, row i belongs to ``ids[i]``)
    and ``index`` (``{id: row}``). Every consumer looks elements up through
    ``index`` rather than scanning ``elements``.

    :param elements: reflector elements with unique ids
    :param normal: broadside direction of the array plane (normalized)
    :raises ValueError: on duplicate ids or elements off the common plane by
        more than 1e-9 m
    """

    def __init__(self, elements, normal=(0.0, 0.0, 1.0)):
        self.elements = tuple(elements)
        if not self.elements:
            raise ValueError("array needs at least one element")
        self.ids = tuple(e.id for e in self.elements)
        self.index = {eid: row for row, eid in enumerate(self.ids)}
        if len(self.index) != len(self.ids):
            raise ValueError("element ids must be unique")
        self.positions = np.array([e.position for e in self.elements], dtype=float)
        self.positions.flags.writeable = False
        n = unit_vector(normal)
        self.normal = (n[0], n[1], n[2])
        offsets = (self.positions - self.positions[0]) @ n
        if np.max(np.abs(offsets)) > _COPLANARITY_TOL_M:
            raise ValueError("elements are not coplanar with the given normal")

    @classmethod
    def grid(cls, rows: int, cols: int, spacing_m: float, normal=(0.0, 0.0, 1.0)):
        """Rectangular grid in the z=0 plane, row-major ids.

        Element ``id = r*cols + c`` sits at ``(c*spacing, r*spacing, 0)``:
        columns advance along x, rows along y.
        """
        if rows < 1 or cols < 1 or spacing_m <= 0:
            raise ValueError("grid needs rows, cols >= 1 and positive spacing")
        elements = [
            ReflectorElement(r * cols + c, (c * spacing_m, r * spacing_m, 0.0))
            for r in range(rows)
            for c in range(cols)
        ]
        return cls(elements, normal)

    @classmethod
    def grid_wavelengths(
        cls, rows: int, cols: int, spacing_wavelengths: float, wavelength_m: float
    ):
        """Grid with spacing given in wavelengths of the operating tone."""
        return cls.grid(rows, cols, spacing_wavelengths * wavelength_m)

    def position_of(self, element_id: int) -> np.ndarray:
        try:
            return self.positions[self.index[element_id]]
        except KeyError:
            raise KeyError(f"no element with id {element_id}") from None

    def translated(self, offset) -> "ArrayGeometry":
        """Rigidly translated copy (ids preserved)."""
        off = np.asarray(offset, dtype=float)
        return ArrayGeometry(
            [ReflectorElement(i, tuple(p + off)) for i, p in zip(self.ids, self.positions)],
            self.normal,
        )

    def to_json(self) -> dict:
        return {
            "positions": self.positions.tolist(),
            "ids": list(self.ids),
            "normal": list(self.normal),
        }

    @classmethod
    def from_json(cls, doc: dict, wavelength_m: float | None = None):
        """Load from a parsed JSON object: either explicit ``positions``
        (meters, with optional ``ids`` of the same length) or a
        ``{rows, cols, spacing_wavelengths}`` grid spec (needs ``wavelength_m``).
        """
        if "positions" in doc:
            ids = doc.get("ids", range(len(doc["positions"])))
            elements = [
                ReflectorElement(i, tuple(p))
                for i, p in zip(ids, doc["positions"], strict=True)
            ]
            return cls(elements, tuple(doc.get("normal", (0.0, 0.0, 1.0))))
        if "rows" in doc:
            if wavelength_m is None:
                raise ValueError("grid spec in wavelengths needs wavelength_m")
            return cls.grid_wavelengths(
                doc["rows"], doc["cols"], doc["spacing_wavelengths"], wavelength_m
            )
        raise ValueError("geometry JSON needs either 'positions' or 'rows'/'cols'")


@dataclass(frozen=True)
class Pairing:
    """Result of wavefront pairing: disjoint id pairs plus leftovers."""

    pairs: tuple[tuple[int, int], ...]
    unpaired: tuple[int, ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for a, b in self.pairs:
            for x in (a, b):
                if x in seen:
                    raise ValueError(f"element {x} appears twice in pairing")
                seen.add(x)
        for x in self.unpaired:
            if x in seen:
                raise ValueError(f"element {x} appears twice in pairing")
            seen.add(x)


def incident_phases(geometry: ArrayGeometry, wave: PlaneWave) -> dict[int, float]:
    """Phase of the incident tone at each element, relative to the origin.

    ``phi_i = -k * (p_i . d)`` with ``d`` the propagation direction; the
    result is wrapped to (-pi, pi].
    """
    k = wave.wavenumber
    proj = geometry.positions @ wave.direction
    return {eid: wrap_angle(-k * float(pr)) for eid, pr in zip(geometry.ids, proj)}


def pair_reflectors(
    geometry: ArrayGeometry, reflect_dir, tolerance_m: float
) -> Pairing:
    """Group elements lying on common reflected wavefronts and pair them.

    Elements are sorted by their scalar projection onto ``reflect_dir``; a
    group collects consecutive elements whose projections stay within
    ``tolerance_m`` of the group's first member (chains longer than the
    tolerance are split deterministically at the first gap). Within each
    group, elements pair greedily in ascending id order; an odd leftover per
    group lands in ``unpaired``.
    """
    if tolerance_m < 0:
        raise ValueError("tolerance must be >= 0")
    rdir = unit_vector(reflect_dir)
    proj = geometry.positions @ rdir
    ids = geometry.ids
    order = sorted(range(len(ids)), key=lambda i: (proj[i], ids[i]))

    groups: list[list[int]] = []
    for i in order:
        if groups and proj[i] - proj[groups[-1][0]] <= tolerance_m:
            groups[-1].append(i)
        else:
            groups.append([i])

    pairs: list[tuple[int, int]] = []
    unpaired: list[int] = []
    for g in groups:
        members = sorted(ids[i] for i in g)
        for a, b in zip(members[0::2], members[1::2]):
            pairs.append((a, b))
        if len(members) % 2:
            unpaired.append(members[-1])
    return Pairing(tuple(pairs), tuple(unpaired))
