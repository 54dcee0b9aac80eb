"""Array geometry, incident phases, and wavefront-pairing tests."""

import math

import numpy as np
import pytest

from uaris.core import PlaneWave, circular_distance
from uaris.geometry import (
    ArrayGeometry,
    Pairing,
    ReflectorElement,
    incident_phases,
    pair_reflectors,
)

LAM = 1500.0 / 28e3


def elements(*positions):
    return [ReflectorElement(i, p) for i, p in enumerate(positions)]


class TestArrayGeometry:
    def test_grid_layout(self):
        geo = ArrayGeometry.grid(rows=2, cols=3, spacing_m=0.5)
        assert geo.ids == (0, 1, 2, 3, 4, 5)
        assert geo.position_of(0) == pytest.approx([0, 0, 0])
        assert geo.position_of(2) == pytest.approx([1.0, 0, 0])  # col 2, row 0
        assert geo.position_of(3) == pytest.approx([0, 0.5, 0])  # col 0, row 1

    def test_grid_wavelengths(self):
        geo = ArrayGeometry.grid_wavelengths(1, 2, 2.0, LAM)
        assert geo.position_of(1)[0] == pytest.approx(2 * LAM)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            ArrayGeometry(
                [ReflectorElement(1, (0, 0, 0)), ReflectorElement(1, (1, 0, 0))]
            )

    def test_coplanarity_enforced(self):
        with pytest.raises(ValueError):
            ArrayGeometry(elements((0, 0, 0), (1, 0, 1e-6)), normal=(0, 0, 1))

    def test_off_plane_normal_is_fine_if_consistent(self):
        # Elements in the x=const plane with normal +x.
        geo = ArrayGeometry(elements((2, 0, 0), (2, 1, 3)), normal=(1, 0, 0))
        assert geo.normal == (1, 0, 0)

    def test_index_maps_unsorted_ids_to_rows(self):
        geo = ArrayGeometry(
            [
                ReflectorElement(5, (0.0, 0.0, 0.0)),
                ReflectorElement(2, (0.3, 0.0, 0.0)),
                ReflectorElement(9, (0.0, 0.4, 0.0)),
            ]
        )
        assert geo.ids == (5, 2, 9)
        assert geo.index == {5: 0, 2: 1, 9: 2}
        for i in (5, 2, 9):
            assert np.array_equal(geo.positions[geo.index[i]], geo.position_of(i))

    def test_positions_are_read_only(self):
        geo = ArrayGeometry.grid(1, 2, 0.5)
        with pytest.raises(ValueError):
            geo.positions[0, 0] = 1.0

    def test_lattice_of_a_grid(self):
        geo = ArrayGeometry.grid(3, 4, 0.5)
        lattice = geo.lattice
        assert [len(v) for v in lattice.axes] == [4, 3, 1]
        assert lattice.cells.tolist()[5] == [1, 1, 0]  # id 5 = row 1, col 1
        assert geo.lattice is lattice  # derived once

    def test_lattice_none_for_non_product_layout(self):
        # An L shape: three x values and two y values, but only 4 of 6 cells.
        geo = ArrayGeometry(elements((0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0)))
        assert geo.lattice is None

    def test_lattice_none_for_shared_cell(self):
        # Four elements on a 2x2 grid's worth of coordinates, two in one cell.
        geo = ArrayGeometry(elements((0, 0, 0), (1, 1, 0), (0, 0, 0), (1, 1, 0)))
        assert geo.lattice is None

    def test_unknown_id(self):
        geo = ArrayGeometry.grid(1, 2, 0.5)
        with pytest.raises(KeyError):
            geo.position_of(99)

    def test_json_round_trip_positions(self):
        geo = ArrayGeometry(elements((0, 0, 0), (0.3, 0.1, 0)), normal=(0, 0, 1))
        doc = geo.to_json()
        geo2 = ArrayGeometry.from_json(doc)
        assert np.allclose(geo2.positions, geo.positions)
        assert geo2.ids == geo.ids

    @pytest.mark.parametrize("n_positions, ids", [(4, [0, 1]), (2, [0, 1, 9])])
    def test_json_ids_must_match_positions(self, n_positions, ids):
        positions = [[0.1 * i, 0, 0] for i in range(n_positions)]
        with pytest.raises(ValueError):
            ArrayGeometry.from_json({"positions": positions, "ids": ids})

    def test_json_grid_spec(self):
        geo = ArrayGeometry.from_json(
            {"rows": 2, "cols": 2, "spacing_wavelengths": 2.0}, wavelength_m=LAM
        )
        assert len(geo.elements) == 4
        assert geo.position_of(1)[0] == pytest.approx(2 * LAM)

    def test_json_grid_spec_needs_wavelength(self):
        with pytest.raises(ValueError):
            ArrayGeometry.from_json({"rows": 2, "cols": 2, "spacing_wavelengths": 2.0})


class TestIncidentPhases:
    def test_origin_element_has_zero_phase(self):
        geo = ArrayGeometry(elements((0, 0, 0), (0.1, 0, 0)))
        wave = PlaneWave(28e3, propagation_dir=(1, 0, 0))
        assert incident_phases(geo, wave)[0] == 0.0

    def test_half_wavelength_along_propagation(self):
        geo = ArrayGeometry(elements((0, 0, 0), (LAM / 2, 0, 0)))
        wave = PlaneWave(28e3, propagation_dir=(1, 0, 0))
        ph = incident_phases(geo, wave)
        # -pi and +pi coincide on the circle; normalization picks +pi.
        assert circular_distance(ph[1], math.pi) < 1e-9

    def test_normal_incidence_equalizes_phases(self):
        geo = ArrayGeometry.grid(3, 3, 0.4)
        wave = PlaneWave(28e3, propagation_dir=(0, 0, -1))
        phases = incident_phases(geo, wave)
        assert all(abs(p) < 1e-12 for p in phases.values())

    def test_linear_in_position_at_small_wavenumber(self):
        # Long wavelength keeps phases far from the wrap point.
        wave = PlaneWave(10.0, propagation_dir=(0, 1, 0), sound_speed_mps=1500.0)
        geo1 = ArrayGeometry(elements((0, 0.5, 0), (0, 1.0, 0)))
        geo2 = ArrayGeometry(elements((0, 1.0, 0), (0, 2.0, 0)))
        p1 = incident_phases(geo1, wave)
        p2 = incident_phases(geo2, wave)
        assert p2[0] == pytest.approx(2 * p1[0], rel=1e-12)
        assert p2[1] == pytest.approx(2 * p1[1], rel=1e-12)


class TestPairing:
    def test_equal_projections_pair(self):
        geo = ArrayGeometry(elements((0, 0, 0), (0.7, 0, 0)))
        pairing = pair_reflectors(geo, (0, 0, 1), tolerance_m=1e-6)
        assert pairing.pairs == ((0, 1),)
        assert pairing.unpaired == ()

    def test_distinct_projections_do_not_pair(self):
        d = 0.7
        geo = ArrayGeometry(elements((0, 0, 0), (d, 0, 0)))
        rdir = (1 / math.sqrt(2), 0, 1 / math.sqrt(2))
        pairing = pair_reflectors(geo, rdir, tolerance_m=d / 100)
        assert pairing.pairs == ()
        assert set(pairing.unpaired) == {0, 1}

    def test_lowest_ids_pair_first_in_shared_group(self):
        # Three elements on one reflected wavefront: the two lowest ids pair.
        geo = ArrayGeometry(elements((0, 0, 0), (0.5, 0, 0), (0, 0.5, 0)))
        pairing = pair_reflectors(geo, (0, 0, 1), tolerance_m=1e-9)
        assert pairing.pairs == ((0, 1),)
        assert pairing.unpaired == (2,)

    def test_translation_invariance(self):
        rng = np.random.default_rng(42)
        pos = [(x, y, 0.0) for x, y in rng.uniform(-1, 1, size=(8, 2))]
        geo = ArrayGeometry(elements(*pos))
        rdir = (0.3, -0.4, math.sqrt(1 - 0.25))
        before = pair_reflectors(geo, rdir, tolerance_m=0.05)
        after = pair_reflectors(geo.translated((4.2, -1.7, 0.0)), rdir, 0.05)
        assert before == after

    def test_even_grid_fully_paired_along_axis(self):
        geo = ArrayGeometry.grid(rows=4, cols=2, spacing_m=0.5)
        pairing = pair_reflectors(geo, (1, 0, 0), tolerance_m=1e-9)
        assert pairing.unpaired == ()
        assert len(pairing.pairs) == 4

    def test_empty_pairing_is_valid(self):
        geo = ArrayGeometry(elements((0, 0, 0)))
        pairing = pair_reflectors(geo, (0, 0, 1), tolerance_m=1e-9)
        assert pairing.pairs == ()
        assert pairing.unpaired == (0,)

    def test_negative_tolerance_rejected(self):
        geo = ArrayGeometry.grid(1, 2, 0.5)
        with pytest.raises(ValueError):
            pair_reflectors(geo, (0, 0, 1), tolerance_m=-1.0)

    def test_pairing_disjointness_validated(self):
        with pytest.raises(ValueError):
            Pairing(((0, 1),), (1,))
        with pytest.raises(ValueError):
            Pairing(((0, 0),), ())
