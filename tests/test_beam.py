"""Array-factor sweeps, beam metrics, and scheme comparison tests."""

import csv
import io
import math

import numpy as np
import pytest

from uaris.beam import (
    BeamPattern,
    NoLobesError,
    array_factor,
    beam_metrics,
    compare_schemes,
    sweep_directions,
)
from uaris.core import PlaneWave
from uaris.geometry import ArrayGeometry, ReflectorElement
from uaris.synthesis import GammaAssignment

LAM = 1500.0 / 28e3
F0 = 28e3


def normal_wave():
    return PlaneWave(F0, propagation_dir=(0, 0, -1))


def explicit(gammas):
    return GammaAssignment(dict(gammas), "explicit")


def line_array_y(n, spacing):
    return ArrayGeometry(
        [ReflectorElement(i, (0.0, i * spacing, 0.0)) for i in range(n)]
    )


class TestArrayFactor:
    def test_single_element_is_isotropic(self):
        geo = ArrayGeometry([ReflectorElement(0, (0, 0, 0))])
        pattern = array_factor(geo, explicit({0: 0.7 + 0j}), normal_wave(), "yz")
        assert np.allclose(pattern.magnitudes, 0.7)

    def test_two_element_half_wave_closed_form(self):
        # Independent closed form: |1 + exp(j*pi*cos(th))| = 2|cos(pi*cos(th)/2)|
        geo = line_array_y(2, LAM / 2)
        angles = np.arange(0.0, 360.0, 1.0)
        pattern = array_factor(
            geo, explicit({0: 1 + 0j, 1: 1 + 0j}), normal_wave(), "yz", angles
        )
        expected = 2 * np.abs(np.cos(np.pi * np.cos(np.deg2rad(angles)) / 2))
        assert np.allclose(pattern.magnitudes, expected, atol=1e-9)

    def test_uniform_gammas_peak_at_specular(self):
        geo = ArrayGeometry.grid(3, 3, LAM / 2)
        assignment = explicit({i: 1 + 0j for i in range(9)})
        angles = np.arange(0.0, 180.5, 0.5)
        pattern = array_factor(geo, assignment, normal_wave(), "yz", angles)
        peak = pattern.angles_deg[np.argmax(pattern.magnitudes)]
        assert peak == pytest.approx(90.0, abs=0.5)

    def test_triangle_inequality_bound(self):
        rng = np.random.default_rng(11)
        geo = ArrayGeometry.grid(2, 4, 1.7 * LAM)
        gam = {
            i: complex(*rng.uniform(-0.6, 0.6, 2)) for i in range(8)
        }
        pattern = array_factor(geo, explicit(gam), normal_wave(), "yz")
        assert pattern.magnitudes.max() <= sum(abs(g) for g in gam.values()) + 1e-9

    def test_translation_leaves_magnitudes_unchanged(self):
        rng = np.random.default_rng(5)
        geo = ArrayGeometry.grid(2, 3, 0.8 * LAM)
        gam = {i: complex(*rng.uniform(-0.7, 0.7, 2)) for i in range(6)}
        wave = PlaneWave(F0, propagation_dir=(0.3, -0.2, -0.933))
        p1 = array_factor(geo, explicit(gam), wave, "yz")
        p2 = array_factor(geo.translated((1.23, -4.5, 0)), explicit(gam), wave, "yz")
        assert np.allclose(p1.magnitudes, p2.magnitudes, atol=1e-9)

    def test_element_order_does_not_change_the_sum(self):
        # Summation runs in ascending id order whatever order the elements
        # were given in, so a permuted array gives bitwise the same response.
        rng = np.random.default_rng(8)
        geo = ArrayGeometry.grid(3, 4, 0.7 * LAM)
        gam = {i: complex(*rng.uniform(-0.7, 0.7, 2)) for i in range(12)}
        permuted = ArrayGeometry([geo.elements[i] for i in rng.permutation(12)])
        wave = PlaneWave(F0, propagation_dir=(0.3, -0.2, -0.933))
        p1 = array_factor(geo, explicit(gam), wave, "yz")
        p2 = array_factor(permuted, explicit(gam), wave, "yz")
        assert permuted.ids != geo.ids
        assert np.array_equal(p1.response, p2.response)

    def test_conjugate_gammas_mirror_pattern_about_broadside(self):
        # For normal incidence on a z=0 planar array, conjugating every
        # coefficient reflects the pattern through the array normal:
        # |AF_conj(180 - th)| = |AF(th)|.
        rng = np.random.default_rng(6)
        geo = ArrayGeometry.grid(2, 3, 0.9 * LAM)
        gam = {i: complex(*rng.uniform(-0.7, 0.7, 2)) for i in range(6)}
        conj = {i: g.conjugate() for i, g in gam.items()}
        angles = np.arange(0.0, 361.0, 1.0)
        p = array_factor(geo, explicit(gam), normal_wave(), "yz", angles)
        pc = array_factor(geo, explicit(conj), normal_wave(), "yz", angles)
        mirrored_idx = [int((180 - a) % 360) for a in angles]
        assert np.allclose(
            pc.magnitudes[mirrored_idx], p.magnitudes, atol=1e-9
        )

    def test_assignment_mismatch_rejected(self):
        geo = ArrayGeometry.grid(1, 2, 0.5)
        with pytest.raises(ValueError):
            array_factor(geo, explicit({0: 1 + 0j}), normal_wave(), "yz")

    def test_quantized_view_requires_quantized_assignment(self):
        geo = ArrayGeometry.grid(1, 2, 0.5)
        assignment = explicit({0: 1 + 0j, 1: 1 + 0j})
        with pytest.raises(ValueError):
            array_factor(geo, assignment, normal_wave(), "yz", use_quantized=True)

    def test_unknown_plane_rejected(self):
        with pytest.raises(ValueError):
            sweep_directions("ab", np.arange(3.0))

    def test_plane_conventions(self):
        dirs = sweep_directions("xy", np.array([0.0, 90.0]))
        assert np.allclose(dirs[0], [1, 0, 0], atol=1e-12)
        assert np.allclose(dirs[1], [0, 1, 0], atol=1e-12)


class TestBeamPatternType:
    def test_needs_three_samples(self):
        with pytest.raises(ValueError):
            BeamPattern("yz", np.array([0.0, 1.0]), np.array([1 + 0j, 1 + 0j]))

    def test_angles_strictly_increasing(self):
        with pytest.raises(ValueError):
            BeamPattern(
                "yz", np.array([0.0, 1.0, 1.0]), np.array([1, 1, 1], dtype=complex)
            )

    def test_csv_round_trip(self):
        geo = line_array_y(2, LAM / 2)
        pattern = array_factor(
            geo, explicit({0: 1 + 0j, 1: 0.5j}), normal_wave(), "yz",
            np.arange(0.0, 10.0, 1.0),
        )
        text = pattern.to_csv_text()
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 10
        assert list(rows[0]) == ["angle_deg", "magnitude", "phase_rad", "normalized"]
        mags = np.array([float(r["magnitude"]) for r in rows])
        assert np.allclose(mags, pattern.magnitudes, rtol=1e-10)
        norm = np.array([float(r["normalized"]) for r in rows])
        assert norm.max() == pytest.approx(pattern.normalized.max())


class TestBeamMetrics:
    def test_main_lobe_of_single_peak(self):
        geo = line_array_y(8, LAM / 2)
        assignment = explicit({i: 1 + 0j for i in range(8)})
        angles = np.arange(10.0, 170.25, 0.25)
        pattern = array_factor(geo, assignment, normal_wave(), "yz", angles)
        metrics = beam_metrics(pattern)
        assert metrics.main_lobe_deg == pytest.approx(90.0, abs=0.25)
        assert metrics.main_lobe_mag == pytest.approx(8.0, rel=1e-9)

    def test_broadside_hpbw_reference(self):
        # Uniform 8-element, half-wave line array: half-power width 12.8 deg.
        geo = line_array_y(8, LAM / 2)
        assignment = explicit({i: 1 + 0j for i in range(8)})
        angles = np.arange(10.0, 170.05, 0.05)
        metrics = beam_metrics(
            array_factor(geo, assignment, normal_wave(), "yz", angles)
        )
        assert metrics.hpbw_deg == pytest.approx(12.8, abs=0.5)

    def test_side_lobes_sorted_and_floored(self):
        geo = line_array_y(8, LAM / 2)
        assignment = explicit({i: 1 + 0j for i in range(8)})
        angles = np.arange(10.0, 170.25, 0.25)
        metrics = beam_metrics(
            array_factor(geo, assignment, normal_wave(), "yz", angles)
        )
        mags = [m for _, m in metrics.side_lobes]
        assert mags == sorted(mags, reverse=True)
        assert all(0.05 <= m <= 1.0 for m in mags)
        # First side lobe of an 8-element uniform array sits near -12.8 dB.
        assert metrics.max_side_lobe == pytest.approx(0.23, abs=0.03)

    def test_flat_pattern_rejected(self):
        geo = ArrayGeometry([ReflectorElement(0, (0, 0, 0))])
        pattern = array_factor(geo, explicit({0: 1 + 0j}), normal_wave(), "yz")
        with pytest.raises(NoLobesError):
            beam_metrics(pattern)

    def test_grid_density_stability(self):
        geo = line_array_y(8, LAM / 2)
        assignment = explicit({i: 1 + 0j for i in range(8)})
        coarse = np.arange(10.0, 170.5, 0.5)
        fine = np.arange(10.0, 170.25, 0.25)
        m_coarse = beam_metrics(array_factor(geo, assignment, normal_wave(), "yz", coarse))
        m_fine = beam_metrics(array_factor(geo, assignment, normal_wave(), "yz", fine))
        assert abs(m_coarse.main_lobe_deg - m_fine.main_lobe_deg) <= 0.5


class TestCodedAzimuthSteering:
    def test_prototype_grid_steers_specular_azimuth_beam(self):
        # 4x6 panel standing in the x-z plane (normal +y), interrogated
        # face-on: the 1-bit specular configuration puts the azimuth-sweep
        # main beam at 90 degrees.
        from uaris.synthesis import configure_coded

        s = LAM / 2
        elements = [
            ReflectorElement(r * 6 + c, (c * s, 0.0, r * s))
            for r in range(4)
            for c in range(6)
        ]
        geo = ArrayGeometry(elements, normal=(0, 1, 0))
        wave = PlaneWave(F0, propagation_dir=(0, -1, 0))
        assignment = configure_coded(geo, wave, (0, 1, 0), "1bit")
        assert all(g == 1.0 for g in assignment.gammas.values())
        angles = np.arange(0.0, 180.5, 0.5)
        pattern = array_factor(geo, assignment, wave, "xy", angles)
        metrics = beam_metrics(pattern)
        assert metrics.main_lobe_deg == pytest.approx(90.0, abs=0.5)


class TestCompareSchemes:
    def test_identical_scheme_twice_gives_zero_deltas(self):
        geo = ArrayGeometry.grid(rows=4, cols=2, spacing_m=2 * LAM)
        target = (0, math.cos(math.radians(225)), math.sin(math.radians(225)))
        comparison = compare_schemes(
            geo,
            normal_wave(),
            target,
            ["synthetic", "synthetic"],
            plane="yz",
            angles_deg=np.arange(180.0, 250.5, 0.5),
        )
        deltas = comparison.deltas["synthetic_vs_synthetic#2"]
        assert deltas["max_side_lobe_delta"] == 0.0
        assert deltas["hpbw_delta_deg"] == 0.0

    def test_deltas_match_direct_metric_recompute(self):
        geo = ArrayGeometry.grid(rows=4, cols=2, spacing_m=2 * LAM)
        target = (0, math.cos(math.radians(225)), math.sin(math.radians(225)))
        angles = np.arange(180.0, 250.5, 0.5)
        comparison = compare_schemes(
            geo, normal_wave(), target, ["synthetic", "1bit"], plane="yz", angles_deg=angles
        )
        m_syn = beam_metrics(comparison.patterns["synthetic"])
        m_bit = beam_metrics(comparison.patterns["1bit"])
        d = comparison.deltas["synthetic_vs_1bit"]
        assert d["max_side_lobe_delta"] == pytest.approx(
            m_syn.max_side_lobe - m_bit.max_side_lobe
        )
        assert d["hpbw_delta_deg"] == pytest.approx(m_syn.hpbw_deg - m_bit.hpbw_deg)

    def test_needs_two_schemes(self):
        geo = ArrayGeometry.grid(rows=4, cols=2, spacing_m=2 * LAM)
        with pytest.raises(ValueError):
            compare_schemes(geo, normal_wave(), (0, 0, 1), ["synthetic"])
