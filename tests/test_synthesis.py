"""Pair-solve and steering-configuration tests."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from uaris.core import PlaneWave, circular_distance, wrap_angle
from uaris.geometry import ArrayGeometry, ReflectorElement, incident_phases, pair_reflectors
from uaris.hardware import HardwareCatalog
from uaris.synthesis import (
    PAIRING_TOLERANCE_WAVELENGTHS,
    GammaAssignment,
    NoPairsError,
    SingularPairingError,
    configure_coded,
    configure_synthetic,
    quantize_assignment,
    solve_pair,
)

LAM = 1500.0 / 28e3
angle = st.floats(min_value=-math.pi, max_value=math.pi)


def pair_phasor(a1, a2, phi1, phi2):
    return a1 * cmath.exp(1j * phi1) + a2 * cmath.exp(1j * (phi2 + math.pi / 2))


class TestSolvePair:
    def test_pure_in_phase_target(self):
        sol = solve_pair(0.0, 0.0, 0.0, 1.0)
        assert sol.a1 == pytest.approx(1.0)
        assert sol.a2 == pytest.approx(0.0, abs=1e-15)

    def test_equal_phase_quadrature_split(self):
        sol = solve_pair(0.0, 0.0, math.pi / 4, 1.0)
        assert sol.a1 == pytest.approx(0.7071067811865476)
        assert sol.a2 == pytest.approx(0.7071067811865476)

    def test_offset_incident_phases(self):
        sol = solve_pair(math.pi / 6, 0.0, math.pi / 3, 1.0)
        assert sol.a1 == pytest.approx(0.5773502691896258, rel=1e-9)
        assert sol.a2 == pytest.approx(0.5773502691896258, rel=1e-9)

    def test_quadrature_incident_phases_are_singular(self):
        with pytest.raises(SingularPairingError):
            solve_pair(0.0, math.pi / 2, 1.0, 1.0)

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            solve_pair(0.0, 0.0, 0.0, -1.0)

    @given(phi1=angle, phi2=angle, phi_r=angle, amp=st.floats(min_value=0, max_value=10))
    def test_substitution_identity(self, phi1, phi2, phi_r, amp):
        assume(abs(math.cos(phi1 - phi2)) >= 1e-3)
        sol = solve_pair(phi1, phi2, phi_r, amp)
        achieved = pair_phasor(sol.a1, sol.a2, phi1, phi2)
        target = amp * cmath.exp(1j * phi_r)
        assert abs(achieved - target) < 1e-9 * max(1.0, amp, abs(sol.a1), abs(sol.a2))


def grid_2x2():
    """Two wavefront pairs along x when steering in the y-z plane."""
    return ArrayGeometry.grid(rows=2, cols=2, spacing_m=2 * LAM)


def normal_wave():
    return PlaneWave(28e3, propagation_dir=(0, 0, -1))


class TestConfigureSynthetic:
    def test_specular_normal_incidence(self):
        assignment = configure_synthetic(grid_2x2(), normal_wave(), (0, 0, 1))
        gammas = assignment.gammas
        assert set(gammas) == {0, 1, 2, 3}
        # All pair phases are zero: the real members carry the full
        # amplitude, the quadrature members idle at zero.
        real_members = [gammas[0], gammas[2]]
        quad_members = [gammas[1], gammas[3]]
        for g in real_members:
            assert g.imag == pytest.approx(0.0, abs=1e-12)
            assert g.real == pytest.approx(0.9)
        for g in quad_members:
            assert abs(g) == pytest.approx(0.0, abs=1e-12)

    def test_all_coefficients_passive(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            az, el = rng.uniform(0, 360), rng.uniform(15, 90)
            th = rng.uniform(180, 360)
            wave = PlaneWave(
                28e3,
                propagation_dir=tuple(
                    -np.array(
                        [
                            math.cos(math.radians(el)) * math.cos(math.radians(az)),
                            math.cos(math.radians(el)) * math.sin(math.radians(az)),
                            math.sin(math.radians(el)),
                        ]
                    )
                ),
            )
            target = (0, math.cos(math.radians(th)), math.sin(math.radians(th)))
            assignment = configure_synthetic(grid_2x2(), wave, target)
            assert all(abs(g) <= 0.9 * math.sqrt(2) + 1e-9 for g in assignment.gammas.values())
            assert all(
                max(abs(g.real), abs(g.imag)) <= 0.9 + 1e-9
                for g in assignment.gammas.values()
            )

    def test_no_pairs_raises(self):
        # A single row along y has distinct projections for an oblique
        # in-plane target: nothing shares a wavefront.
        geo = ArrayGeometry.grid(rows=3, cols=1, spacing_m=LAM)
        target = (0, math.cos(math.radians(225)), math.sin(math.radians(225)))
        with pytest.raises(NoPairsError):
            configure_synthetic(geo, normal_wave(), target)

    def test_singular_pairing_carries_ids(self):
        # Quarter-wave offset along the propagation direction puts the
        # members' incident phases in quadrature.
        geo = ArrayGeometry(
            [ReflectorElement(0, (0, 0, 0)), ReflectorElement(1, (LAM / 4, 0, 0))]
        )
        wave = PlaneWave(28e3, propagation_dir=(1, 0, 0))
        with pytest.raises(SingularPairingError) as err:
            configure_synthetic(geo, wave, (0, 0, 1))
        assert err.value.pair_ids == (0, 1)

    def test_unpaired_fallback_is_real_and_flagged(self):
        geo = ArrayGeometry(
            [
                ReflectorElement(0, (0, 0, 0)),
                ReflectorElement(1, (0.4, 0, 0)),
                ReflectorElement(2, (0, 0.4, 0)),
            ]
        )
        assignment = configure_synthetic(geo, normal_wave(), (0, 0, 1))
        assert assignment.unpaired == (2,)
        g = assignment.gammas[2]
        assert g.imag == 0.0
        assert abs(g) <= 0.9 + 1e-12

    def test_catalog_quantization_populates_states(self):
        cat = HardwareCatalog()
        assignment = configure_synthetic(grid_2x2(), normal_wave(), (0, 0, 1), catalog=cat)
        assert assignment.quantized_states is not None
        assert set(assignment.quantized_states) == {0, 1, 2, 3}
        assert assignment.quantized_gammas is not None
        for g in assignment.quantized_gammas.values():
            assert abs(g) <= 1.0 + 1e-12

    def test_passivity_scaling_is_global_and_keeps_pair_phases(self):
        # Oblique incidence so the pair members see different incident phases.
        geo = ArrayGeometry.grid(rows=4, cols=2, spacing_m=2 * LAM)
        wave = PlaneWave(28e3, propagation_dir=(0.3, 0.2, -0.9))
        t_dir = np.array([0.0, math.cos(math.radians(225)), math.sin(math.radians(225))])
        assignment = configure_synthetic(geo, wave, t_dir)
        pairing = pair_reflectors(geo, t_dir, PAIRING_TOLERANCE_WAVELENGTHS * LAM)
        assert len(pairing.pairs) == 4 and not pairing.unpaired
        gammas = assignment.gammas
        components = [abs(gammas[a].real) for a, _ in pairing.pairs]
        components += [abs(gammas[b].imag) for _, b in pairing.pairs]
        assert max(components) == pytest.approx(HardwareCatalog().gamma_max, abs=1e-12)

        phases = incident_phases(geo, wave)
        k = wave.wavenumber
        magnitudes = []
        for a, b in pairing.pairs:
            phasor = gammas[a] * cmath.exp(1j * phases[a]) + gammas[b] * cmath.exp(1j * phases[b])
            c = 0.5 * float((geo.position_of(a) + geo.position_of(b)) @ t_dir)
            assert circular_distance(cmath.phase(phasor), wrap_angle(-k * c)) < 1e-9
            magnitudes.append(abs(phasor))
        assert magnitudes[0] < 1.0  # the uniform unit target was scaled down
        assert magnitudes == pytest.approx([magnitudes[0]] * 4, abs=1e-12)

    def test_assignment_rejects_over_unity(self):
        with pytest.raises(ValueError):
            GammaAssignment({0: 1.5 + 0j}, "explicit")


def ideal_phase(pos, wave, target):
    k = wave.wavenumber
    return wrap_angle(-k * float(np.dot(pos, np.asarray(target) - wave.direction)))


class TestConfigureCoded:
    def test_specular_normal_incidence_all_open(self):
        assignment = configure_coded(grid_2x2(), normal_wave(), (0, 0, 1), "1bit")
        assert all(g == 1.0 for g in assignment.gammas.values())

    def test_one_bit_matches_sign_rule(self):
        rng = np.random.default_rng(3)
        geo = ArrayGeometry.grid(rows=3, cols=4, spacing_m=1.3 * LAM)
        for _ in range(25):
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            t = rng.normal(size=3)
            t /= np.linalg.norm(t)
            wave = PlaneWave(28e3, propagation_dir=tuple(d))
            assignment = configure_coded(geo, wave, t, "1bit")
            for e in geo.elements:
                theta = ideal_phase(np.asarray(e.position), wave, t)
                if abs(abs(theta) - math.pi / 2) < 1e-9:
                    continue  # boundary between the two states
                expected = 1.0 if math.cos(theta) > 0 else -1.0
                assert assignment.gammas[e.id] == expected

    def test_two_bit_picks_nearest_phase(self):
        rng = np.random.default_rng(4)
        geo = ArrayGeometry.grid(rows=2, cols=5, spacing_m=0.8 * LAM)
        candidates = [(0.0, 1 + 0j), (math.pi / 2, 0.9j), (math.pi, -1 + 0j), (-math.pi / 2, -0.9j)]
        for _ in range(10):
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            t = rng.normal(size=3)
            t /= np.linalg.norm(t)
            wave = PlaneWave(28e3, propagation_dir=tuple(d))
            assignment = configure_coded(geo, wave, t, "2bit")
            for e in geo.elements:
                theta = ideal_phase(np.asarray(e.position), wave, t)
                dists = [circular_distance(theta, p) for p, _ in candidates]
                best = min(dists)
                chosen = assignment.gammas[e.id]
                chosen_dist = min(
                    circular_distance(theta, p) for p, g in candidates if g == chosen
                )
                assert chosen_dist <= best + 1e-12
                assert chosen in {g for _, g in candidates}

    def test_one_bit_tie_prefers_open(self):
        # Power-of-two wavelength makes the ideal phase exactly +pi/2 in
        # floating point: equidistant from +1 and -1, the tie picks +1.
        geo = ArrayGeometry([ReflectorElement(0, (256.0, 0, 0))])
        wave = PlaneWave(1.0, propagation_dir=(1, 0, 0), sound_speed_mps=1024.0)
        assignment = configure_coded(geo, wave, (0, 0, 1), "1bit")
        assert assignment.gammas[0] == 1.0

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            configure_coded(grid_2x2(), normal_wave(), (0, 0, 1), "3bit")

    def test_quantize_assignment_standalone(self):
        assignment = configure_coded(grid_2x2(), normal_wave(), (0, 0, 1), "2bit")
        quantized = quantize_assignment(assignment, HardwareCatalog())
        assert quantized.quantized_states is not None
        # Coded states are already catalog states: quantization is lossless.
        assert quantized.quantized_gammas == quantized.gammas
