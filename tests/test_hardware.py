"""Load-network tests: reflection coefficients, catalog enumeration, and
quantization."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from uaris.hardware import (
    HardwareCatalog,
    LoadState,
    catalog_gammas,
    quantize_gamma,
    reflection_coefficient,
)
from uaris.synthesis import GammaAssignment, quantize_assignment


class TestReflectionCoefficient:
    def test_resistive_above_match(self):
        assert reflection_coefficient(100.0, 50.0) == pytest.approx(1 / 3, abs=1e-3)

    def test_resistive_below_match(self):
        assert reflection_coefficient(25.0, 50.0) == pytest.approx(-1 / 3, abs=1e-3)

    def test_matched_load(self):
        assert reflection_coefficient(50.0, 50.0) == 0.0

    def test_series_rc_reference_stage(self):
        gamma = reflection_coefficient(23.53 - 44.12j, 50.0)
        assert abs(gamma - (-0.6j)) < 0.03

    def test_open_is_exactly_one(self):
        assert reflection_coefficient(math.inf, 50.0) == 1.0
        assert reflection_coefficient(complex(math.inf, 0), 1000.0) == 1.0

    def test_short_is_exactly_minus_one(self):
        assert reflection_coefficient(0.0, 50.0) == -1.0

    def test_singular_load_rejected(self):
        with pytest.raises(ValueError):
            reflection_coefficient(-50.0, 50.0)

    @pytest.mark.parametrize("z0", [0.0, -10.0])
    def test_bad_z0_rejected(self, z0):
        with pytest.raises(ValueError):
            reflection_coefficient(100.0, z0)

    @given(
        x=st.floats(min_value=1e-3, max_value=1e6),
        sign=st.sampled_from([-1.0, 1.0]),
        z0=st.floats(min_value=1e-2, max_value=1e6),
    )
    def test_pure_reactance_has_unit_magnitude(self, x, sign, z0):
        gamma = reflection_coefficient(complex(0.0, sign * x), z0)
        assert abs(abs(gamma) - 1.0) < 1e-12


class TestLoadState:
    def test_labels(self):
        assert LoadState.open_circuit().label == "open"
        assert LoadState.short_circuit().label == "short"
        assert LoadState.potentiometer(1000).label == "R1000"
        assert LoadState.capacitive(2).label == "C0.6"
        assert LoadState.inductive(3).label == "L0.9"

    @pytest.mark.parametrize("idx", [0, 4, -1])
    def test_stage_index_validated(self, idx):
        with pytest.raises(ValueError):
            LoadState.capacitive(idx)

    def test_negative_resistance_rejected(self):
        with pytest.raises(ValueError):
            LoadState.potentiometer(-1.0)


class TestCatalog:
    def test_reactive_extremes_present(self):
        gammas = dict(
            (state.label, g) for state, g in catalog_gammas(HardwareCatalog())
        )
        assert gammas["C0.9"] == -0.9j
        assert gammas["L0.9"] == 0.9j
        assert gammas["open"] == 1.0
        assert gammas["short"] == -1.0

    def test_potentiometer_range_spans_reference_interval(self):
        entries = catalog_gammas(HardwareCatalog())
        pot = [g.real for s, g in entries if s.kind == "potentiometer"]
        assert min(pot) <= -0.90
        assert max(pot) >= +0.95

    def test_low_impedance_match_cannot_reach_antiphase(self):
        cat = HardwareCatalog(z0=50.0, wiper_resistance=50.0, max_resistance=50e3)
        pot = [
            g.real
            for s, g in catalog_gammas(cat)
            if s.kind == "potentiometer"
        ]
        assert min(pot) == 0.0

    def test_all_magnitudes_passive(self):
        for _, g in catalog_gammas(HardwareCatalog()):
            assert abs(g) <= 1.0 + 1e-12

    def test_potentiometer_gamma_increases_with_resistance(self):
        entries = [
            (float(s.value), g.real)
            for s, g in catalog_gammas(HardwareCatalog())
            if s.kind == "potentiometer"
        ]
        entries.sort()
        gammas = [g for _, g in entries]
        assert all(b > a for a, b in zip(gammas, gammas[1:]))

    def test_json_round_trip(self):
        cat = HardwareCatalog(z0=800.0, potentiometer_steps=64)
        assert HardwareCatalog.from_json(cat.to_json()) == cat

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"z0": 0.0},
            {"z0": -5.0},
            {"max_resistance": 10.0, "wiper_resistance": 50.0},
            {"cap_stage_gammas": (-1.2j,)},
            {"gamma_max": 0.0},
            {"gamma_max": 1.5},
            {"potentiometer_steps": 1},
        ],
    )
    def test_invalid_catalog_rejected(self, kwargs):
        with pytest.raises(ValueError):
            HardwareCatalog(**kwargs)


class TestQuantize:
    def test_nearest_reactive_stage(self):
        state, gamma = quantize_gamma(-0.55j, HardwareCatalog())
        assert state.label == "C0.6"
        assert gamma == -0.6j

    def test_matched_target_hits_exact_tap(self):
        state, gamma = quantize_gamma(0j, HardwareCatalog())
        assert state.kind == "potentiometer"
        assert float(state.value) == 1000.0
        assert gamma == 0.0

    def test_over_unity_clips_to_open(self):
        state, gamma = quantize_gamma(1.2 + 0j, HardwareCatalog())
        assert state.kind == "open"
        assert gamma == 1.0

    def test_idempotent_on_catalog_entries(self):
        cat = HardwareCatalog(potentiometer_steps=32)
        for state, gamma in catalog_gammas(cat):
            _, gamma_again = quantize_gamma(gamma, cat)
            assert gamma_again == gamma

    def test_tie_prefers_lower_magnitude(self):
        # Target -0.5j sits exactly between stages at -0.25j and -0.75j
        # (distances are binary-exact): the lower-magnitude stage wins.
        cat = HardwareCatalog(
            wiper_resistance=50.0,
            max_resistance=60.0,
            potentiometer_steps=2,
            cap_stage_gammas=(-0.25j, -0.75j),
            ind_stage_gammas=(),
        )
        _, gamma = quantize_gamma(-0.5j, cat)
        assert gamma == -0.25j

    def test_tie_prefers_resistive_over_reactive(self):
        # Pot tap at gamma +0.5 and a reactive stage at -0.5j are equidistant
        # from 0 with equal magnitude: the resistive state wins.
        cat = HardwareCatalog(
            z0=1000.0,
            wiper_resistance=3000.0,
            max_resistance=9000.0,
            potentiometer_steps=2,
            cap_stage_gammas=(-0.5j,),
            ind_stage_gammas=(),
        )
        state, gamma = quantize_gamma(0j, cat)
        assert state.kind == "potentiometer"
        assert gamma == 0.5


def brute_force_nearest(target, catalog):
    """Reference: the documented key over the catalog, element by element."""
    best = min(
        (abs(g - target), abs(g), state.is_reactive, idx, state, g)
        for idx, (state, g) in enumerate(catalog_gammas(catalog))
    )
    return best[4], best[5]


class TestVectorisedQuantize:
    """The cached-table search equals the brute-force reference, ties included."""

    CATALOGS = (
        HardwareCatalog(),
        HardwareCatalog(potentiometer_steps=16, cap_stage_gammas=(-0.25j, -0.75j)),
        # Pot taps at +0.5 and +0.8 beside a -0.5j stage: target 0 ties a
        # resistive and a reactive state of equal magnitude.
        HardwareCatalog(
            wiper_resistance=3000.0,
            max_resistance=9000.0,
            potentiometer_steps=2,
            cap_stage_gammas=(-0.5j,),
            ind_stage_gammas=(),
        ),
    )

    @staticmethod
    def targets(catalog):
        rng = np.random.default_rng(17)
        points = [g for _, g in catalog_gammas(catalog)]
        random = rng.uniform(-1.2, 1.2, (500, 2)) @ np.array([1, 1j])
        midpoints = [(a + b) / 2 for a, b in zip(points, points[1:])]
        ties = [0.45j, -0.45j, 0.15j, -0.5j, 0.5, 0j, 1.5, -1.5, 1.5j]
        return list(random) + points + midpoints + ties

    @pytest.mark.parametrize("catalog", CATALOGS, ids=["default", "coarse", "tie"])
    def test_quantize_gamma_matches_reference(self, catalog):
        for t in self.targets(catalog):
            assert quantize_gamma(t, catalog) == brute_force_nearest(complex(t), catalog)

    @pytest.mark.parametrize("catalog", CATALOGS, ids=["default", "coarse", "tie"])
    def test_quantize_assignment_matches_reference(self, catalog):
        targets = [t for t in self.targets(catalog) if abs(t) <= 1]
        assignment = GammaAssignment({i: complex(t) for i, t in enumerate(targets)}, "explicit")
        quantized = quantize_assignment(assignment, catalog)
        for i, t in enumerate(targets):
            state, gamma = brute_force_nearest(complex(t), catalog)
            assert quantized.quantized_states[i] == state
            assert quantized.quantized_gammas[i] == gamma
