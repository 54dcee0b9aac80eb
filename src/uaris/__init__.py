"""Deterministic simulator for load-modulated underwater acoustic reflector
arrays: discrete load hardware, wavefront-paired coefficient synthesis,
far-field beam patterns, tank multipath replay, link budget, and energy
accounting.
"""

from .beam import (
    BeamMetrics,
    BeamPattern,
    NoLobesError,
    SchemeComparison,
    array_factor,
    beam_metrics,
    compare_schemes,
)
from .channel import (
    LinkBudgetParams,
    TankChannel,
    Tap,
    Waveform,
    absorption_fg,
    differential_component,
    differential_ratio,
    range_extension,
    rate_gain_percent,
    rate_multiplier,
    simulate_received,
    steady_state_amplitude,
)
from .core import (
    PlaneWave,
    circular_distance,
    db_from_amplitude_ratio,
    direction_from_angles,
    unit_vector,
    wrap_angle,
)
from .geometry import (
    ArrayGeometry,
    Pairing,
    ReflectorElement,
    incident_phases,
    pair_reflectors,
)
from .hardware import (
    HardwareCatalog,
    LoadState,
    catalog_gammas,
    quantize_gamma,
    reflection_coefficient,
)
from .power import (
    BusTransfer,
    PowerConfig,
    REFERENCE_ACTIVE_MODE_ENERGY,
    phase1_energy,
    phase2_energy,
    reference_deviation_report,
    standby_power,
)
from .scenario import Scenario, ScenarioError, load_scenario
from .synthesis import (
    GammaAssignment,
    NoPairsError,
    PairSolution,
    SingularPairingError,
    configure,
    configure_coded,
    configure_synthetic,
    quantize_assignment,
    solve_pair,
)

__version__ = "0.1.0"
