"""Spontaneous emission of a four-level cascade atom in a damped two-mode cavity.

A single cavity polarization couples to both intermediate levels of the
cascade, so emission paths that stay distinguishable in free space
interfere here. The package solves the reduced atomic master equation
that results from eliminating the heavily damped modes, evaluates its
closed-form solutions in the evenly tuned configuration (damped quantum
beats, transient ground-population dips), and checks the reduction
against the full atom plus field dynamics.
"""

from .analytic import (
    BeatMeasurement,
    BeatPrediction,
    beat_frequency,
    measure_beats,
    secular_solution,
    symmetric_solution,
)
from .composite import (
    CompositeSystem,
    EliminationCheck,
    annihilation,
    build_hamiltonian,
    build_system,
    evolve_composite,
    excited_vacuum,
    lindblad_rhs,
    reduced_from_composite,
    validate_elimination,
)
from .linalg import (
    DriftError,
    density_matrix,
    hermitize_and_check,
    partial_trace_field,
    propagate,
    pure_state,
)
from .model import (
    CavityParams,
    CouplingSet,
    DipoleGeometry,
    LevelScheme,
    RateSet,
    coupling_constant,
    couplings_from_geometry,
    derive_rates,
    detunings,
    interference_condition,
    midpoint_levels,
    preselected_product,
    sigma_dipoles,
    summed_product,
    transverse_basis,
)
from .reduced import evolve, rhs_element_form, rhs_operator_form
from .scenario import (
    RunResult,
    Scenario,
    ScenarioError,
    load_scenario,
    parse_scenario,
    run_scenario,
    run_sweep,
    write_csv,
    write_summary,
)
from .series import LEVELS, TimeSeries

__version__ = "0.1.0"
