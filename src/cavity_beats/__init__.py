"""Spontaneous emission of a four-level cascade atom in a damped two-mode cavity.

A single cavity polarization couples to both intermediate levels of the
cascade, so emission paths that stay distinguishable in free space
interfere here. The package solves the reduced atomic master equation
that results from eliminating the heavily damped modes, evaluates its
closed-form solutions in the evenly tuned configuration (damped quantum
beats, transient ground-population dips), and checks the reduction
against the full atom plus field dynamics.

The package root holds the names of a first reduced run; everything else is
imported from its module (scenario, composite, analytic, model, linalg, ...).
"""

from .analytic import beat_frequency, measure_beats, symmetric_solution
from .linalg import DriftError, pure_state
from .model import CouplingSet, derive_rates, midpoint_levels
from .reduced import evolve

__version__ = "0.1.0"
