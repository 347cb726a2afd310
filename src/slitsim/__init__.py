"""Deterministic single-slit scattering with a discrete time step.

Charged particles are emitted toward a uniformly charged screen with a
slit, stepped with a finite-difference Newton update of step tau, and
collected on a detector plane.  The package provides the closed-form
screen force and its exact potential, the discrete per-trajectory
runner, reproducible Monte Carlo ensembles with detector histograms,
and fringe metrics for comparing distributions across tau.  It needs
numpy only; the independent references the tests check it against (a
quadrature oracle for the force and a 4th-order Runge-Kutta integrator
for the tau -> 0 limit) live in `tests/oracle.py`.
"""

from .analysis import ExtremaReport, find_extrema, oscillation_index, total_variation
from .dynamics import ParticleState, StepParams, energy, step_discrete
from .ensemble import (
    EmissionSpec,
    Histogram,
    HistogramSpec,
    emission_angles,
    merge,
    normalize,
    run_ensemble,
)
from .errors import ConfigurationError, ScreenSurfaceError
from .field import FieldParams, Vec2, force_closed_form, potential
from .scattering import (
    Blocked,
    Detected,
    Escaped,
    Geometry,
    Outcome,
    StepLimit,
    TrajectoryRecord,
    run_discrete_trajectory,
)

__version__ = "0.1.0"

__all__ = [
    "Blocked",
    "ConfigurationError",
    "Detected",
    "EmissionSpec",
    "Escaped",
    "ExtremaReport",
    "FieldParams",
    "Geometry",
    "Histogram",
    "HistogramSpec",
    "Outcome",
    "ParticleState",
    "ScreenSurfaceError",
    "StepLimit",
    "StepParams",
    "TrajectoryRecord",
    "Vec2",
    "emission_angles",
    "energy",
    "find_extrema",
    "force_closed_form",
    "merge",
    "normalize",
    "oscillation_index",
    "potential",
    "run_discrete_trajectory",
    "run_ensemble",
    "step_discrete",
    "total_variation",
]
