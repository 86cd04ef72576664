"""Finite-element solver for quasi-static Biot poroelasticity.

The displacement/total-pressure/fluid-pressure formulation is discretized
with Taylor-Hood elements (quadratic displacements, linear pressures) on
triangulations of the unit square.  Three backward-Euler time-stepping
variants share the same building blocks:

* ``coupled`` -- the monolithic three-field system,
* ``te`` -- a time-extrapolated decoupled step (Stokes-like solve with the
  lagged fluid pressure, then a pressure update),
* ``iterative`` -- a fixed-point iteration within each time step that
  converges to the coupled solution.

``benchmark`` provides a smooth manufactured solution and mesh-refinement
studies; ``cli`` exposes the ``biotsplit`` command-line entry point.
"""

from .mesh import TriMesh, build_uniform, refine
from .fem import Space, FieldVector, interpolate, quadrature
from .assembly import PhysParams, assemble_form, assemble_functional, export_matrix
from .linalg import SingularMatrixError, lu_factor
from .biot import (
    BiotState,
    ContractionReport,
    ConvergenceFailure,
    DiscreteSystem,
    EnergyReport,
    LoadSet,
    advance,
    build_system,
    contraction_monitor,
    energy_check,
    korn_check,
    step_coupled,
    step_iterative,
    step_te_decoupled,
)
from .benchmark import (
    ErrorSet,
    ManufacturedCase,
    PRESETS,
    StudyResult,
    benchmark_loads,
    compute_errors,
    initial_state,
    make_case,
    run_study,
    study_csv,
)

__version__ = "0.1.0"

__all__ = [
    "BiotState",
    "ContractionReport",
    "ConvergenceFailure",
    "DiscreteSystem",
    "EnergyReport",
    "ErrorSet",
    "FieldVector",
    "LoadSet",
    "ManufacturedCase",
    "PRESETS",
    "PhysParams",
    "SingularMatrixError",
    "Space",
    "StudyResult",
    "TriMesh",
    "advance",
    "assemble_form",
    "assemble_functional",
    "benchmark_loads",
    "build_system",
    "build_uniform",
    "compute_errors",
    "contraction_monitor",
    "energy_check",
    "export_matrix",
    "initial_state",
    "interpolate",
    "korn_check",
    "lu_factor",
    "make_case",
    "quadrature",
    "refine",
    "run_study",
    "step_coupled",
    "step_iterative",
    "step_te_decoupled",
    "study_csv",
]
