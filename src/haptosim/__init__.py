"""haptosim: finite-element simulation of a haptotaxis-driven invasion model.

Three coupled fields on an axis-aligned box with zero-flux boundaries --
cell density, extracellular-matrix density, and protease -- advanced by a
blended implicit one-step scheme, Q1 finite elements, and a relaxed
fixed-point decoupling of the three equations.
"""

from .fem import (
    assemble_haptotaxis,
    assemble_mass,
    assemble_product_load,
    assemble_stiffness,
    assemble_weighted_mass,
)
from .iocfg import RunConfig, parse_config, render_config, write_diagnostics_csv, write_vtk
from .linsolve import DiaMatrix, SolverFailure, solve
from .mesh import FeField, StructuredMesh, build_structured_mesh, interpolate
from .model import (
    Parameters,
    SimState,
    corner_gaussian,
    interpolate_initial_state,
    rescale_to_unit_chi_eps,
)
from .stepper import (
    BreakdownReport,
    FixedPointReport,
    NonconvergenceError,
    Operators,
    RunResult,
    StepRecord,
    fixed_point_advance,
    run,
    simulate,
)
from .verify import (
    element_matrix_crosscheck,
    ode_oracle,
    scaling_equivalence,
    temporal_order_study,
)

__version__ = "0.1.0"

__all__ = [
    "BreakdownReport",
    "DiaMatrix",
    "FeField",
    "FixedPointReport",
    "NonconvergenceError",
    "Operators",
    "Parameters",
    "RunConfig",
    "RunResult",
    "SimState",
    "SolverFailure",
    "StepRecord",
    "StructuredMesh",
    "assemble_haptotaxis",
    "assemble_mass",
    "assemble_product_load",
    "assemble_stiffness",
    "assemble_weighted_mass",
    "build_structured_mesh",
    "corner_gaussian",
    "element_matrix_crosscheck",
    "fixed_point_advance",
    "interpolate",
    "interpolate_initial_state",
    "ode_oracle",
    "parse_config",
    "render_config",
    "rescale_to_unit_chi_eps",
    "run",
    "scaling_equivalence",
    "simulate",
    "solve",
    "temporal_order_study",
    "write_diagnostics_csv",
    "write_vtk",
]
