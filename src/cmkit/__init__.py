"""
cmkit: solver and verification toolkit for a family of Hessian equations
satisfied by support functions of convex bodies, posed on S^1 and S^2.
"""

from .errors import (
    AdmissibilityError,
    ConfigError,
    DomainError,
    SingularJacobianError,
    UnsupportedParameterError,
)
from .sphere import (
    GridFunction,
    HessianField,
    SphereGrid,
    apply_symmetry,
    build_grid,
    constant_function,
    coordinate_function,
    even_project,
    hessian_field,
    integrate,
    laplace_beltrami,
    read_grid_function,
    write_grid_function,
)
from .symfunc import in_gamma_k, newton_maclaurin_gap, sigma_k
from .problem import ProblemSpec, assemble_jacobian, evaluate, homotopy_f, residual, validate_f1
from .newton import NewtonResult, newton_solve
from .continuation import SolveTrace, continue_path
from .diagnostics import (
    DiagnosticsReport,
    af_inequality_check,
    isotropic_experiment,
    l0_spectrum,
    manufacture,
    run_diagnostics,
)
from .geometry import BodyMesh, radial_function, reconstruct_body
from .config import RunConfig, build_problem, parse_config

__version__ = "0.1.0"
