"""B-spline IGA discretization, geometric multigrid, and extrapolation-
accelerated Picard solvers for nonlinear elliptic problems."""

from .bspline import (
    KnotVector,
    eval_basis,
    greville_abscissae,
    insert_knots,
    make_open_uniform_knots,
)
from .extrapolation import (
    AndersonState,
    ExtrapolationResult,
    IterateWindow,
    anderson_solve,
    anderson_step,
    fixed_point_solve,
    generalized_residual,
    mpe_extrapolate,
    restarted_solve,
    rre_extrapolate,
)
from .history import IterationHistory, IterationRecord
from .iga import (
    SplineSpace,
    apply_dirichlet,
    assemble_mass,
    assemble_stiffness,
    l2_error,
    make_space,
)
from .linalg import QRFactors, qr_factor, solve_normal_equations, solve_upper_triangular
from .multigrid import (
    CycleReport,
    GridHierarchy,
    build_hierarchy,
    smooth,
    solve_to_tolerance,
    v_cycle,
)
from .nonlinear import (
    BratuProblem,
    MongeAmpereProblem,
    OuterConfig,
    make_context,
    run_outer,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
