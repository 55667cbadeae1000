"""Difference-of-convex minimization with boosted steps, certified
inexactness, and per-iteration inequality checking."""

from .certificates import CERTIFICATES, replay, slacks
from .convex import EpsSubgradCert, Sum, membership_gap, subdiff_bounds
from .core import (
    DcProblem,
    DirectNu,
    EpsSchedule,
    GrippoNu,
    InexactMode,
    InvariantViolation,
    IterationRecord,
    RatioNu,
    SolverConfig,
    Termination,
    Trace,
    UnsupportedProblemError,
    ZeroNu,
    ZhangHagerNu,
    validate,
)
from .drivers import (
    ComplexityReport,
    complexity_report,
    criticality_residual,
    final_residual,
    run_inmbdca,
    solver_config,
    step_domination_start,
)
from .linesearch import LinesearchResult, TauBound, nonmonotone_search, tau_bound
from .subproblem import SubproblemSolution, solve_exact, solve_inexact

__version__ = "0.1.0"
