"""Difference-of-convex minimization with boosted steps, certified
inexactness, and per-iteration inequality checking."""

from .certificates import CERTIFICATES, replay, slacks
from .convex import L1, ConvexExpr, EpsSubgradCert, Linear, Quadratic, SubdiffBox, Sum
from .core import (
    DcProblem,
    DirectNu,
    EpsSchedule,
    GrippoNu,
    InexactMode,
    InvariantViolation,
    IterationRecord,
    LambdaBarRule,
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
    run_bdca,
    run_dca,
    run_inmbdca,
    run_nmbdca,
)
from .linesearch import LinesearchResult, TauBound, nonmonotone_search, tau_bound
from .nonmonotone import (
    first_step_nu,
    nu_init,
    nu_next,
    step_domination_start,
    verify_summability,
)
from .subproblem import (
    InexactCheck,
    SubproblemSolution,
    check_inexact,
    solve_exact,
    solve_inexact,
)

__version__ = "0.1.0"
