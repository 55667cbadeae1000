"""The solver loop with certificate checking, the configurations its
baselines run it under, plus trace diagnostics: criticality residuals and
iteration-count bounds evaluated against recorded runs, read off a trace's
columns by the float operations of a record by record pass, bit for bit.

Each run checks its finished trace against the certificate catalogue
(``certificates.py``) by the evaluation ``dcboost check`` replays, and
nothing in the loop.  In strict mode a violation beyond numerical slack
raises a diagnostic naming the first failing inequality and its iteration;
otherwise it warns for each.  A run whose phi at x or y is not finite
records that iteration as a zero step to y and stops.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .certificates import TOLERANCE, slack_columns
from .convex import as_point, row_norms, value_rows
from .core import (
    DcProblem,
    EpsSchedule,
    InexactMode,
    InvariantViolation,
    SolverConfig,
    Termination,
    Trace,
    ZeroNu,
    next_x,
    record_columns,
    validate,
)
from .linesearch import nonmonotone_search
from .subproblem import solve_inexact

__all__ = [
    "run_inmbdca",
    "SOLVERS",
    "solver_config",
    "config_warning",
    "criticality_residual",
    "final_residual",
    "ComplexityReport",
    "complexity_report",
    "lowest_phi",
    "step_domination_start",
]


def _phi_rows(g, h, Z):
    """phi at every row of Z, a list of floats: g - h in Python floats,
    which warn of no inf - inf."""
    g_rows, h_rows = value_rows(g, h, Z)
    return [a - b for a, b in zip(g_rows.tolist(), h_rows.tolist())]


def _flag(strict: bool, message: str) -> None:
    if strict:
        raise InvariantViolation(message)
    warnings.warn(message, RuntimeWarning, stacklevel=3)


def run_inmbdca(problem: DcProblem, config: SolverConfig, x0, seed: int = 0,
                strict: bool = True) -> Trace:
    """Inexact nonmonotone boosted DC run.

    Per iteration: certified approximate subgradient of h at x, inexact
    subproblem solve for (y, xi), zero-direction test, allowance nu_k,
    nonmonotone backtracking from the trial step, then x <- y + lambda d.
    Stops when the step norm falls below ``stop_step_tol``, the direction
    norm falls below ``d_zero_tol``, phi at x or y is not finite (after a
    zero step to y), or after ``max_iter`` iterations.
    """
    violations = validate(problem, config)
    if violations:
        raise ValueError("invalid configuration: " + "; ".join(violations))
    warning = config_warning(config)
    if warning:
        warnings.warn(warning, RuntimeWarning, stacklevel=2)

    # only a nonzero eps budget and the perturbed solve draw
    draws = (config.eps.kind != "zero"
             or config.inexact_mode is InexactMode.PERTURBED_EXACT)
    rng = np.random.default_rng(seed) if draws else None
    theta, rho, beta = config.theta, config.rho, config.beta
    lambda_bar, max_backtracks = config.lambda_bar, config.max_backtracks
    # y and the search's first trial points y + lambda d, refilled each
    # iteration: row 0 of ``points``, then the rows of its view ``trials``
    lams = np.array([lambda_bar * beta**j for j in range(
        min(2, max_backtracks + 1) if lambda_bar else 0)])[:, None]
    points = np.empty((1 + len(lams), problem.dim))
    trials = points[1:]
    g, h = problem.g, problem.h
    x = as_point(x0, problem.dim).copy()
    x_start = x.copy()
    phi_x, = _phi_rows(g, h, x[None])

    nu_memory = eps_prev = None
    rows = []
    termination = Termination.MAX_ITER

    for k in range(config.max_iter):
        eps_k = config.eps.at(k)
        cert = h.eps_subgrad(x, eps_k, rng)
        w = cert.w
        sol = solve_inexact(g, w, x, theta, config.inexact_mode, rng)
        y, xi = sol.y, sol.xi
        d = y - x
        d_sq = float(d @ d)
        d_norm = math.sqrt(d_sq)
        d_zero = d_norm <= config.d_zero_tol
        points[0] = y
        np.add(y, np.multiply(lams, d, out=trials), out=trials)
        phi_y, *trial_phis = _phi_rows(g, h, points)
        finite = math.isfinite(phi_x) and math.isfinite(phi_y)

        nu_k = lam = 0.0
        n_backtracks = 0
        phi_next = phi_y
        if finite and not d_zero:
            nu_k, nu_memory = config.nu.allowance(nu_memory, k, phi_x,
                                                  eps_prev, d_sq)
            ls = nonmonotone_search(
                problem.phi, y, d, phi_y, rho, beta, lambda_bar, nu_k,
                max_backtracks, d_sq, trial_phis,
            )
            lam, n_backtracks = ls.lam, ls.n_backtracks
            phi_next = ls.accepted_value

        # a row of the columns, in field order; no array in it changes later
        rows.append((k, x, phi_x, eps_k, cert.eps_achieved, w, y, xi, nu_k,
                     lam, n_backtracks, phi_y, phi_next))
        if d_zero:
            termination = Termination.D_ZERO
            break

        x_next = next_x(y, x, lam)
        step_vec = x_next - x
        step = math.sqrt(step_vec @ step_vec)
        eps_prev = eps_k
        x, phi_x = x_next, phi_next
        if not finite:
            termination = Termination.NON_FINITE
            break
        if step < config.stop_step_tol:
            termination = Termination.STEP_TOL
            break

    records = record_columns(rows, problem.dim)
    if rows:
        found = slack_columns(records, problem, config, x)
        names, table = list(found), np.array(list(found.values()))
        tol = np.array([TOLERANCE[name] for name in names])[:, None]
        # record-major, catalogue order within a record
        for i, j in np.argwhere((~(table >= -tol)).T):
            _flag(strict, f"{names[j].replace('_', ' ')} failed at iteration "
                          f"{records.columns['k'][i]}: slack={table[j, i]}")
    return Trace(
        problem_name=problem.name,
        config=config,
        x0=x_start,
        records=records,
        final_x=x,
        final_phi=phi_x,
        termination=termination,
    )


SOLVERS = ("inmbdca", "nmbdca", "bdca", "dca")  # what solver_config takes


def solver_config(solver: str, config: SolverConfig) -> SolverConfig:
    """The configuration ``run_inmbdca`` runs as ``solver``.  nmbdca, bdca
    and dca take exact subgradients of h and exact subproblem solves (zero
    eps, exact mode); bdca takes zero allowance too, dca no boosted move."""
    if solver == "inmbdca":
        return config
    cfg = replace(config, eps=EpsSchedule.zero(), inexact_mode=InexactMode.EXACT)
    if solver == "nmbdca":
        return cfg
    if solver == "bdca":
        return replace(cfg, nu=ZeroNu())
    if solver == "dca":
        return replace(cfg, lambda_bar=0.0)
    raise ValueError(f"unknown solver {solver!r}")


def config_warning(config: SolverConfig) -> Optional[str]:
    """The warning a run of ``config`` starts with, or None."""
    if config.nu.kind == "direct" and config.nu.delta == 0.0:
        return ("direct nu rule with delta = 0 carries no summability "
                "guarantee; proceeding anyway")
    return None


def criticality_residual(problem: DcProblem, x, eps: float = 0.0) -> float:
    """Largest per-coordinate gap between the subdifferential bounds of g
    and h at x; zero exactly at critical points.  For eps > 0 both are
    widened part by part, which makes a zero residual a sound (never
    missing) certificate of eps-criticality."""
    g_lo, g_hi = problem.g.bounds(x, eps)
    h_lo, h_hi = problem.h.bounds(x, eps)
    return float(np.max(np.maximum(np.maximum(g_lo - h_hi, 0.0),
                                   np.maximum(h_lo - g_hi, 0.0))))


def final_residual(problem: DcProblem, trace: Trace) -> float:
    """Criticality residual at the final point, at the precision certified
    by the last recorded step.

    The last pair satisfies xi in the subdifferential of g at y and w in
    the eps_k-relaxed subdifferential of h at x; transporting each to the
    final point costs its linearization gap, which is computable from the
    oracles.  With the boxes widened by the larger transported gap, both w
    and xi lie inside them, so this residual is at most ||w - xi||, i.e.
    theta times the final direction norm.  The raw residual (eps = 0) is
    discontinuous across l1 kinks and can read O(1) at points that are
    provably eps-critical for tiny eps; the certified widening is the
    honest finite-precision statement a stopped run supports.
    """
    if not trace.records:
        return criticality_residual(problem, trace.final_x, 0.0)
    c = trace.records.columns
    x, w, y, xi = (c[name][-1] for name in ("x", "w", "y", "xi"))
    eps_k, xf = c["eps_k"].item(-1), trace.final_x
    gap_g = problem.g.value(xf) - problem.g.value(y) - float(xi @ (xf - y))
    gap_h = (eps_k + problem.h.value(xf) - problem.h.value(x)
             - float(w @ (xf - x)))
    return criticality_residual(problem, xf, max(eps_k, gap_g, gap_h, 0.0))


@dataclass(frozen=True)
class ComplexityReport:
    """Iteration-count bounds evaluated on a finite trace.

    ``bound_total`` uses the recorded sums of nu and eps, which
    under-approximate the series the analysis allows, so the true bound is
    at least as large.  ``bound_tail``, with factor (1 - 2 xi), holds when
    nu_k (from ``tail_start`` on) and eps_k (at every k) are each at most
    xi*(sigma/2 - theta)*||d^k||^2, as the report checks.
    ``bound_tail_stated`` is the smaller (1 - xi) bound: it needs
    nu_k + eps_k <= xi*(sigma/2 - theta)*||d^k||^2, which is not checked.
    """

    n: int
    min_d_norm: float
    bound_total: float
    prefix_ok: bool
    liminf_proxy: float
    xi: float
    tail_start: Optional[int] = None
    bound_tail: Optional[float] = None
    bound_tail_stated: Optional[float] = None


def lowest_phi(trace: Trace) -> float:
    """The lowest phi a nonempty trace records, its final value included."""
    c = trace.records.columns
    return min(min(map(min, c["phi_x"].tolist(), c["phi_y"].tolist(),
                       c["phi_next"].tolist())), trace.final_phi)


def _domination_start(nu, d_norms, delta) -> Optional[int]:
    """``step_domination_start`` on the columns nu_k and ||d^k||."""
    failed = np.flatnonzero(~(nu <= delta * (d_norms * d_norms)))
    k0 = int(failed[-1]) + 1 if failed.size else 0
    return k0 if k0 < len(nu) else None


def step_domination_start(trace: Trace, delta: float) -> Optional[int]:
    """Smallest k0 with nu_k <= delta * ||d^k||^2 for every recorded k >= k0,
    or None when even the final record violates the bound."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    c = trace.records.columns
    return _domination_start(c["nu_k"], row_norms(c["y"] - c["x"]), delta)


def complexity_report(trace: Trace, phi_bar: float, sigma: float,
                      theta: float, xi: float = 0.25) -> ComplexityReport:
    """Evaluate the recorded directions against the guaranteed decay bounds.

    Checks, for every prefix length N, that

        min_{k<N} ||d^k|| <= sqrt((phi(x^0) - phi_bar + sum nu + sum eps)
                                  / ((sigma/2 - theta) N))

    with the sums taken over the prefix.  phi_bar must be a valid lower
    bound of phi; a value above any recorded phi is rejected.
    """
    c, n = trace.records.columns, len(trace.records)
    if not n:
        raise ValueError("complexity report needs a nonempty trace")
    if not 0.0 < xi < 0.5:
        raise ValueError("xi must lie in (0, 1/2)")
    coef = sigma / 2 - theta
    if coef <= 0:
        raise ValueError("need theta < sigma/2")

    seen = lowest_phi(trace)
    if not phi_bar <= seen + 1e-9:  # NaN is no lower bound either
        raise ValueError(
            f"phi_bar={phi_bar} exceeds a recorded value phi={seen}; not a "
            "lower bound"
        )

    # an edited trace's arrays may overflow: their norms read inf, unwarned
    with np.errstate(over="ignore", invalid="ignore"):
        d_norms = row_norms(c["y"] - c["x"])
        k0 = _domination_start(c["nu_k"], d_norms, xi * coef)
        # numer[j]: the numerator over the first j records, each sum from 0.0
        numer = (c["phi_x"].item(0) - phi_bar
                 + np.cumsum(np.r_[0.0, c["nu_k"]])
                 + np.cumsum(np.r_[0.0, c["eps_k"]]))
        squares = numer[1:] / (coef * np.arange(1, n + 1))
        if (squares < 0).any():  # as math.sqrt of one would raise
            raise ValueError("math domain error")
        bounds = np.sqrt(squares)
        # a running min() keeps its value against a NaN norm, as fmin does
        min_d = np.fmin.accumulate(np.r_[np.inf, d_norms])[1:]
        eps_dominated = (c["eps_k"]
                         <= xi * coef * (d_norms * d_norms) + 1e-15).all()

    tail = {}
    if k0 is not None and eps_dominated:
        top = numer.item(k0)
        tail = dict(tail_start=k0,
                    bound_tail=math.sqrt(top / ((1 - 2 * xi) * coef * n)),
                    bound_tail_stated=math.sqrt(top / ((1 - xi) * coef * n)))
    return ComplexityReport(
        n=n, min_d_norm=min_d.item(-1), bound_total=bounds.item(-1),
        prefix_ok=not (min_d > bounds + 1e-10).any(),
        liminf_proxy=min(d_norms[n // 2:].tolist()), xi=xi, **tail)
