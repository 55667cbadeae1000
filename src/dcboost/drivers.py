"""Solver loops with certificate checking, plus trace diagnostics:
criticality residuals and iteration-count bounds evaluated against recorded
runs.

Each run checks the subproblem linearization bound at every iteration, as
only the loop holds g(x) and g(y), and checks its finished trace against
the certificate catalogue (``certificates.py``) by the same evaluation that
``dcboost check`` replays.  In strict mode a violation beyond numerical
slack raises a diagnostic naming the inequality and its iteration (the
first failing one, in iteration order, for the catalogue); otherwise it
warns for each.
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
    make_record,
    next_x,
    validate,
)
from .linesearch import nonmonotone_search
from .subproblem import solve_inexact

__all__ = [
    "run_inmbdca",
    "run_nmbdca",
    "run_dca",
    "run_bdca",
    "solver_config",
    "criticality_residual",
    "final_residual",
    "ComplexityReport",
    "complexity_report",
    "step_domination_start",
]


# -tol of each slack, a column in slack_columns order: a slack holds when
# it is >= its entry, as ``holds`` tests one
_MINUS_TOLERANCE = -np.array(list(TOLERANCE.values()))[:, None]


def _phi_rows(g, h, Z):
    """phi and g at every row of Z, each a list of floats; phi is g - h in
    Python floats, which warn of no inf - inf."""
    g_rows, h_rows = value_rows(g, h, Z)
    gs = g_rows.tolist()
    return [a - b for a, b in zip(gs, h_rows.tolist())], gs


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
    norm falls below ``d_zero_tol``, or after ``max_iter`` iterations.
    """
    violations = validate(problem, config)
    if violations:
        raise ValueError("invalid configuration: " + "; ".join(violations))
    if config.nu.kind == "direct" and config.nu.delta == 0.0:
        warnings.warn(
            "direct nu rule with delta = 0 carries no summability "
            "guarantee; proceeding anyway",
            RuntimeWarning,
            stacklevel=2,
        )

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
    (phi_x,), (g_x,) = _phi_rows(g, h, x[None])

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
        phis, gs = _phi_rows(g, h, points)
        phi_y, g_y = phis[0], gs[0]

        # live-only: replaying it would cost two evaluations of g per record
        lin_gap = g_x - g_y + float(w @ d)
        if not lin_gap >= -TOLERANCE["subgrad_membership"]:
            _flag(strict,
                  f"subproblem linearization bound g(x) >= g(y) - <w, y-x> "
                  f"failed at iteration {k}: gap={lin_gap}")

        nu_k = lam = 0.0
        n_backtracks = 0
        phi_next = phi_y
        if not d_zero:
            nu_k, nu_memory = config.nu.allowance(nu_memory, k, phi_x,
                                                  eps_prev, d_sq)
            ls = nonmonotone_search(
                problem.phi, y, d, phi_y, rho, beta, lambda_bar, nu_k,
                max_backtracks, d_sq, phis[1:],
            )
            lam, n_backtracks = ls.lam, ls.n_backtracks
            phi_next = ls.accepted_value

        rows.append({
            "k": k, "x": x.copy(), "phi_x": phi_x, "eps_k": eps_k,
            "eps_certified": cert.eps_achieved, "w": w.copy(), "y": y.copy(),
            "xi": xi.copy(), "nu_k": nu_k, "lambda_k": lam,
            "n_backtracks": n_backtracks, "phi_y": phi_y,
            "phi_next": phi_next,
        })
        if d_zero:
            termination = Termination.D_ZERO
            break

        x_next = next_x(y, x, lam)
        step_vec = x_next - x
        step = math.sqrt(step_vec @ step_vec)
        eps_prev = eps_k
        x, phi_x = x_next, phi_next
        # g at the accepted point: y for a zero lam, else a trial point,
        # held unless the search evaluated it alone
        g_x = (g_y if lam == 0.0 else gs[n_backtracks + 1]
               if n_backtracks + 1 < len(gs) else g.value(x))
        if step < config.stop_step_tol:
            termination = Termination.STEP_TOL
            break

    records = [make_record(values) for values in rows]
    if records:
        found = slack_columns(records, problem, config, x)
        names, table = list(found), np.array(list(found.values()))
        # record-major, catalogue order within a record
        for i, j in np.argwhere((~(table >= _MINUS_TOLERANCE)).T):
            _flag(strict, f"{names[j].replace('_', ' ')} failed at iteration "
                          f"{records[i].k}: slack={table[j, i]}")
    return Trace(
        problem_name=problem.name,
        config=config,
        x0=x_start,
        records=records,
        final_x=x,
        final_phi=phi_x,
        termination=termination,
    )


def solver_config(solver: str, config: SolverConfig) -> SolverConfig:
    """The configuration ``solver`` runs.  nmbdca, bdca and dca take exact
    subgradients of h and exact subproblem solves (zero eps, exact mode);
    bdca also takes zero allowance and dca no boosted move."""
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


def run_nmbdca(problem: DcProblem, config: SolverConfig, x0,
               strict: bool = True) -> Trace:
    """Exact-subproblem variant: subgradient of h taken exactly and the
    subproblem solved to its unique minimizer (same loop otherwise)."""
    return run_inmbdca(problem, solver_config("nmbdca", config), x0, seed=0,
                       strict=strict)


def run_bdca(problem: DcProblem, config: SolverConfig, x0,
             strict: bool = True) -> Trace:
    """Monotone boosted variant: exact subproblems and zero allowance."""
    return run_inmbdca(problem, solver_config("bdca", config), x0, seed=0,
                       strict=strict)


def run_dca(problem: DcProblem, config: SolverConfig, x0,
            strict: bool = True) -> Trace:
    """Classical baseline: exact subproblems and no boosted move, so the
    update is x <- y."""
    return run_inmbdca(problem, solver_config("dca", config), x0, seed=0,
                       strict=strict)


def criticality_residual(problem: DcProblem, x, eps: float = 0.0) -> float:
    """Largest per-coordinate gap between the subdifferential bounds of g
    and h at x; zero exactly at critical points.  For eps > 0 both are
    widened part by part, which makes a zero residual a sound (never
    missing) certificate of eps-criticality."""
    x = as_point(x, problem.dim)
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
    r = trace.records[-1]
    xf = trace.final_x
    gap_g = (problem.g.value(xf) - problem.g.value(r.y)
             - float(r.xi @ (xf - r.y)))
    gap_h = (r.eps_k + problem.h.value(xf) - problem.h.value(r.x)
             - float(r.w @ (xf - r.x)))
    eps = max(r.eps_k, gap_g, gap_h, 0.0)
    return criticality_residual(problem, xf, eps)


@dataclass(frozen=True)
class ComplexityReport:
    """Iteration-count bounds evaluated on a finite trace.

    ``bound_total`` uses the recorded sums of nu and eps, which
    under-approximate the series the analysis allows, so the true bound is
    at least as large.  ``bound_tail`` is the sharper bound available when
    the allowance is eventually dominated by xi*(sigma/2 - theta)*||d||^2;
    ``bound_tail_stated`` is its looser (1 - xi) variant, reported alongside.
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


def step_domination_start(trace: Trace, delta: float) -> Optional[int]:
    """Smallest k0 with nu_k <= delta * ||d^k||^2 for every recorded k >= k0,
    or None when even the final record violates the bound."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    records = trace.records
    d_norms = _d_norms(records)
    k0 = None
    for idx in range(len(records) - 1, -1, -1):
        if records[idx].nu_k <= delta * (d_norms[idx] * d_norms[idx]):
            k0 = idx
        else:
            break
    return k0


def _d_norms(records) -> list:
    """Each record's ``d_norm``, as floats, by the row kernel."""
    if not records:
        return []
    return row_norms(np.array([r.y - r.x for r in records])).tolist()


def complexity_report(trace: Trace, phi_bar: float, sigma: float,
                      theta: float, xi: float = 0.25) -> ComplexityReport:
    """Evaluate the recorded directions against the guaranteed decay bounds.

    Checks, for every prefix length N, that

        min_{k<N} ||d^k|| <= sqrt((phi(x^0) - phi_bar + sum nu + sum eps)
                                  / ((sigma/2 - theta) N))

    with the sums taken over the prefix.  phi_bar must be a valid lower
    bound of phi; a value above any recorded phi is rejected.
    """
    records = trace.records
    if not records:
        raise ValueError("complexity report needs a nonempty trace")
    if not 0.0 < xi < 0.5:
        raise ValueError("xi must lie in (0, 1/2)")
    coef = sigma / 2 - theta
    if coef <= 0:
        raise ValueError("need theta < sigma/2")

    seen = min(
        min(min(r.phi_x, r.phi_y, r.phi_next) for r in records),
        trace.final_phi,
    )
    if not phi_bar <= seen + 1e-9:  # NaN is no lower bound either
        raise ValueError(
            f"phi_bar={phi_bar} exceeds a recorded value phi={seen}; not a "
            "lower bound"
        )

    # an edited trace's arrays may overflow: their norms read inf, unwarned
    with np.errstate(over="ignore", invalid="ignore"):
        d_norms = _d_norms(records)
        k0 = step_domination_start(trace, xi * coef)
    phi0 = records[0].phi_x
    min_d = math.inf
    sum_nu = sum_eps = 0.0
    prefix_ok = True
    bound = math.inf
    for n, (r, d_norm) in enumerate(zip(records, d_norms), start=1):
        min_d = min(min_d, d_norm)
        sum_nu += r.nu_k
        sum_eps += r.eps_k
        bound = math.sqrt((phi0 - phi_bar + sum_nu + sum_eps) / (coef * n))
        if min_d > bound + 1e-10:
            prefix_ok = False

    n_total = len(records)
    liminf_proxy = min(d_norms[n_total // 2:])

    tail_start = bound_tail = bound_tail_stated = None
    eps_dominated = all(
        r.eps_k <= xi * coef * (d_norm * d_norm) + 1e-15
        for r, d_norm in zip(records, d_norms)
    )
    if k0 is not None and eps_dominated and n_total > k0:
        head_nu = sum(r.nu_k for r in records[:k0])
        head_eps = sum(r.eps_k for r in records[:k0])
        numer = phi0 - phi_bar + head_nu + head_eps
        tail_start = k0
        bound_tail = math.sqrt(numer / ((1 - 2 * xi) * coef * n_total))
        bound_tail_stated = math.sqrt(numer / ((1 - xi) * coef * n_total))

    return ComplexityReport(
        n=n_total,
        min_d_norm=min_d,
        bound_total=bound,
        prefix_ok=prefix_ok,
        liminf_proxy=liminf_proxy,
        xi=xi,
        tail_start=tail_start,
        bound_tail=bound_tail,
        bound_tail_stated=bound_tail_stated,
    )
