"""Solver loops with per-iteration certificate checking, plus trace
diagnostics: criticality residuals and iteration-count bounds evaluated
against recorded runs.

Each run checks every record it builds against the certificate catalogue
(``certificates.py``), plus the subproblem linearization bound, which only
the live loop checks.  In strict mode a violation beyond numerical slack
aborts the run with a diagnostic naming the inequality and the iteration;
otherwise it warns and continues.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .certificates import TOLERANCE, holds, slacks
from .convex import as_point
from .core import (
    DcProblem,
    DirectNu,
    EpsSchedule,
    InexactMode,
    InvariantViolation,
    IterationRecord,
    LambdaBarRule,
    SolverConfig,
    Termination,
    Trace,
    ZeroNu,
    validate,
)
from .linesearch import nonmonotone_search, tau_bound
from .nonmonotone import first_step_nu, nu_init, nu_next, step_domination_start
from .subproblem import solve_inexact

__all__ = [
    "run_inmbdca",
    "run_nmbdca",
    "run_dca",
    "run_bdca",
    "criticality_residual",
    "final_residual",
    "ComplexityReport",
    "complexity_report",
]


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
    if isinstance(config.nu, DirectNu) and config.nu.delta_min == 0.0:
        warnings.warn(
            "direct nu rule with delta_min = 0 carries no summability "
            "guarantee; proceeding anyway",
            RuntimeWarning,
            stacklevel=2,
        )

    rng = np.random.default_rng(seed)
    sigma, theta, rho = problem.sigma, config.theta, config.rho
    x = as_point(x0, problem.dim).copy()
    x_start = x.copy()
    phi_x = problem.phi(x)

    nu_state, nu_pending = nu_init(config.nu, phi_x)
    records = []
    termination = Termination.MAX_ITER
    phi_prev = eps_prev = None

    for k in range(config.max_iter):
        eps_k = config.eps.at(k)
        cert = problem.h.eps_subgrad(x, eps_k, rng)
        w = cert.w
        sol = solve_inexact(problem.g, w, x, theta, config.inexact_mode, rng)
        y, xi = sol.y, sol.xi
        d = y - x
        d_sq = float(d @ d)
        d_norm = math.sqrt(d_sq)
        phi_y = problem.phi(y)
        lam_bar = config.lambda_bar.trial(k)

        # live-only: replaying it would cost two evaluations of g per record
        lin_gap = problem.g.value(x) - problem.g.value(y) + float(w @ d)
        if not lin_gap >= -TOLERANCE["subgrad_membership"]:
            _flag(strict,
                  f"subproblem linearization bound g(x) >= g(y) - <w, y-x> "
                  f"failed at iteration {k}: gap={lin_gap}")

        d_zero = d_norm <= config.d_zero_tol
        nu_k = lam = 0.0
        n_backtracks = 0
        phi_next = phi_y
        tau_pair = None
        if not d_zero:
            if k == 0:
                nu_k = first_step_nu(config.nu, nu_pending, d_sq)
            else:
                nu_state, nu_k = nu_next(
                    config.nu, nu_state, k - 1, phi_prev, phi_x, eps_prev, d_sq
                )
            if nu_k > 0.0:
                tau_pair = tau_bound(problem.g, x, y, d, nu_k, eps_k, sigma, rho)
            ls = nonmonotone_search(
                problem.phi, y, d, rho, config.beta, lam_bar, nu_k,
                config.max_backtracks,
            )
            lam, n_backtracks = ls.lam, ls.n_backtracks
            phi_next = ls.accepted_value

        record = IterationRecord(
            k=k, x=x.copy(), phi_x=phi_x, eps_k=eps_k,
            eps_certified=cert.eps_achieved, w=w.copy(), y=y.copy(),
            xi=xi.copy(), d_norm=d_norm, inexact_lhs=sol.lhs,
            inexact_rhs=sol.rhs, nu_k=nu_k, lambda_bar=lam_bar,
            lambda_k=lam, n_backtracks=n_backtracks, phi_y=phi_y,
            phi_next=phi_next,
            tau_hat=None if tau_pair is None else tau_pair.tau_hat,
            tau=None if tau_pair is None else tau_pair.tau,
        )
        for name, slack in slacks(record, problem, config).items():
            if not holds(name, slack):
                _flag(strict, f"{name.replace('_', ' ')} failed at iteration "
                              f"{k}: slack={slack}")
        records.append(record)
        if d_zero:
            termination = Termination.D_ZERO
            break

        x_next = y + lam * d
        step_vec = x_next - x
        step = math.sqrt(step_vec @ step_vec)
        phi_prev, eps_prev = phi_x, eps_k
        x, phi_x = x_next, phi_next
        if step < config.stop_step_tol:
            termination = Termination.STEP_TOL
            break

    return Trace(
        problem_name=problem.name,
        config=config,
        x0=x_start,
        records=records,
        final_x=x,
        final_phi=phi_x,
        termination=termination,
    )


def run_nmbdca(problem: DcProblem, config: SolverConfig, x0,
               strict: bool = True) -> Trace:
    """Exact-subproblem variant: subgradient of h taken exactly and the
    subproblem solved to its unique minimizer (same loop otherwise)."""
    cfg = replace(config, eps=EpsSchedule.zero(), inexact_mode=InexactMode.EXACT)
    return run_inmbdca(problem, cfg, x0, seed=0, strict=strict)


def run_bdca(problem: DcProblem, config: SolverConfig, x0,
             strict: bool = True) -> Trace:
    """Monotone boosted variant: exact subproblems and zero allowance."""
    return run_nmbdca(problem, replace(config, nu=ZeroNu()), x0, strict=strict)


def run_dca(problem: DcProblem, config: SolverConfig, x0,
            strict: bool = True) -> Trace:
    """Classical baseline: exact subproblems and no boosted move, so the
    update is x <- y."""
    cfg = replace(config, lambda_bar=LambdaBarRule.zero_boost())
    return run_nmbdca(problem, cfg, x0, strict=strict)


def criticality_residual(problem: DcProblem, x, eps: float = 0.0) -> float:
    """Largest per-coordinate gap between the subdifferential bounds of g
    and h at x; zero exactly at critical points.  For eps > 0 both are
    widened per aggregated atom, which makes a zero residual a sound (never
    missing) certificate of eps-criticality."""
    x = as_point(x, problem.dim)
    g_lo, g_hi = problem.g.eps_subdiff_box(x, eps)
    h_lo, h_hi = problem.h.eps_subdiff_box(x, eps)
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
    if phi_bar > seen + 1e-9:
        raise ValueError(
            f"phi_bar={phi_bar} exceeds a recorded value phi={seen}; not a "
            "lower bound"
        )

    phi0 = records[0].phi_x
    min_d = math.inf
    sum_nu = sum_eps = 0.0
    prefix_ok = True
    bound = math.inf
    for n, r in enumerate(records, start=1):
        min_d = min(min_d, r.d_norm)
        sum_nu += r.nu_k
        sum_eps += r.eps_k
        bound = math.sqrt((phi0 - phi_bar + sum_nu + sum_eps) / (coef * n))
        if min_d > bound + 1e-10:
            prefix_ok = False

    n_total = len(records)
    liminf_proxy = min(r.d_norm for r in records[n_total // 2:])

    tail_start = bound_tail = bound_tail_stated = None
    k0 = step_domination_start(trace, xi * coef)
    eps_dominated = all(
        r.eps_k <= xi * coef * r.d_norm**2 + 1e-15 for r in records
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
