"""Nonmonotone backtracking search and its guaranteed step-size floor.

The search accepts the first lambda = lambda_bar * beta^j with

    phi(y + lambda d) <= phi(y) - rho lambda^2 ||d||^2 + nu,

which always terminates because the left side tends to phi(y) while the
right side tends to phi(y) + nu > phi(y) as lambda -> 0 (when nu > 0), and
because lambda = 0 satisfies the condition trivially.  When nu > 0 a
computable floor tau > 0 guarantees acceptance for every lambda in (0, tau].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convex import Sum, as_point
from .core import InvariantViolation

__all__ = ["LinesearchResult", "TauBound", "nonmonotone_search", "tau_bound"]


@dataclass(frozen=True)
class LinesearchResult:
    lam: float
    n_backtracks: int
    accepted_value: float


@dataclass(frozen=True)
class TauBound:
    tau_hat: float
    tau: float


def nonmonotone_search(phi_eval, y, d, phi_y: float, rho: float,
                       beta: float, lambda_bar: float, nu: float,
                       max_backtracks: int, d_sq=None) -> LinesearchResult:
    """Backtrack from lambda_bar by factor beta until acceptance, given
    ``phi_y`` = phi(y); ``phi_eval`` is called only at trial points.

    lambda_bar = 0 returns lambda = 0 immediately (the condition holds with
    slack nu); an exhausted budget also falls back to lambda = 0, which keeps
    the outer update well defined since nu >= 0.  A nonzero returned lambda
    is that of the last ``phi_eval`` call, whose argument was y + lambda * d:
    ``run_inmbdca`` keeps g from that call as g at its next x.  ``d_sq``,
    when given, is the caller's ``float(d @ d)``.
    """
    y = as_point(y)
    d = as_point(d, y.shape[0])
    if d_sq is None:
        d_sq = float(d @ d)
    if d_sq == 0.0:
        raise ValueError("zero direction: the caller must take the d = 0 path")
    if nu < 0:
        raise ValueError("nu must be nonnegative")
    if lambda_bar < 0:
        raise ValueError("lambda_bar must be nonnegative")
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0,1)")

    phi_y = float(phi_y)
    if lambda_bar == 0.0:
        return LinesearchResult(0.0, 0, phi_y)
    for j in range(max_backtracks + 1):
        lam = lambda_bar * beta**j
        val = float(phi_eval(y + lam * d))
        bound = phi_y - rho * lam * lam * d_sq + nu
        if val <= bound:
            return LinesearchResult(lam, j, val)
    return LinesearchResult(0.0, max_backtracks + 1, phi_y)


def tau_bound(g: Sum, x, y, d, nu: float, eps: float, sigma: float,
              rho: float) -> TauBound:
    """Guaranteed acceptance floor for the nonmonotone condition.

    tau_hat = nu / (g(y + d) + g(x) - 2 g(y) + eps) with x = y - d, the
    bracket read in closed form off g's (quad, lin, l1) triple: the linear
    part cancels and the rest is 2 quad ||d||^2 + 2 l1 sum_i max(|d_i| -
    |y_i|, 0), so no cancellation between values of g can zero it.  Strong
    convexity makes the bracket at least sigma ||d||^2 > 0, which is asserted
    before dividing.  The acceptance condition holds for every lambda in (0, tau]
    with tau = min(1, tau_hat, sigma / rho).

    On a trace record ``r`` with nu_k > 0 (so d != 0), the floor of that
    step is ``tau_bound(problem.g, r.x, r.y, r.y - r.x, r.nu_k, r.eps_k,
    problem.sigma, config.rho)``.  ``DcProblem`` rejects sigma above the
    modulus of g, so the bracket check guards direct calls only.
    """
    x = as_point(x, g.lin.shape[0])
    y = as_point(y, x.shape[0])
    d = as_point(d, x.shape[0])
    d_sq = float(d @ d)
    if d_sq == 0.0:
        raise ValueError("tau bound needs d != 0")
    if nu <= 0:
        raise ValueError("tau bound needs nu > 0")
    if eps < 0:
        raise ValueError("eps must be nonnegative")

    kinks = float(np.sum(np.maximum(np.abs(d) - np.abs(y), 0.0)))
    bracket = 2.0 * g.quad * d_sq + 2.0 * g.l1 * kinks
    if bracket < sigma * d_sq - 1e-9 * max(1.0, sigma) * d_sq:
        raise InvariantViolation(
            "strong-convexity bracket g(y+d)+g(x)-2g(y) fell below "
            f"sigma*||d||^2 ({bracket} < {sigma * d_sq}); oracle bug"
        )
    denom = bracket + eps
    if denom <= 0:
        raise InvariantViolation(
            f"tau denominator {denom} is not positive; oracle bug"
        )
    tau_hat = nu / denom
    return TauBound(tau_hat=tau_hat, tau=min(1.0, tau_hat, sigma / rho))
