"""Strongly convex subproblem solves with certified relative inexactness.

Each iteration of the boosted solvers needs a pair (y, xi) with xi a
subgradient of g at y and ||w - xi|| <= theta * ||y - x||.  The exact
minimizer of g(.) - <w, . - x> satisfies this with xi = w, and the two
inexact modes stop short of (or deliberately back away from) the exact
solution while keeping the certificate valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .certificates import TOLERANCE
from .convex import (ConvexExpr, as_point, membership_gap,
                     separable_coefficients, subdiff_bounds)
from .core import InexactMode, UnsupportedProblemError

__all__ = [
    "SubproblemSolution",
    "InexactCheck",
    "solve_exact",
    "solve_inexact",
    "check_inexact",
]

_MAX_INNER_ITERS = 200
_PERTURB_HALVINGS = 40


@dataclass(frozen=True, eq=False)
class SubproblemSolution:
    y: np.ndarray
    xi: np.ndarray
    lhs: float
    rhs: float
    inner_iters: int
    mode_used: InexactMode


@dataclass(frozen=True)
class InexactCheck:
    ok: bool
    lhs: float
    rhs: float
    membership_gap: float


def _coefficients(g: ConvexExpr, dim: int):
    """The (quad, lin, l1) triple of g; the subproblem needs quad > 0."""
    quad, lin, l1 = separable_coefficients(g, dim)
    if quad <= 0:
        raise UnsupportedProblemError(
            "subproblem needs strongly convex g (no quadratic weight found)"
        )
    return quad, lin, l1


def solve_exact(g: ConvexExpr, w, x) -> np.ndarray:
    """Unique minimizer of g(.) - <w, . - x>, solved per coordinate.

    Stationarity asks for w in the subdifferential of g at y; for the
    separable atom class that is a soft threshold shifted by the linear term.
    """
    x = as_point(x)
    w = as_point(w, x.shape[0])
    quad, lin, l1 = _coefficients(g, x.shape[0])
    u = w - lin
    return np.sign(u) * np.maximum(np.abs(u) - l1, 0.0) / (2.0 * quad)


def check_inexact(g: ConvexExpr, w, x, y, xi, theta: float) -> InexactCheck:
    """Measure the two acceptance conditions for a candidate pair (y, xi)."""
    x = as_point(x)
    w = as_point(w, x.shape[0])
    y = as_point(y, x.shape[0])
    xi = as_point(xi, x.shape[0])
    gap = membership_gap(*g.subdiff_box(y), xi)
    lhs = float(np.linalg.norm(w - xi))
    rhs = float(theta * np.linalg.norm(y - x))
    ok = gap <= TOLERANCE["subgrad_membership"] and (
        lhs <= rhs + TOLERANCE["inexact_bound"])
    return InexactCheck(ok=ok, lhs=lhs, rhs=rhs, membership_gap=gap)


def _exact_solution(g, w, x, theta) -> SubproblemSolution:
    y = solve_exact(g, w, x)
    rhs = float(theta * np.linalg.norm(y - x))
    return SubproblemSolution(
        y=y,
        xi=w.copy(),
        lhs=0.0,
        rhs=rhs,
        inner_iters=0,
        mode_used=InexactMode.EXACT,
    )


def _norm(v) -> float:
    # what np.linalg.norm computes for a 1-D float vector, without its overhead
    return math.sqrt(v @ v)


def _stationarity_residual(quad, lin, l1, w, t):
    # monotone selection of the optimality inclusion, sign(0) = 0 at the kink
    return 2.0 * quad * t + lin + l1 * np.sign(t) - w


def _solve_inner(g, w, x, theta) -> SubproblemSolution:
    """Coordinate-wise bisection on the stationarity inclusion, stopped at the
    first iterate whose projected subgradient passes the relative test."""
    quad, lin, l1 = _coefficients(g, x.shape[0])

    lo = np.minimum(x, 0.0) - 1.0
    hi = np.maximum(x, 0.0) + 1.0
    span = 1.0
    # widen until the monotone residual brackets its sign change everywhere
    for _ in range(80):
        bad_lo = _stationarity_residual(quad, lin, l1, w, lo) > 0
        bad_hi = _stationarity_residual(quad, lin, l1, w, hi) < 0
        if not bad_lo.any() and not bad_hi.any():
            break
        lo[bad_lo] -= span
        hi[bad_hi] += span
        span *= 2.0

    # where the inclusion already holds at the kink, the bisection limit is
    # the kink itself; capture it exactly instead of creeping toward it
    at_kink = (lo < 0.0) & (hi > 0.0) & (np.abs(w - lin) <= l1)
    lo[at_kink] = 0.0
    hi[at_kink] = 0.0

    for it in range(1, _MAX_INNER_ITERS + 1):
        y = 0.5 * (lo + hi)
        box_lo, box_hi = subdiff_bounds(quad, lin, l1, y)
        # np.clip bit for bit (pinned by a test), without its Python layers
        xi = np.minimum(np.maximum(w, box_lo), box_hi)
        lhs = _norm(w - xi)
        dist = _norm(y - x)
        if lhs <= theta * dist and dist > 0.0:
            return SubproblemSolution(
                y=y, xi=xi, lhs=lhs, rhs=theta * dist, inner_iters=it,
                mode_used=InexactMode.INNER_SOLVER,
            )
        if (hi - lo).max() < 1e-13:
            break
        # the residual's sign: its selection 2 quad y + lin + l1 sign(y) is
        # the box's one point off the kink and lin at it, where sign(0) = 0
        pos = np.where(y == 0.0, lin, box_lo) > w
        lo, hi = np.where(pos, lo, y), np.where(pos, y, hi)

    # no iterate passed; fall back to the closed form (covers y* = x, where
    # the caller takes the d = 0 stopping path)
    return replace(_exact_solution(g, w, x, theta), inner_iters=it)


def _solve_perturbed(g, w, x, theta, rng) -> SubproblemSolution:
    """Exact solve, then the largest random-direction perturbation that keeps
    the acceptance test satisfied; stresses downstream robustness."""
    y_star = solve_exact(g, w, x)
    dim = x.shape[0]
    quad, lin, l1 = _coefficients(g, dim)
    u = rng.standard_normal(dim)
    norm = float(np.linalg.norm(u))
    if norm == 0.0:
        u = np.zeros(dim)
        u[0] = 1.0
    else:
        u = u / norm

    def candidate(r):
        y = y_star + r * u
        box_lo, box_hi = subdiff_bounds(quad, lin, l1, y)
        xi = np.minimum(np.maximum(w, box_lo), box_hi)
        lhs = _norm(w - xi)
        dist = _norm(y - x)
        ok = lhs <= theta * dist and dist > 0.0
        return ok, y, xi, lhs, theta * dist

    # inner_iters counts the candidates evaluated
    r_hi = max(1.0, float(np.linalg.norm(y_star - x)))
    ok, y, xi, lhs, rhs = candidate(r_hi)
    if ok:
        return SubproblemSolution(y, xi, lhs, rhs, 1,
                                  InexactMode.PERTURBED_EXACT)
    r_lo, best = 0.0, None
    for _ in range(_PERTURB_HALVINGS):
        mid = 0.5 * (r_lo + r_hi)
        ok, y, xi, lhs, rhs = candidate(mid)
        if ok:
            r_lo, best = mid, (y, xi, lhs, rhs)
        else:
            r_hi = mid
    if best is not None:
        y, xi, lhs, rhs = best
        return SubproblemSolution(y, xi, lhs, rhs, 1 + _PERTURB_HALVINGS,
                                  InexactMode.PERTURBED_EXACT)
    return replace(_exact_solution(g, w, x, theta),
                   inner_iters=1 + _PERTURB_HALVINGS)


def solve_inexact(g: ConvexExpr, w, x, theta: float, mode: InexactMode,
                  rng=None) -> SubproblemSolution:
    """Produce (y, xi) satisfying the membership and relative-error tests.

    theta = 0 forces the exact solution with xi = w in every mode, since the
    relative test then reads ||w - xi|| = 0.
    """
    x = as_point(x)
    w = as_point(w, x.shape[0])
    if theta < 0:
        raise ValueError("theta must be nonnegative")
    if mode == InexactMode.EXACT or theta == 0.0:
        return _exact_solution(g, w, x, theta)
    if mode == InexactMode.INNER_SOLVER:
        return _solve_inner(g, w, x, theta)
    if mode == InexactMode.PERTURBED_EXACT:
        if rng is None:
            raise ValueError("perturbed_exact mode needs an rng")
        return _solve_perturbed(g, w, x, theta, rng)
    raise ValueError(f"unknown inexact mode {mode!r}")
