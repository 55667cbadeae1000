"""Strongly convex subproblem solves with certified relative inexactness.

Each iteration of the boosted solvers needs a pair (y, xi) with xi a
subgradient of g at y and ||w - xi|| <= theta * ||y - x||.  The exact
minimizer of g(.) - <w, . - x> satisfies this with xi = w, and the two
inexact modes stop short of (or deliberately back away from) the exact
solution while keeping the certificate valid.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .certificates import TOLERANCE
from .convex import (ConvexExpr, as_point, l2_norm, membership_gap,
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
    lhs = l2_norm(w - xi)
    rhs = theta * l2_norm(y - x)
    ok = gap <= TOLERANCE["subgrad_membership"] and (
        lhs <= rhs + TOLERANCE["inexact_bound"])
    return InexactCheck(ok=ok, lhs=lhs, rhs=rhs, membership_gap=gap)


def _exact_solution(g, w, x, theta) -> SubproblemSolution:
    y = solve_exact(g, w, x)
    rhs = theta * l2_norm(y - x)
    return SubproblemSolution(
        y=y,
        xi=w.copy(),
        lhs=0.0,
        rhs=rhs,
        inner_iters=0,
        mode_used=InexactMode.EXACT,
    )


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
        lhs = l2_norm(w - xi)
        dist = l2_norm(y - x)
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


def _fails_between(v_hi, e_hi, v_end, e_end, theta) -> bool:
    """Whether every perturbed candidate between two failed end radii fails
    too, read off the ends' v = w - xi and e = y - x alone.

    Between the ends, |e_i| <= E_i, the larger |e_i| of the two ends, and
    where both ends' v_i share a strict sign, |v_i| >= m_i, the smaller of
    the two (see ``_solve_perturbed``); let M = max_i m_i.  A rounded dot
    product of squares, in any order and with or without FMA, is at least
    its largest rounded term, so lhs >= fl(sqrt(fl(M M))).  With u = 2^-53
    and both fl(E @ E) and fl(theta sqrt(fl(E @ E))) normal (>= 2^-1022, so
    that gradual underflow adds at most u 2^-1022 per product), the n-term
    sum bounds give fl(e @ e) <= rho fl(E @ E) with
    rho = ((1+u)/(1-u))^n (1 + n u) + n u (1+u)^n, and the two square roots
    and two products then give rhs <= fl(fl(theta sqrt(fl(E @ E))) slack)
    whenever slack >= F(n) = ((1+u)^2 sqrt(rho) / (1-u) + u (1+u) / (1-u))
    / ((1-u) (1 - u - u (1+u) / (1-u))) = 1 + (2n + 7) u + O(n^2 u^2).
    slack = 1 + 4 (n + 4) u covers F(n) from n = 1 to 2^50 (checked in
    80-digit arithmetic by a test) and is exact in floating point.  So when fl(sqrt(fl(M M))) exceeds that bound, lhs > rhs
    at every candidate.  Any non-finite value skips the certificate."""
    lo, hi = np.minimum(v_hi, v_end), np.maximum(v_hi, v_end)
    # lo.max() > 0 or hi.min() < 0 only where both ends share a strict sign
    m = max(lo.max(), -hi.min(), 0.0)
    big = np.maximum(np.abs(e_hi), np.abs(e_end))
    e2 = big @ big
    # lo.min() and hi.max() bound every entry of both v
    if not math.isfinite(lo.min() + hi.max() + e2):
        return False
    bound = theta * math.sqrt(e2)
    slack = 1.0 + (v_hi.shape[0] + 4) * 2.0**-51
    return (e2 >= sys.float_info.min and bound >= sys.float_info.min
            and math.sqrt(m * m) > bound * slack)


def _solve_perturbed(g, w, x, theta, rng) -> SubproblemSolution:
    """Exact solve, then the largest random-direction perturbation that keeps
    the acceptance test satisfied; stresses downstream robustness.

    The radius starts at r_hi and is halved 40 times, toward the first pass,
    so when every candidate fails the radii are r_hi 2^-j, j = 0..40.  Once
    the r_hi candidate fails, the r_hi 2^-40 one is evaluated next, and
    ``_fails_between`` tries to prove from these two ends that all 41 fail;
    then the closed form returns without the 39 candidates between them.
    That is the common case at l1 kinks where w lies strictly inside the
    kink interval: there |w_i - xi_i| stays near the interval's end whatever
    the radius.  inner_iters counts the candidates evaluated.

    Why the two ends bound the rest: per coordinate, each rounded step from
    r to y_i = fl(y*_i + fl(r u_i)), to e_i = fl(y_i - x_i) and to both ends
    of the box at y_i is monotone, and both box ends are nondecreasing in
    y_i, through the kink too: with base the rounded 2 quad y_i + lin_i,
    left of it both are base - l1, at it the box is [base - l1, base + l1],
    and right of it both are base + l1.  So the clip
    xi_i and v_i = fl(w_i - xi_i) are monotone in r, and at any radius
    between the ends e_i and v_i lie between their values at the ends.
    ``_fails_between`` turns that into a bound on both norms that holds
    under rounding."""
    y_star = solve_exact(g, w, x)
    dim = x.shape[0]
    quad, lin, l1 = _coefficients(g, dim)
    u = rng.standard_normal(dim)
    norm = l2_norm(u)
    if norm == 0.0:
        u = np.zeros(dim)
        u[0] = 1.0
    else:
        u = u / norm

    def candidate(r):
        y = y_star + r * u
        box_lo, box_hi = subdiff_bounds(quad, lin, l1, y)
        xi = np.minimum(np.maximum(w, box_lo), box_hi)
        v, e = w - xi, y - x
        lhs, dist = l2_norm(v), l2_norm(e)
        ok = lhs <= theta * dist and dist > 0.0
        return ok, (y, xi, lhs, theta * dist), v, e

    r_hi = max(1.0, l2_norm(y_star - x))
    ok, sol, v_hi, e_hi = candidate(r_hi)
    if ok:
        return SubproblemSolution(*sol, 1, InexactMode.PERTURBED_EXACT)
    r_end = r_hi * 0.5**_PERTURB_HALVINGS
    ok_end, sol_end, v_end, e_end = candidate(r_end)
    if _fails_between(v_hi, e_hi, v_end, e_end, theta):
        return replace(_exact_solution(g, w, x, theta), inner_iters=2)
    r_lo, best, evals = 0.0, None, 2
    for _ in range(_PERTURB_HALVINGS):
        mid = 0.5 * (r_lo + r_hi)
        if mid == r_end:  # the last halving, every candidate before it failed
            ok, sol = ok_end, sol_end
        else:
            ok, sol, _, _ = candidate(mid)
            evals += 1
        if ok:
            r_lo, best = mid, sol
        else:
            r_hi = mid
    if best is not None:
        return SubproblemSolution(*best, evals, InexactMode.PERTURBED_EXACT)
    return replace(_exact_solution(g, w, x, theta), inner_iters=evals)


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
