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
from dataclasses import dataclass

import numpy as np

from .convex import Sum, as_point, l2_norm, subdiff_bounds
from .core import InexactMode, UnsupportedProblemError

__all__ = [
    "SubproblemSolution",
    "solve_exact",
    "solve_inexact",
]

_MAX_INNER_ITERS = 200
_PERTURB_HALVINGS = 40
_WIDEN_ROUNDS = 80
# at most this dimension, finite inputs take _bisect_floats, which evaluates
# the acceptance test once per _FLOAT_CHUNK steps (see _solve_inner)
_FLOAT_MAX_DIM = 16
_FLOAT_CHUNK = 24


@dataclass(frozen=True, eq=False)
class SubproblemSolution:
    y: np.ndarray
    xi: np.ndarray
    inner_iters: int
    mode_used: InexactMode


def _coefficients(g: Sum):
    """The (quad, lin, l1) triple of g; the subproblem needs quad > 0."""
    if g.quad <= 0:
        raise UnsupportedProblemError(
            "subproblem needs strongly convex g (no quadratic weight found)"
        )
    return g.quad, g.lin, g.l1


def solve_exact(g: Sum, w, x) -> np.ndarray:
    """Unique minimizer of g(.) - <w, . - x>, solved per coordinate.

    Stationarity asks for w in the subdifferential of g at y; for the
    separable ``Sum`` that is a soft threshold shifted by the linear term.
    """
    x = as_point(x, g.lin.shape[0])
    w = as_point(w, x.shape[0])
    quad, lin, l1 = _coefficients(g)
    u = w - lin
    return np.sign(u) * np.maximum(np.abs(u) - l1, 0.0) / (2.0 * quad)


def _closed_form(y_star, w, inner_iters) -> SubproblemSolution:
    """The exact pair (y*, w), y* the closed-form solution at (w, x)."""
    return SubproblemSolution(y=y_star, xi=w.copy(), inner_iters=inner_iters,
                              mode_used=InexactMode.EXACT)


def _selection(q2, lin, l1, t):
    # the monotone selection (2 quad) t + lin + l1 sign(t) of the
    # subdifferential of g, sign(0) = 0 at the kink
    return q2 * t + lin + l1 * np.sign(t)


def _row_norms(v):
    """``l2_norm`` of each row of a C-contiguous 2-D array, bit for bit: each
    row's product is the same dot call as a 1-D ``v @ v`` (pinned by a
    test)."""
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


def _bisect_floats(q2, lin, l1, w, x, theta, v_kink, w_l, x_l):
    """``_bisect_arrays`` for finite w and x (``w_l`` and ``x_l`` as lists):
    each coordinate's bracket path in Python floats, and one acceptance
    test in numpy per chunk of steps.  Returns (accepted y or None, steps
    taken)."""
    limit = 2.0**_WIDEN_ROUNDS
    paths = []
    for c, wc, xc in zip(lin.tolist(), w_l, x_l):
        # for finite x, lo <= -1 and hi >= 1 while widening: the selection's
        # sign is known, and the kink capture's lo < 0 < hi holds
        lo, hi, span = min(xc, 0.0) - 1.0, max(xc, 0.0) + 1.0, 1.0
        while span < limit and q2 * lo + c - l1 > wc:
            lo -= span
            span *= 2.0
        span = 1.0
        while span < limit and q2 * hi + c + l1 < wc:
            hi += span
            span *= 2.0
        if abs(wc - c) <= l1:
            lo = hi = 0.0
        paths.append([lo, hi, c, wc])

    it = 0
    while it < _MAX_INNER_ITERS:
        steps = min(_FLOAT_CHUNK, _MAX_INNER_ITERS - it)
        cols, narrow = [], -1
        for path in paths:
            lo, hi, c, wc = path
            col, bit, mask = [], 1, 0
            for _ in range(steps):
                y = 0.5 * (lo + hi)
                col.append(y)
                if hi - lo < 1e-13:
                    mask |= bit
                bit <<= 1
                # the selection, up to a sign of zero no comparison sees
                if q2 * y + c + (l1 if y > 0.0 else -l1 if y < 0.0
                                 else 0.0) > wc:
                    hi = y
                else:
                    lo = y
            path[0], path[1] = lo, hi
            cols.append(col)
            narrow &= mask
        # bit j of narrow: every bracket of step j is narrower than 1e-13
        # (a NaN width is not, as in the max of _bisect_arrays), so no step
        # after the first such one is reached
        rows = (narrow & -narrow).bit_length() or steps
        y = np.array(cols).T[:rows].copy()
        s = _selection(q2, lin, l1, y)
        lhs = _row_norms(np.where(y == 0.0, v_kink, w - s))
        dist = _row_norms(y - x)
        passed = (lhs <= theta * dist) & (dist > 0.0)
        first = int(passed.argmax())
        if passed[first]:
            return y[first], it + first + 1
        it += rows
        if narrow:
            break
    return None, it


def _bisect_arrays(q2, lin, l1, w, x, theta, v_kink):
    """The bisection one whole-array step at a time.  Returns (accepted y
    or None, steps taken)."""
    lo = np.minimum(x, 0.0) - 1.0
    hi = np.maximum(x, 0.0) + 1.0
    span = 1.0
    # widen until the monotone selection brackets w everywhere (s > w is
    # the sign of the rounded residual s - w, which is 0 only at s = w)
    for _ in range(_WIDEN_ROUNDS):
        bad_lo = _selection(q2, lin, l1, lo) > w
        bad_hi = _selection(q2, lin, l1, hi) < w
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
        s = _selection(q2, lin, l1, y)
        lhs = l2_norm(np.where(y == 0.0, v_kink, w - s))
        dist = l2_norm(y - x)
        if lhs <= theta * dist and dist > 0.0:
            return y, it
        if (hi - lo).max() < 1e-13:
            break
        pos = s > w
        lo, hi = np.where(pos, lo, y), np.where(pos, y, hi)
    return None, it


def _solve_inner(g, w, x, theta) -> SubproblemSolution:
    """Coordinate-wise bisection on the stationarity inclusion, stopped at the
    first iterate whose clipped subgradient passes the relative test.

    Each step reads its move and its test off one selection s of the
    subdifferential at y.  Off the kink the box at y is the one point s, so
    w - xi is w - s; at y = 0 it is w - clip(w, box at 0), computed once.
    The bracket moves by s > w (s = lin at y = 0).  Only the accepted
    iterate builds the box and its xi.  For finite coefficients this is the
    box-and-clip step bit for bit, up to signs of zeros that no norm or
    comparison sees (pinned by a test).

    Two paths run the same bisection bit for bit.  Above ``_FLOAT_MAX_DIM``
    or when w or x holds a non-finite value, ``_bisect_arrays`` takes one
    whole-array step at a time.  Otherwise ``_bisect_floats`` runs each
    coordinate's bracket alone in Python floats: the widening, the kink
    capture and ``_FLOAT_CHUNK`` bisection steps at a time.  The coordinates
    never interact: a coordinate stops widening once its bracket holds w,
    so at its own k-th round it moves by the shared span 2^k.  Each step
    only adds, halves, multiplies and compares IEEE doubles, and Python
    floats round these exactly as numpy's elementwise loops do.  The
    acceptance test is then evaluated once per chunk, on the stacked
    iterates and in numpy, because the norms must stay numpy's: the BLAS
    dot behind ``l2_norm`` uses FMA, and on 200,000 random 2-vectors about
    one squared norm in six differs from a Python sum of squares.  The
    first row that passes is the accepted step, and the chunk ends at the
    first step whose brackets are all narrower than 1e-13.

    The crossover is measured per call on recorded inputs, the float path
    against the array path with 24-step chunks (2 vCPU, CPython 3.11, numpy
    2.4.6): 83 against 329 us on the 2,561 study2d calls (dim 2), 236
    against 407 us at dim 16, 344 against 368 us at dim 24, 402 against
    400 us at dim 32 and 576 against 406 us at dim 48 (random-sep, seed 0).
    The float path's cost grows with the dimension times the chunk's steps,
    those past the accepted one included, so dim 16 keeps a wide margin."""
    quad, lin, l1 = _coefficients(g)
    q2 = 2.0 * quad
    # np.clip bit for bit (pinned by a test), without its Python layers
    kink_lo, kink_hi = subdiff_bounds(quad, lin, l1, np.zeros(x.shape[0]))
    v_kink = w - np.minimum(np.maximum(w, kink_lo), kink_hi)
    small = 0 < x.shape[0] <= _FLOAT_MAX_DIM
    w_l, x_l = (w.tolist(), x.tolist()) if small else ([], [])
    if small and all(map(math.isfinite, w_l + x_l)):
        y, it = _bisect_floats(q2, lin, l1, w, x, theta, v_kink, w_l, x_l)
    else:
        y, it = _bisect_arrays(q2, lin, l1, w, x, theta, v_kink)
    if y is None:
        # no iterate passed; fall back to the closed form (covers y* = x,
        # where the caller takes the d = 0 stopping path)
        return _closed_form(solve_exact(g, w, x), w, it)
    box_lo, box_hi = subdiff_bounds(quad, lin, l1, y)
    xi = np.minimum(np.maximum(w, box_lo), box_hi)
    return SubproblemSolution(y=y, xi=xi, inner_iters=it,
                              mode_used=InexactMode.INNER_SOLVER)


def _fails_between(v_hi, e_hi, v_end, e_end, theta) -> bool:
    """Whether every perturbed candidate between two failed end radii fails
    too, read off the ends' v = w - xi and e = y - x alone.

    Between the ends, |e_i| <= E_i, the larger |e_i| of the two ends, and
    |v_i| >= m_i, the smaller of the two where both ends' v_i share a strict
    sign and 0 elsewhere (see ``_solve_perturbed``).  Let u = 2^-53 and n the
    dimension.  A rounded n-term dot product, in any order and with or
    without FMA, is within (1 -+ u)^n of the exact one, and gradual
    underflow adds at most u 2^-1022 per product; fl(m @ m), fl(E @ E) and
    fl(theta sqrt(fl(E @ E))) must be normal (>= 2^-1022) so that the
    underflow terms fold into the factors below.

    Lower bound.  fl(v @ v) >= (1-u)^n v.v - n u 2^-1022 and
    fl(m @ m) <= (1+u)^n m.m + n u (1+u)^n 2^-1022, with v.v >= m.m exactly,
    so fl(v @ v) >= lam fl(m @ m) with
    lam = ((1-u)/(1+u))^n (1 - n u (1+u)^n) - n u.  The two square roots and
    the product by floor then give lhs >= fl(fl(sqrt(fl(m @ m))) floor)
    whenever floor <= G(n) = (1-u) sqrt(lam) / (1+u)^2
    = 1 - (2n + 3) u + O(n^2 u^2).

    Upper bound.  fl(e @ e) <= rho fl(E @ E) with
    rho = ((1+u)/(1-u))^n (1 + n u) + n u (1+u)^n, and the two square roots
    and two products then give rhs <= fl(fl(theta sqrt(fl(E @ E))) slack)
    whenever slack >= F(n) = ((1+u)^2 sqrt(rho) / (1-u) + u (1+u) / (1-u))
    / ((1-u) (1 - u - u (1+u) / (1-u))) = 1 + (2n + 7) u + O(n^2 u^2).

    floor = 1 - 4 (n + 4) u and slack = 1 + 4 (n + 4) u cover G(n) and F(n)
    from n = 1 to 2^50 (checked in 80-digit arithmetic by a test) and are
    exact in floating point.  So when the lower bound exceeds the upper one,
    lhs > rhs at every candidate.  Any non-finite value skips the
    certificate."""
    lo, hi = np.minimum(v_hi, v_end), np.maximum(v_hi, v_end)
    # lo_i > 0 or hi_i < 0 only where both ends share a strict sign
    m = np.maximum(np.maximum(lo, -hi), 0.0)
    m2 = m @ m
    big = np.maximum(np.abs(e_hi), np.abs(e_end))
    e2 = big @ big
    # lo.min() and hi.max() bound every entry of both v
    if not math.isfinite(lo.min() + hi.max() + m2 + e2):
        return False
    bound = theta * math.sqrt(e2)
    step = (v_hi.shape[0] + 4) * 2.0**-51
    normal = sys.float_info.min
    return (m2 >= normal and e2 >= normal and bound >= normal
            and math.sqrt(m2) * (1.0 - step) > bound * (1.0 + step))


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
    the radius, and over many such coordinates the norm of these floors
    exceeds theta ||y - x|| even where no single one does.  Every closed-form
    return reuses the y* solved first.  inner_iters counts the candidates
    evaluated.

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
    quad, lin, l1 = _coefficients(g)
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
        dist = l2_norm(e)
        return l2_norm(v) <= theta * dist and dist > 0.0, (y, xi), v, e

    r_hi = max(1.0, l2_norm(y_star - x))
    ok, sol, v_hi, e_hi = candidate(r_hi)
    if ok:
        return SubproblemSolution(*sol, 1, InexactMode.PERTURBED_EXACT)
    r_end = r_hi * 0.5**_PERTURB_HALVINGS
    ok_end, sol_end, v_end, e_end = candidate(r_end)
    if _fails_between(v_hi, e_hi, v_end, e_end, theta):
        return _closed_form(y_star, w, 2)
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
    return _closed_form(y_star, w, evals)


def solve_inexact(g: Sum, w, x, theta: float, mode: InexactMode,
                  rng=None) -> SubproblemSolution:
    """Produce (y, xi) satisfying the membership and relative-error tests.

    theta = 0 forces the exact solution with xi = w in every mode, since the
    relative test then reads ||w - xi|| = 0.
    """
    x = as_point(x, g.lin.shape[0])
    w = as_point(w, x.shape[0])
    if theta < 0:
        raise ValueError("theta must be nonnegative")
    if mode == InexactMode.EXACT or theta == 0.0:
        return _closed_form(solve_exact(g, w, x), w, 0)
    if mode == InexactMode.INNER_SOLVER:
        return _solve_inner(g, w, x, theta)
    if mode == InexactMode.PERTURBED_EXACT:
        if rng is None:
            raise ValueError("perturbed_exact mode needs an rng")
        return _solve_perturbed(g, w, x, theta, rng)
    raise ValueError(f"unknown inexact mode {mode!r}")
