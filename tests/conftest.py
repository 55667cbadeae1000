import math

import numpy as np
import pytest

from dcboost.convex import L1, Linear, Quadratic, Sum, separable_coefficients


def random_expr(rng, dim, min_quad=0.0, _depth=0):
    """Random atom tree within the separable class; an atom kind may repeat,
    directly or inside a nested Sum."""
    terms = []
    if min_quad > 0 or rng.random() < 0.8:
        terms.append(Quadratic(min_quad + rng.uniform(0.0, 2.0)))
    if rng.random() < 0.8:
        terms.append(Linear(rng.uniform(-2.0, 2.0, dim)))
    if rng.random() < 0.7:
        terms.append(L1(rng.uniform(0.0, 1.5)))
    # second atoms of a kind, which the Sum must aggregate
    if rng.random() < 0.3:
        terms.append(Quadratic(rng.uniform(0.0, 1.0)))
    if rng.random() < 0.3:
        terms.append(Linear(rng.uniform(-1.0, 1.0, dim)))
    if rng.random() < 0.3:
        terms.append(L1(rng.uniform(0.0, 1.0)))
    if _depth == 0 and rng.random() < 0.3:
        terms.append(random_expr(rng, dim, 0.0, _depth=1))
    if not terms:
        terms.append(Quadratic(rng.uniform(0.1, 1.0)))
    return Sum(tuple(terms))


def box_reference(f, x, eps):
    """Subdifferential box of f at x, written out part by part: each present
    part of the compiled Sum is summed into zeros in the order quad, lin, l1.
    ``subdiff_bounds`` must reproduce it bit for bit."""
    s = f if isinstance(f, Sum) else f._sum
    lo, hi = np.zeros_like(x), np.zeros_like(x)
    if s.quad:
        g = 2.0 * s.quad * x
        r = 2.0 * math.sqrt(s.quad * eps)
        lo += g - r
        hi += g + r
    if s.lin is not None:
        lo += s.lin
        hi += s.lin
    if s.l1:
        b = s.l1
        l1_lo, l1_hi = np.full_like(x, -b), np.full_like(x, b)
        pos, neg = x > 0, x < 0
        if eps == 0.0:
            l1_lo[pos] = b
            l1_hi[neg] = -b
        else:
            l1_lo[pos] = np.maximum(-b, b - eps / x[pos])
            l1_hi[neg] = np.minimum(b, -b + eps / (-x[neg]))
        lo += l1_lo
        hi += l1_hi
    return lo, hi


def random_point(rng, dim, kink_prob=0.3, scale=3.0):
    """Random point; some coordinates land exactly on the l1 kink."""
    x = rng.uniform(-scale, scale, dim)
    x[rng.random(dim) < kink_prob] = 0.0
    return x


def kinked_point(rng, dim, scale=3.0):
    """Random point holding every sign of zero and of the smallest subnormal:
    about a tenth each of 0.0, -0.0, 5e-324 and -5e-324."""
    x = rng.uniform(-scale, scale, dim)
    pick = rng.integers(0, 10, dim)
    for k, v in enumerate((0.0, -0.0, 5e-324, -5e-324)):
        x[pick == k] = v
    return x


def grid_argmin(g, w, x, lo=-8.0, hi=8.0):
    """Independent subproblem oracle: minimize g(y) - <w, y - x> per
    coordinate by a coarse grid with two local refinements (~1e-6 step)."""
    dim = x.shape[0]
    quad, lin, l1 = separable_coefficients(g, dim)
    out = np.empty(dim)
    for i in range(dim):
        a, c, b, wi = quad, lin[i], l1, w[i]
        left, right = lo, hi
        for _ in range(3):
            ts = np.linspace(left, right, 4001)
            vals = a * ts**2 + (c - wi) * ts + b * np.abs(ts)
            t = ts[np.argmin(vals)]
            step = (right - left) / 4000.0
            left, right = t - step, t + step
        out[i] = t
    return out


def traces_field_equal(a, b, tol=1e-12):
    """Field-by-field comparison of two traces' records and final state."""
    if len(a.records) != len(b.records):
        return False
    for ra, rb in zip(a.records, b.records):
        for f in ("phi_x", "eps_k", "eps_certified", "d_norm", "inexact_lhs",
                  "inexact_rhs", "nu_k", "lambda_bar", "lambda_k", "phi_y",
                  "phi_next"):
            if abs(getattr(ra, f) - getattr(rb, f)) > tol:
                return False
        if ra.n_backtracks != rb.n_backtracks or ra.k != rb.k:
            return False
        for f in ("x", "w", "y", "xi"):
            if np.max(np.abs(getattr(ra, f) - getattr(rb, f))) > tol:
                return False
        for f in ("tau", "tau_hat"):
            va, vb = getattr(ra, f), getattr(rb, f)
            if (va is None) != (vb is None):
                return False
            if va is not None and abs(va - vb) > tol:
                return False
    return (
        np.max(np.abs(a.final_x - b.final_x)) <= tol
        and abs(a.final_phi - b.final_phi) <= tol
        and a.termination is b.termination
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
