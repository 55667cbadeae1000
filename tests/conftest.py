import math

import numpy as np
import pytest

from dcboost.convex import Sum


def random_expr(rng, dim, min_quad=0.0):
    """Random ``Sum`` in which each part may be absent: a zero quadratic
    weight (unless ``min_quad`` > 0), a zero linear vector or a zero l1
    weight."""
    quad = min_quad + rng.uniform(0.0, 2.0) if min_quad > 0 or \
        rng.random() < 0.8 else 0.0
    lin = rng.uniform(-2.0, 2.0, dim) if rng.random() < 0.8 else np.zeros(dim)
    l1 = rng.uniform(0.0, 1.5) if rng.random() < 0.7 else 0.0
    if not quad and not l1 and not lin.any():
        quad = rng.uniform(0.1, 1.0)
    return Sum(quad, lin, l1)


def box_reference(f, x, eps):
    """Subdifferential box of the Sum f at x, written out part by part: each
    nonzero weight's part and the linear part are summed into zeros in the
    order quad, lin, l1.  ``subdiff_bounds`` must reproduce it bit for
    bit."""
    lo, hi = np.zeros_like(x), np.zeros_like(x)
    if f.quad:
        g = 2.0 * f.quad * x
        r = 2.0 * math.sqrt(f.quad * eps)
        lo += g - r
        hi += g + r
    lo += f.lin
    hi += f.lin
    if f.l1:
        b = f.l1
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
    quad, lin, l1 = g.quad, g.lin, g.l1
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
        for f in ("phi_x", "eps_k", "eps_certified", "nu_k", "lambda_k",
                  "phi_y", "phi_next"):
            if abs(getattr(ra, f) - getattr(rb, f)) > tol:
                return False
        if ra.n_backtracks != rb.n_backtracks or ra.k != rb.k:
            return False
        for f in ("x", "w", "y", "xi"):
            if np.max(np.abs(getattr(ra, f) - getattr(rb, f))) > tol:
                return False
    return (
        np.max(np.abs(a.final_x - b.final_x)) <= tol
        and abs(a.final_phi - b.final_phi) <= tol
        and a.termination is b.termination
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
