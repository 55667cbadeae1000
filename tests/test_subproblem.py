import numpy as np
import pytest

from dcboost.convex import L1, Linear, Quadratic, separable_coefficients
from dcboost.core import InexactMode, UnsupportedProblemError
from dcboost.subproblem import check_inexact, solve_exact, solve_inexact
from dcboost import problems

from conftest import box_reference, grid_argmin, random_expr, random_point


# --- exact solves -----------------------------------------------------------


def test_solve_exact_smooth_example():
    g = Quadratic(1.5) + Linear([1.0, 1.0])
    y = solve_exact(g, np.array([2.0, 2.0]), np.array([1.0, 1.0]))
    np.testing.assert_allclose(y, [1 / 3, 1 / 3], atol=1e-14)
    oracle = grid_argmin(g, np.array([2.0, 2.0]), np.array([1.0, 1.0]))
    np.testing.assert_allclose(y, oracle, atol=1e-4)


def test_solve_exact_pure_quadratic():
    y = solve_exact(Quadratic(0.5), np.zeros(2), np.zeros(2))
    np.testing.assert_allclose(y, [0.0, 0.0])


def test_solve_exact_soft_threshold_example():
    g = problems.resolve("ex2").g
    y = solve_exact(g, np.zeros(2), np.zeros(2))
    np.testing.assert_allclose(y, [0.75, 0.0], atol=1e-14)
    oracle = grid_argmin(g, np.zeros(2), np.zeros(2))
    np.testing.assert_allclose(y, oracle, atol=1e-4)


def test_solve_exact_needs_curvature():
    with pytest.raises(UnsupportedProblemError):
        solve_exact(L1(1.0), np.zeros(2), np.zeros(2))


def test_solve_exact_matches_grid_search(rng):
    for _ in range(25):
        dim = int(rng.integers(1, 3))
        g = random_expr(rng, dim, min_quad=0.25)
        w = rng.uniform(-3, 3, dim)
        x = random_point(rng, dim)
        y = solve_exact(g, w, x)
        np.testing.assert_allclose(y, grid_argmin(g, w, x), atol=1e-4)


def test_solve_exact_stationarity_membership(rng):
    # w must lie in the subdifferential box of g at the returned point
    for _ in range(100):
        dim = int(rng.integers(1, 5))
        g = random_expr(rng, dim, min_quad=0.25)
        w = rng.uniform(-3, 3, dim)
        x = random_point(rng, dim)
        y = solve_exact(g, w, x)
        chk = check_inexact(g, w, x, y, w, theta=0.0)
        assert chk.ok, (chk.lhs, chk.rhs, chk.membership_gap)


# --- inexact solves -----------------------------------------------------------


def test_exact_mode_returns_w_as_xi(rng):
    g = problems.resolve("ex1").g
    w, x = np.array([2.0, 2.0]), np.array([1.0, 1.0])
    sol = solve_inexact(g, w, x, theta=0.2, mode=InexactMode.EXACT, rng=rng)
    np.testing.assert_allclose(sol.y, [1 / 3, 1 / 3], atol=1e-14)
    np.testing.assert_array_equal(sol.xi, w)
    assert sol.lhs == 0.0


def test_perturbed_mode_moves_off_the_exact_solution(rng):
    g = problems.resolve("ex1").g
    w, x = np.array([2.0, 2.0]), np.array([1.0, 1.0])
    sol = solve_inexact(g, w, x, theta=0.2, mode=InexactMode.PERTURBED_EXACT, rng=rng)
    assert np.linalg.norm(sol.y - np.array([1 / 3, 1 / 3])) > 1e-6
    assert sol.lhs <= 0.2 * np.linalg.norm(sol.y - x) + 1e-12
    assert check_inexact(g, w, x, sol.y, sol.xi, 0.2).ok


@pytest.mark.parametrize(
    "mode", [InexactMode.INNER_SOLVER, InexactMode.PERTURBED_EXACT, InexactMode.EXACT]
)
def test_theta_zero_collapses_to_exact(rng, mode):
    g = problems.resolve("ex2").g
    w, x = np.array([0.5, -0.25]), np.array([2.0, 1.0])
    sol = solve_inexact(g, w, x, theta=0.0, mode=mode, rng=rng)
    np.testing.assert_allclose(sol.y, solve_exact(g, w, x), atol=1e-15)
    np.testing.assert_array_equal(sol.xi, w)


@pytest.mark.parametrize(
    "mode", [InexactMode.INNER_SOLVER, InexactMode.PERTURBED_EXACT, InexactMode.EXACT]
)
def test_all_modes_pass_their_own_acceptance(rng, mode):
    for _ in range(100):
        dim = int(rng.integers(1, 4))
        g = random_expr(rng, dim, min_quad=0.25)
        w = rng.uniform(-3, 3, dim)
        x = random_point(rng, dim)
        theta = float(rng.uniform(0.05, 0.45)) * g.modulus()
        sol = solve_inexact(g, w, x, theta, mode, rng)
        chk = check_inexact(g, w, x, sol.y, sol.xi, theta)
        assert chk.ok, (mode, chk)


def test_linearization_consequence(rng):
    # any certified pair satisfies g(x) >= g(y) - <w, y - x>
    for mode in InexactMode:
        for _ in range(50):
            dim = int(rng.integers(1, 4))
            g = random_expr(rng, dim, min_quad=0.25)
            w = rng.uniform(-3, 3, dim)
            x = random_point(rng, dim)
            theta = float(rng.uniform(0.0, 0.45)) * g.modulus()
            sol = solve_inexact(g, w, x, theta, mode, rng)
            assert g.value(x) >= g.value(sol.y) - w @ (sol.y - x) - 1e-10


def test_inner_solver_reports_iterations(rng):
    g = problems.resolve("ex2").g
    sol = solve_inexact(
        g, np.array([1.0, 0.5]), np.array([-3.0, 4.0]), 0.2,
        InexactMode.INNER_SOLVER, rng,
    )
    assert sol.mode_used is InexactMode.INNER_SOLVER
    assert sol.inner_iters >= 1


def test_inner_iters_count_the_work_done(rng):
    g = Quadratic(0.5)
    x = np.array([1.0, 1.0])
    w = x.copy()  # the exact solution is x, so no inner iterate can pass
    sol = solve_inexact(g, w, x, 0.2, InexactMode.INNER_SOLVER, rng)
    # the bracket collapses long before the iteration cap
    assert sol.mode_used is InexactMode.EXACT
    assert 1 < sol.inner_iters < 100
    # theta >= 1 accepts the first perturbed candidate, at distance 1 from x
    sol = solve_inexact(g, w, x, 2.0, InexactMode.PERTURBED_EXACT, rng)
    assert sol.mode_used is InexactMode.PERTURBED_EXACT
    assert sol.inner_iters == 1
    assert solve_inexact(g, w, x, 0.2, InexactMode.EXACT).inner_iters == 0


def test_critical_start_returns_zero_direction(rng):
    # w already a subgradient of g at x: the exact solution is x itself and
    # every mode reports the zero-direction pair
    g = Quadratic(0.5)
    x = np.zeros(2)
    w = np.zeros(2)
    for mode in InexactMode:
        sol = solve_inexact(g, w, x, theta=0.2, mode=mode, rng=rng)
        np.testing.assert_allclose(sol.y, x, atol=1e-15)
        assert sol.lhs == 0.0 and sol.rhs == 0.0


# --- the standalone checker -----------------------------------------------------


def test_check_inexact_flags_relative_error():
    g = problems.resolve("ex1").g
    w, x = np.array([2.0, 2.0]), np.array([1.0, 1.0])
    y = solve_exact(g, w, x)
    xi = g.subgrad(y)
    bad = xi + (0.2 * np.linalg.norm(y - x) + 0.1) * np.array([1.0, 0.0])
    chk = check_inexact(g, w, x, y, bad, theta=0.2)
    assert not chk.ok
    assert chk.lhs > chk.rhs


def test_check_inexact_flags_membership():
    g = problems.resolve("ex1").g
    w, x = np.array([2.0, 2.0]), np.array([1.0, 1.0])
    y = solve_exact(g, w, x)
    xi = g.subgrad(y) + 1e-3
    chk = check_inexact(g, w, x, y, xi, theta=1e9)
    assert not chk.ok
    assert chk.membership_gap >= 1e-3 - 1e-12


def test_check_inexact_accepts_exact_pair():
    g = problems.resolve("ex2").g
    w, x = np.array([0.3, 0.1]), np.array([1.0, -2.0])
    y = solve_exact(g, w, x)
    chk = check_inexact(g, w, x, y, w, theta=0.0)
    assert chk.ok and chk.lhs == 0.0


def _inner_reference(g, w, x, theta):
    """The inner bisection written with the box arithmetic and the
    stationarity residual spelled out: each step clips w into the box at y
    and moves the bracket by the residual's sign.  Returns (y, xi, lhs, rhs,
    iterations), y None when no iterate passed."""
    quad, lin, l1 = separable_coefficients(g, x.shape[0])

    def residual(t):
        return 2.0 * quad * t + lin + l1 * np.sign(t) - w

    lo = np.minimum(x, 0.0) - 1.0
    hi = np.maximum(x, 0.0) + 1.0
    span = 1.0
    for _ in range(80):
        bad_lo, bad_hi = residual(lo) > 0, residual(hi) < 0
        if not bad_lo.any() and not bad_hi.any():
            break
        lo[bad_lo] -= span
        hi[bad_hi] += span
        span *= 2.0
    at_kink = (lo < 0.0) & (hi > 0.0) & (np.abs(w - lin) <= l1)
    lo[at_kink] = hi[at_kink] = 0.0
    for it in range(1, 201):
        y = 0.5 * (lo + hi)
        xi = np.clip(w, *box_reference(g, y, 0.0))
        lhs = float(np.linalg.norm(w - xi))
        dist = float(np.linalg.norm(y - x))
        if lhs <= theta * dist and dist > 0.0:
            return y, xi, lhs, theta * dist, it
        if float(np.max(hi - lo)) < 1e-13:
            break
        pos = residual(y) > 0
        hi[pos] = y[pos]
        lo[~pos] = y[~pos]
    return None, None, None, None, it


def test_inner_solver_matches_reference_bit_for_bit(rng):
    # w = fl(lin - l1) lies just below lin - l1: off the kink, yet equal to
    # the box's lower end at 0, so the first step (y = 0) must take the
    # residual's sign from lin, not from the box; the second step passes
    lin, l1 = -1.234704295771199, 0.13151339987163393
    cases = [(Quadratic(0.05) + Linear([lin]) + L1(l1), np.array([lin - l1]),
              np.zeros(1))]
    for _ in range(200):
        dim = int(rng.integers(1, 5))
        cases.append((random_expr(rng, dim, min_quad=0.25),
                      rng.uniform(-3, 3, dim), random_point(rng, dim)))
    for g, w, x in cases:
        for theta in (0.05, 0.2, 0.45):
            sol = solve_inexact(g, w, x, theta, InexactMode.INNER_SOLVER)
            y, xi, lhs, rhs, iters = _inner_reference(g, w, x, theta)
            assert sol.inner_iters == iters
            if y is None:
                assert sol.mode_used is InexactMode.EXACT
                continue
            assert sol.y.tobytes() == y.tobytes()
            assert sol.xi.tobytes() == xi.tobytes()
            assert (sol.lhs, sol.rhs) == (lhs, rhs)
