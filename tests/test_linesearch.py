import math

import numpy as np
import pytest

from dcboost.convex import Sum
from dcboost.core import InexactMode, InvariantViolation
from dcboost.linesearch import nonmonotone_search, tau_bound
from dcboost.subproblem import solve_inexact
from dcboost import problems

from conftest import random_expr, random_point


EX1 = problems.resolve("ex1")
Y = np.array([1 / 3, 1 / 3])
D = np.array([-2 / 3, -2 / 3])


def test_full_step_accepted_on_reference_state():
    # phi(y) = 2/9, phi(y + d) = -10/9 <= 2/9 - 0.6 * 8/9
    res = nonmonotone_search(EX1.phi, Y, D, EX1.phi(Y), rho=0.6, beta=0.1,
                             lambda_bar=1.0, nu=0.0, max_backtracks=60)
    assert res.lam == 1.0
    assert res.n_backtracks == 0
    assert res.accepted_value == pytest.approx(-10 / 9, abs=1e-14)


def test_zero_trial_step_returns_immediately():
    res = nonmonotone_search(EX1.phi, Y, D, EX1.phi(Y), 0.6, 0.1,
                             lambda_bar=0.0, nu=0.0, max_backtracks=60)
    assert res.lam == 0.0 and res.n_backtracks == 0
    assert res.accepted_value == pytest.approx(EX1.phi(Y))


def test_huge_allowance_accepts_trial_step():
    res = nonmonotone_search(EX1.phi, Y, D, EX1.phi(Y), 0.6, 0.1,
                             lambda_bar=1.0, nu=1e6, max_backtracks=60)
    assert res.lam == 1.0 and res.n_backtracks == 0


def test_zero_direction_rejected():
    with pytest.raises(ValueError, match="zero direction"):
        nonmonotone_search(EX1.phi, Y, np.zeros(2), EX1.phi(Y), 0.6, 0.1, 1.0,
                           0.0, 60)


def test_exhausted_budget_falls_back_to_zero():
    # an objective that only accepts lambda = 0 under nu = 0: phi increasing
    # along +d from y with no quadratic help
    phi = lambda p: float(abs(p[0]))
    y = np.array([0.0])
    d = np.array([1.0])
    res = nonmonotone_search(phi, y, d, phi(y), rho=0.0, beta=0.5,
                             lambda_bar=1.0, nu=0.0, max_backtracks=5)
    assert res.lam == 0.0
    assert res.n_backtracks == 6


def test_determinism():
    a = nonmonotone_search(EX1.phi, Y, D, EX1.phi(Y), 0.6, 0.1, 1.0, 0.01, 60)
    b = nonmonotone_search(EX1.phi, Y, D, EX1.phi(Y), 0.6, 0.1, 1.0, 0.01, 60)
    assert a == b


@pytest.mark.parametrize("lambda_bar, want_backtracks, n_known", [
    # the full step is accepted at once
    pytest.param(1.0, 0, 0, id="1.0-0"),
    # 50 and 5 fail, 0.5 is accepted
    pytest.param(50.0, 2, 0, id="50.0-2"),
    # the same searches given phi at the first two trial points
    pytest.param(1.0, 0, 2, id="1.0-0-known2"),
    pytest.param(50.0, 2, 2, id="50.0-2-known2"),
])
def test_accepted_lambda_is_the_last_evaluated_point(lambda_bar,
                                                     want_backtracks,
                                                     n_known):
    # phi_eval is called only past the ``known`` trial values, and the
    # accepted value is phi at y + lambda d, the last trial examined
    seen = []

    def phi(p):
        seen.append(p.copy())
        return EX1.phi(p)

    known = [EX1.phi(Y + lambda_bar * 0.1**j * D) for j in range(n_known)]
    res = nonmonotone_search(phi, Y, D, EX1.phi(Y), 0.6, 0.1, lambda_bar, 0.0,
                             60, known=known)
    assert res.lam != 0.0 and res.n_backtracks == want_backtracks
    assert len(seen) == max(want_backtracks + 1 - n_known, 0)
    if seen:
        assert seen[-1].tobytes() == (Y + res.lam * D).tobytes()
    assert res.accepted_value == EX1.phi(Y + res.lam * D)


# --- the guaranteed floor ------------------------------------------------------


def test_tau_reference_state_by_hand():
    # denominator g(y+d) + g(x) - 2 g(y) = -1/3 + 5 - 2 = 8/3
    nu = 0.01 * (8 / 9)
    tb = tau_bound(EX1.g, np.array([1.0, 1.0]), Y, D, nu=nu, eps=0.0,
                   sigma=1.0, rho=0.6)
    assert tb.tau_hat == pytest.approx(nu / (8 / 3), rel=1e-12)
    assert tb.tau == pytest.approx(min(1.0, nu / (8 / 3), 1.0 / 0.6), rel=1e-12)


def test_tau_symmetric_quadratic_hits_equality():
    # for g = (sigma/2)||.||^2 the bracket equals sigma ||d||^2 exactly
    g = Sum(0.5, np.zeros(2), 0.0)
    x = np.array([1.0, -2.0])
    y = np.array([0.25, 0.5])
    d = y - x
    nu, eps = 0.3, 0.1
    tb = tau_bound(g, x, y, d, nu, eps, sigma=1.0, rho=0.6)
    assert tb.tau_hat == pytest.approx(nu / (float(d @ d) + eps), rel=1e-12)


def test_tau_large_allowance_caps_at_sigma_over_rho():
    tb = tau_bound(EX1.g, np.array([1.0, 1.0]), Y, D, nu=1e12, eps=0.0,
                   sigma=1.0, rho=0.6)
    assert tb.tau == pytest.approx(1.0)
    tb2 = tau_bound(EX1.g, np.array([1.0, 1.0]), Y, D, nu=1e12, eps=0.0,
                    sigma=1.0, rho=4.0)
    assert tb2.tau == pytest.approx(0.25)


def test_tau_bracket_survives_tiny_steps_at_high_dim():
    # g(y+d) + g(x) - 2 g(y) from three values of size ~3e3 used to cancel
    # to 0.0 here and raise "tau denominator 0.0 is not positive"
    prob = problems.random_separable(1000, 0)
    rng = np.random.default_rng(0)
    for _ in range(200):
        x = rng.uniform(-10.0, 10.0, 1000)
        d = 1e-8 * rng.standard_normal(1000)
        tb = tau_bound(prob.g, x, x + d, d, nu=1e-3, eps=0.0,
                       sigma=prob.sigma, rho=0.6)
        # no coordinate crosses the l1 kink, so only the quadratic part counts
        assert tb.tau_hat == pytest.approx(
            1e-3 / (prob.g.modulus() * float(d @ d)), rel=1e-12)


def test_tau_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        tau_bound(EX1.g, Y, Y, np.zeros(2), 0.1, 0.0, 1.0, 0.6)
    with pytest.raises(ValueError):
        tau_bound(EX1.g, np.array([1.0, 1.0]), Y, D, 0.0, 0.0, 1.0, 0.6)


def _random_step_state(rng):
    """A legitimate iteration state: problem, x, certified (w, y, xi)."""
    dim = int(rng.integers(1, 4))
    g = random_expr(rng, dim, min_quad=0.3)
    h = random_expr(rng, dim, min_quad=0.3)
    sigma = min(g.modulus(), h.modulus())
    x = random_point(rng, dim)
    eps = float(rng.uniform(0.0, 0.05))
    cert = h.eps_subgrad(x, eps, rng)
    theta = float(rng.uniform(0.0, 0.49)) * sigma
    mode = rng.choice(list(InexactMode))
    sol = solve_inexact(g, cert.w, x, theta, mode, rng)
    return g, h, sigma, x, cert, sol, eps


def test_guarantee_holds_at_tau_and_half(rng):
    checked = 0
    while checked < 100:
        g, h, sigma, x, cert, sol, eps = _random_step_state(rng)
        d = sol.y - x
        d_sq = float(d @ d)
        if d_sq < 1e-16:
            continue
        nu = float(rng.uniform(1e-6, 0.5))
        rho = float(rng.uniform(0.1, 2.0))
        tb = tau_bound(g, x, sol.y, d, nu, eps, sigma, rho)
        phi = lambda p: g.value(p) - h.value(p)
        for lam in (tb.tau, tb.tau / 2):
            lhs = phi(sol.y + lam * d)
            rhs = phi(sol.y) - rho * lam * lam * d_sq + nu
            assert lhs <= rhs + 1e-10, (lam, lhs - rhs)
        checked += 1


def test_backtrack_count_bounded_by_tau(rng):
    checked = 0
    while checked < 50:
        g, h, sigma, x, cert, sol, eps = _random_step_state(rng)
        d = sol.y - x
        if float(d @ d) < 1e-16:
            continue
        nu = float(rng.uniform(1e-6, 0.5))
        rho, beta, lambda_bar = 0.6, 0.5, 1.0
        tb = tau_bound(g, x, sol.y, d, nu, eps, sigma, rho)
        phi = lambda p: g.value(p) - h.value(p)
        res = nonmonotone_search(phi, sol.y, d, phi(sol.y), rho, beta,
                                 lambda_bar, nu, 200)
        bound = max(0, math.ceil(math.log(min(tb.tau, lambda_bar) / lambda_bar)
                                 / math.log(beta))) + 1
        assert res.n_backtracks <= bound
        checked += 1


def test_tau_detects_broken_oracle():
    # claiming a larger modulus than the oracle has must trip the bracket check
    g = Sum(0.5, np.zeros(2), 0.0)
    x = np.array([1.0, -2.0])
    y = np.array([0.25, 0.5])
    with pytest.raises(InvariantViolation, match="bracket"):
        tau_bound(g, x, y, y - x, nu=0.1, eps=0.0, sigma=5.0, rho=0.6)
