import decimal

import numpy as np
import pytest

from dcboost.certificates import holds, slack_columns
from dcboost.convex import Sum, l2_norm
from dcboost.core import (DcProblem, InexactMode, IterationRecord,
                          SolverConfig, UnsupportedProblemError,
                          record_columns)
from dcboost.drivers import run_inmbdca
from dcboost.subproblem import (_FLOAT_MAX_DIM, _fails_between, solve_exact,
                                 solve_inexact)
from dcboost import drivers, problems, subproblem

from conftest import (box_reference, grid_argmin, kinked_point, random_expr,
                      random_point)


def _pair_slacks(g, w, x, y, xi, theta):
    """The ``subgrad_membership`` and ``inexact_bound`` slacks of a record
    holding the pair (y, xi) solved at (w, x), by the checker of a run;
    the other fields are 0."""
    record = IterationRecord(
        k=0, x=x, phi_x=0.0, eps_k=0.0, eps_certified=0.0, w=w, y=y, xi=xi,
        nu_k=0.0, lambda_k=0.0, n_backtracks=0, phi_y=0.0, phi_next=0.0)
    problem = DcProblem("pair", g, g, x.shape[0], g.modulus())
    s = slack_columns(record_columns([record], x.shape[0]), problem,
                      SolverConfig(theta=theta), y)
    return s["subgrad_membership"][0], s["inexact_bound"][0]


def _accepted(g, w, x, y, xi, theta):
    """Whether the record of the pair passes both of its certificates."""
    gap, bound = _pair_slacks(g, w, x, y, xi, theta)
    return holds("subgrad_membership", gap) and holds("inexact_bound", bound)


# --- exact solves -----------------------------------------------------------


def test_solve_exact_smooth_example():
    g = Sum(1.5, [1.0, 1.0], 0.0)
    y = solve_exact(g, np.array([2.0, 2.0]), np.array([1.0, 1.0]))
    np.testing.assert_allclose(y, [1 / 3, 1 / 3], atol=1e-14)
    oracle = grid_argmin(g, np.array([2.0, 2.0]), np.array([1.0, 1.0]))
    np.testing.assert_allclose(y, oracle, atol=1e-4)


def test_solve_exact_pure_quadratic():
    y = solve_exact(Sum(0.5, np.zeros(2), 0.0), np.zeros(2), np.zeros(2))
    np.testing.assert_allclose(y, [0.0, 0.0])


def test_solve_exact_soft_threshold_example():
    g = problems.resolve("ex2").g
    y = solve_exact(g, np.zeros(2), np.zeros(2))
    np.testing.assert_allclose(y, [0.75, 0.0], atol=1e-14)
    oracle = grid_argmin(g, np.zeros(2), np.zeros(2))
    np.testing.assert_allclose(y, oracle, atol=1e-4)


def test_solve_exact_needs_curvature():
    with pytest.raises(UnsupportedProblemError):
        solve_exact(Sum(0.0, np.zeros(2), 1.0), np.zeros(2), np.zeros(2))


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
        assert _accepted(g, w, x, y, w, 0.0), _pair_slacks(g, w, x, y, w, 0.0)


# --- inexact solves -----------------------------------------------------------


def test_min_max_clip_matches_np_clip_bit_for_bit(rng):
    # the solvers clip w into the bounds as np.minimum(np.maximum(w, lo), hi),
    # which numpy does not document as equal to np.clip: pin it on signed
    # zeros, NaN in w and degenerate boxes, at dim 2 and past numpy's SIMD
    # and blocked loops
    ends = [-1.0, -0.0, 0.0, 1.0]
    triples = [(w, lo, hi) for w in ends + [np.nan] for lo in ends
               for hi in ends if lo <= hi]
    for dim in (2, 1000):
        for _ in range(60):
            pick = rng.integers(0, len(triples), dim)
            w, lo, hi = (np.array(col) for col in zip(*(triples[i] for i in pick)))
            lo[::5] = hi[::5]  # lo == hi, with the signs each end has
            for v in (w, w * rng.uniform(0.5, 2.0, dim)):
                assert (np.minimum(np.maximum(v, lo), hi).tobytes()
                        == np.clip(v, lo, hi).tobytes())


def _perturbed_reference(g, w, x, theta, rng):
    """The perturbed solve written with np.clip, the written-out box and
    np.linalg.norm, evaluating every candidate: the largest halving of a
    random-direction radius whose candidate passes the relative test, else
    the closed form.  Returns (y, xi, mode, scale), scale the returned
    candidate's radius over the first one's (None for the closed form)."""
    y_star = solve_exact(g, w, x)
    u = rng.standard_normal(x.shape[0])
    norm = float(np.linalg.norm(u))
    assert norm > 0.0
    u = u / norm

    def candidate(r):
        y = y_star + r * u
        xi = np.clip(w, *box_reference(g, y, 0.0))
        lhs = float(np.linalg.norm(w - xi))
        dist = float(np.linalg.norm(y - x))
        return lhs <= theta * dist and dist > 0.0, (y, xi)

    r_first = r_hi = max(1.0, float(np.linalg.norm(y_star - x)))
    ok, sol = candidate(r_hi)
    if ok:
        return (*sol, InexactMode.PERTURBED_EXACT, 1.0)
    r_lo, best = 0.0, None
    for _ in range(40):
        mid = 0.5 * (r_lo + r_hi)
        ok, sol = candidate(mid)
        if ok:
            r_lo, best = mid, sol
        else:
            r_hi = mid
    if best is None:
        return y_star, w.copy(), InexactMode.EXACT, None
    return (*best, InexactMode.PERTURBED_EXACT, r_lo / r_first)


def _perturbed_path(g, w, x, theta, seed):
    """Solve in perturbed_exact mode and with the reference on the same
    seeded draws, compare the two bit for bit, and name the path the solve
    took."""
    sol = solve_inexact(g, w, x, theta, InexactMode.PERTURBED_EXACT,
                        np.random.default_rng(seed))
    y, xi, mode, scale = _perturbed_reference(
        g, w, x, theta, np.random.default_rng(seed))
    assert sol.mode_used is mode
    assert sol.y.tobytes() == y.tobytes()
    assert sol.xi.tobytes() == xi.tobytes()
    if scale is None:
        # no candidate passes: the closed form, after the two end radii
        # when the certificate proves it, else after all 41 candidates
        assert sol.inner_iters in (2, 41)
        return "certified" if sol.inner_iters == 2 else "searched"
    if scale == 1.0:
        assert sol.inner_iters == 1
        return "first"
    # the end radius r_hi 2^-40 is evaluated before the halvings and reused
    # by the last one, which reaches it only when every earlier one failed
    assert sol.inner_iters == (41 if scale == 2.0**-40 else 42)
    return "halved"


def test_perturbed_solver_matches_reference_bit_for_bit(rng):
    # w = x on a pure quadratic makes the exact solution x itself, so no
    # candidate passes and the solve falls back to the closed form
    cases = [(Sum(0.5, np.zeros(2), 0.0), np.array([1.0, 1.0]),
              np.array([1.0, 1.0]))]
    for _ in range(200):
        dim = int(rng.integers(1, 5))
        cases.append((random_expr(rng, dim, min_quad=0.25),
                      rng.uniform(-3, 3, dim), random_point(rng, dim)))
    cases += _wide_cases()
    paths = set()
    for i, (g, w, x) in enumerate(cases):
        for theta in (0.05, 0.2, 0.45, 2.0):
            paths.add(_perturbed_path(g, w, x, theta, i))
    assert paths == {"first", "halved", "certified", "searched"}


def _kinked_cases(rng):
    """(g, w, x) whose exact solution has l1 kinks with w strictly inside the
    kink interval: the solution is built as a ``kinked_point``, w is strictly
    inside [lin - l1, lin + l1] where it holds a zero or a subnormal and
    satisfies stationarity elsewhere, and x is the solution plus another
    kinked point, of scale 3 or, as near the end of a run, 0.01."""
    cases = []
    for dim, count in ((1, 30), (2, 30), (3, 30), (4, 30), (5, 30), (50, 12),
                       (1000, 4)):
        for _ in range(count):
            f = random_expr(rng, dim, min_quad=0.25)
            g = Sum(f.quad, f.lin, f.l1 + rng.uniform(0.1, 1.0))
            quad, lin, l1 = g.quad, g.lin, g.l1
            target = kinked_point(rng, dim)
            w = 2.0 * quad * target + lin + l1 * np.sign(target)
            kink = np.abs(target) < 1e-300
            w[kink] = lin[kink] + l1 * rng.uniform(-0.99, 0.99, kink.sum())
            scale = 3.0 if len(cases) % 2 else 0.01
            cases.append((g, w, target + kinked_point(rng, dim, scale)))
    return cases


def test_perturbed_certificate_matches_reference_bit_for_bit(rng):
    # every path against the reference, which evaluates all 41 candidates;
    # a certificate that fires where some candidate passes returns the closed
    # form where the reference returns that candidate, and fails here
    paths, certified_dims = set(), set()
    for i, (g, w, x) in enumerate(_kinked_cases(rng)):
        for theta in (0.05, 0.2, 0.45, 2.0):
            path = _perturbed_path(g, w, x, theta, i)
            paths.add(path)
            if path == "certified":
                certified_dims.add(x.shape[0])
    assert paths == {"first", "halved", "certified", "searched"}
    assert certified_dims == {1, 2, 3, 4, 5, 50, 1000}

    # Two one-dimensional cases where the end radii nearly certify a search
    # that does find a passing candidate.  Seed 0 draws a positive direction.
    assert np.random.default_rng(0).standard_normal(1)[0] > 0.0
    # The solution is the kink 0, w is 0.12 (1 - 1e-4) inside the interval's
    # upper end, and x = 0.6: |w - xi| = 0.119988 + r and |y - x| = 0.6 - r
    # for small r, so the ends bound the candidates within 1e-4 of the test's
    # threshold, and r = 2^-17 passes.  A slack below 1 or a bound on
    # |y - x| from the ends' smaller value certifies it.
    g = Sum(0.5, [0.0], 1.0)
    w = np.array([1.0 - 0.12 * (1.0 - 1e-4)])
    assert _perturbed_path(g, w, np.array([0.6]), 0.2, 0) == "halved"
    # At 2^52 the box lands on integers: the closed-form solution y* gets
    # |w - xi| = 1, the next float above y* gets 0, and r_hi = 16 moves y*
    # four floats up, where w - xi = -2.  w - xi changes sign between the
    # ends, so nothing bounds it away from 0 between them; a certificate
    # that takes the smaller |w - xi| of the ends regardless of sign fires.
    g = Sum(0.1, [0.5], 0.75)
    w = np.array([2.0**52 + 1.0])
    x = solve_exact(g, w, np.zeros(1)) + 16.0
    assert _perturbed_path(g, w, x, 0.05, 0) == "halved"


def test_certificate_slack_covers_the_rounding_bound():
    # F(n) from the derivation in _fails_between's docstring, in 80-digit
    # arithmetic, against the slack 1 + 4 (n + 4) 2^-53 it uses; the
    # first-order term 2n + 7 leaves the rest of the slack for the O(n^2 u^2)
    # remainder
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        u = decimal.Decimal(2) ** -53
        for n in [1, 2, 3, 4, 5, 50, 1000] + [2**k for k in range(4, 51, 2)]:
            rho = ((1 + u) / (1 - u)) ** n * (1 + n * u) + n * u * (1 + u) ** n
            f = (((1 + u) ** 2 * rho.sqrt() / (1 - u) + u * (1 + u) / (1 - u))
                 / ((1 - u) * (1 - u - u * (1 + u) / (1 - u))))
            slack = 1.0 + (n + 4) * 2.0**-51
            assert decimal.Decimal(slack) == 1 + 4 * (n + 4) * u  # exact
            assert f <= decimal.Decimal(slack), n
            # the lower bound's G(n) against its floor 1 - 4 (n + 4) 2^-53,
            # first-order term 2n + 3
            lam = (((1 - u) / (1 + u)) ** n * (1 - n * u * (1 + u) ** n)
                   - n * u)
            g = (1 - u) * lam.sqrt() / (1 + u) ** 2
            floor = 1.0 - (n + 4) * 2.0**-51
            assert decimal.Decimal(floor) == 1 - 4 * (n + 4) * u  # exact
            assert decimal.Decimal(floor) <= g, n
            # the pass direction's factors: (1 + u)^2 sqrt(rho) below the
            # slack (first-order term 2n + 2) and G(n) - u above the floor
            # (2n + 4)
            assert (1 + u) ** 2 * rho.sqrt() <= decimal.Decimal(slack), n
            assert decimal.Decimal(floor) <= g - u, n


def test_exact_mode_returns_w_as_xi(rng):
    g = problems.resolve("ex1").g
    w, x = np.array([2.0, 2.0]), np.array([1.0, 1.0])
    sol = solve_inexact(g, w, x, theta=0.2, mode=InexactMode.EXACT, rng=rng)
    np.testing.assert_allclose(sol.y, [1 / 3, 1 / 3], atol=1e-14)
    np.testing.assert_array_equal(sol.xi, w)


def test_perturbed_mode_moves_off_the_exact_solution(rng):
    g = problems.resolve("ex1").g
    w, x = np.array([2.0, 2.0]), np.array([1.0, 1.0])
    sol = solve_inexact(g, w, x, theta=0.2, mode=InexactMode.PERTURBED_EXACT, rng=rng)
    assert np.linalg.norm(sol.y - np.array([1 / 3, 1 / 3])) > 1e-6
    assert l2_norm(w - sol.xi) <= 0.2 * np.linalg.norm(sol.y - x) + 1e-12
    assert _accepted(g, w, x, sol.y, sol.xi, 0.2)


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
        assert _accepted(g, w, x, sol.y, sol.xi, theta), (
            mode, _pair_slacks(g, w, x, sol.y, sol.xi, theta))


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
    g = Sum(0.5, np.zeros(2), 0.0)
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
    g = Sum(0.5, np.zeros(2), 0.0)
    x = np.zeros(2)
    w = np.zeros(2)
    for mode in InexactMode:
        sol = solve_inexact(g, w, x, theta=0.2, mode=mode, rng=rng)
        np.testing.assert_array_equal(sol.y, x)
        np.testing.assert_array_equal(sol.xi, w)


# --- the certificates of a record's pair -----------------------------------------
# (y, xi) is checked as a record holding it: the inexact_bound slack
# recomputes both norms from w, xi, y and x


def test_check_inexact_flags_relative_error():
    g = problems.resolve("ex1").g
    w, x = np.array([2.0, 2.0]), np.array([1.0, 1.0])
    y = solve_exact(g, w, x)
    xi = g.subgrad(y)
    bad = xi + (0.2 * np.linalg.norm(y - x) + 0.1) * np.array([1.0, 0.0])
    gap, bound = _pair_slacks(g, w, x, y, bad, 0.2)
    assert not holds("inexact_bound", bound)
    assert bound < -0.1 + 1e-12


def test_check_inexact_flags_membership():
    g = problems.resolve("ex1").g
    w, x = np.array([2.0, 2.0]), np.array([1.0, 1.0])
    y = solve_exact(g, w, x)
    xi = g.subgrad(y) + 1e-3
    gap, bound = _pair_slacks(g, w, x, y, xi, 1e9)
    assert not holds("subgrad_membership", gap)
    assert holds("inexact_bound", bound)
    assert -gap >= 1e-3 - 1e-12


def test_check_inexact_accepts_exact_pair():
    g = problems.resolve("ex2").g
    w, x = np.array([0.3, 0.1]), np.array([1.0, -2.0])
    y = solve_exact(g, w, x)
    assert _accepted(g, w, x, y, w, 0.0)
    assert _pair_slacks(g, w, x, y, w, 0.0)[1] == 0.0


def _kinked_case(rng, g):
    """(g, w, x): x holds every sign of zero and of 5e-324, and w puts some
    coordinates' solutions exactly on the kink (w = lin), at either end of
    the kink's interval (w = fl(lin -+ l1)) or at a signed zero."""
    dim = g.lin.shape[0]
    c, b = g.lin, g.l1
    w = rng.uniform(-3.0, 3.0, dim)
    pick = rng.integers(0, 10, dim)
    for k, v in enumerate((c, c - b, c + b, np.zeros(dim), -np.zeros(dim))):
        w[pick == k] = v[pick == k]
    return g, w, kinked_point(rng, dim)


def _wide_cases(seed=1000, dim=1000):
    """Kinked (g, w, x) at a dimension past numpy's SIMD and blocked loops,
    some of lin's coordinates signed zeros."""
    rng = np.random.default_rng(seed)
    lin = rng.uniform(-2.0, 2.0, dim)
    lin[::7], lin[3::7] = 0.0, -0.0
    return [_kinked_case(rng, g)
            for g in (Sum(0.75, lin, 0.5),
                      random_expr(rng, dim, min_quad=0.25),
                      random_expr(rng, dim, min_quad=0.25))]


def _small_kinked_cases(seed=1001):
    """Kinked (g, w, x) at every dimension the float bisection path takes
    and one past it, half of them with no l1 part (as ex1's g).  Then x at
    the solution y* (no step passes: the brackets narrow to 1e-13 over
    more than one chunk), within 1e-9 of it (passing after more than one
    chunk) and at y* near 1e20, where no bracket narrows to 1e-13 and all
    200 steps run; w scaled by 2^80, whose solutions lie about as far as
    the widening's 80 doublings reach.  At dims 1, 2 and _FLOAT_MAX_DIM, also each of
    NaN, inf and -inf placed once in x and once in w."""
    rng = np.random.default_rng(seed)
    cases = []
    for dim in range(1, _FLOAT_MAX_DIM + 2):
        for _ in range(3):
            g = random_expr(rng, dim, min_quad=0.25)
            cases.append(_kinked_case(rng, Sum(g.quad, g.lin, 0.0)))
            cases.append(_kinked_case(rng, Sum(g.quad, g.lin,
                                               rng.uniform(0.1, 1.5))))
        g, w, x = cases[-1]
        y_star, far = solve_exact(g, w, x), w * 1e20
        cases += [(g, w, y_star),
                  (g, w, y_star + rng.uniform(-1e-9, 1e-9, dim)),
                  (g, far, solve_exact(g, far, x)),
                  (g, w * 2.0**80, x)]
        if dim not in (1, 2, _FLOAT_MAX_DIM):
            continue
        for bad in (np.nan, np.inf, -np.inf):
            i = int(rng.integers(0, dim))
            x_bad, w_bad = x.copy(), w.copy()
            x_bad[i], w_bad[i] = bad, bad
            cases += [(g, w, x_bad), (g, w_bad, x)]
    return cases


def _inner_reference(g, w, x, theta):
    """The inner bisection written with the box arithmetic and the
    stationarity residual spelled out: each step clips w into the box at y
    and moves the bracket by the residual's sign.  Returns (y, xi,
    iterations), y None when no iterate passed."""
    quad, lin, l1 = g.quad, g.lin, g.l1

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
            return y, xi, it
        if float(np.max(hi - lo)) < 1e-13:
            break
        pos = residual(y) > 0
        hi[pos] = y[pos]
        lo[~pos] = y[~pos]
    return None, None, it


def test_inner_solver_matches_reference_bit_for_bit(rng):
    # w = fl(lin - l1) lies just below lin - l1: off the kink, yet equal to
    # the box's lower end at 0, so the first step (y = 0) must take the
    # residual's sign from lin, not from the box; the second step passes
    lin, l1 = -1.234704295771199, 0.13151339987163393
    cases = [(Sum(0.05, [lin], l1), np.array([lin - l1]),
              np.zeros(1))]
    for _ in range(200):
        dim = int(rng.integers(1, 5))
        cases.append((random_expr(rng, dim, min_quad=0.25),
                      rng.uniform(-3, 3, dim), random_point(rng, dim)))
    # both bisection paths: finite inputs up to _FLOAT_MAX_DIM take the
    # float path, the rest the array path
    cases += _small_kinked_cases()
    cases += _wide_cases()
    for g, w, x in cases:
        for theta in (0.05, 0.2, 0.45):
            with np.errstate(invalid="ignore", over="ignore"):
                sol = solve_inexact(g, w, x, theta, InexactMode.INNER_SOLVER)
                y, xi, iters = _inner_reference(g, w, x, theta)
            assert sol.inner_iters == iters
            if y is None:
                assert sol.mode_used is InexactMode.EXACT
                continue
            assert sol.y.tobytes() == y.tobytes()
            assert sol.xi.tobytes() == xi.tobytes()


def _both_paths(monkeypatch, g, w, x, theta):
    """The inner solve as it runs, and again with every dimension sent to
    the array path."""
    with np.errstate(invalid="ignore", over="ignore"):
        sol = solve_inexact(g, w, x, theta, InexactMode.INNER_SOLVER)
        with monkeypatch.context() as m:
            m.setattr(subproblem, "_FLOAT_MAX_DIM", 0)
            ref = solve_inexact(g, w, x, theta, InexactMode.INNER_SOLVER)
    return sol, ref


def _same_solution(sol, ref):
    assert sol.mode_used is ref.mode_used
    assert sol.inner_iters == ref.inner_iters
    assert sol.y.tobytes() == ref.y.tobytes()
    assert sol.xi.tobytes() == ref.xi.tobytes()


def _run_inputs(problem, starts, max_iter=60):
    """(g, w, x, theta) of every inner_solver subproblem that short inmbdca
    runs from ``starts`` solve."""
    config = problems.experiment_config(max_iter=max_iter)
    inputs = []

    def record(g, w, x, theta, mode, rng=None):
        inputs.append((g, w.copy(), x.copy(), theta))
        return solve_inexact(g, w, x, theta, mode, rng)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(drivers, "solve_inexact", record)
        for x0 in starts:
            run_inmbdca(problem, config, x0, strict=False)
    return inputs


def test_float_path_matches_array_path_bit_for_bit(monkeypatch):
    # the float path's relative test, read off its own sums of squares
    # with a rounding margin, against the array path's l2_norm test: the
    # subproblems of random-sep runs at every dimension the float path takes
    # and one past it, and the kinked cases (non-finite inputs included)
    rng = np.random.default_rng(5)
    for dim in range(1, _FLOAT_MAX_DIM + 2):
        problem = problems.resolve(f"random-sep(dim={dim},seed=0)")
        inputs = _run_inputs(problem, rng.uniform(-10.0, 10.0, (2, dim)))
        assert len(inputs) >= 4
        for g, w, x, theta in inputs:
            _same_solution(*_both_paths(monkeypatch, g, w, x, theta))
    for g, w, x in _small_kinked_cases():
        for theta in (0.05, 0.2, 0.45):
            _same_solution(*_both_paths(monkeypatch, g, w, x, theta))


def test_undecided_step_is_evaluated_by_l2_norm(monkeypatch):
    # theta set to the accepted step's own l2_norm ratio ||w - xi|| / ||y - x||
    # (and its two neighbours): theta ||y - x|| lies within an ulp or two of
    # ||w - xi||, inside the rounding margin, so the float path cannot
    # decide that step from its sums and hands it to _passes
    seen, passes = [], subproblem._passes

    def recording(v, e, theta):
        seen.append(e)
        return passes(v, e, theta)

    monkeypatch.setattr(subproblem, "_passes", recording)
    cases = [(problems.resolve("ex2").g, np.array([1.0, 0.5]),
              np.array([-3.0, 4.0]))]
    cases += [c for c in _small_kinked_cases() if c[2].shape[0] <= 4][:40]
    undecided = 0
    for g, w, x in cases:
        if not (np.isfinite(w).all() and np.isfinite(x).all()):
            continue
        sol = solve_inexact(g, w, x, 0.2, InexactMode.INNER_SOLVER)
        lhs = l2_norm(w - sol.xi)
        if sol.mode_used is not InexactMode.INNER_SOLVER or lhs == 0.0:
            continue  # an exactly zero lhs is decided exactly
        ratio = lhs / l2_norm(sol.y - x)
        for theta in (np.nextafter(ratio, 0.0), ratio,
                      np.nextafter(ratio, np.inf)):
            seen.clear()
            with monkeypatch.context() as m:
                m.setattr(subproblem, "_bisect_arrays", None)  # floats only
                got = solve_inexact(g, w, x, theta, InexactMode.INNER_SOLVER)
            assert any(e.tobytes() == (sol.y - x).tobytes() for e in seen)
            undecided += 1
            _same_solution(got, _both_paths(monkeypatch, g, w, x, theta)[1])
    assert undecided >= 30


def test_perturbed_certificate_bounds_the_norm_of_the_floors():
    # 64 kink coordinates whose |w_i - xi_i| each stay near c, a quarter of
    # theta ||E||: no one coordinate proves that the search fails, but the
    # norm of the floors, 8 c, is twice theta ||E||, so every candidate
    # fails and the two end radii prove it.  w_i sits c inside the end of
    # its kink interval that the direction's sign u_i moves the box to.
    dim, seed, theta = 64, 0, 0.2
    rng = np.random.default_rng(11)
    u = np.random.default_rng(seed).standard_normal(dim)  # the solve's draw
    u /= np.linalg.norm(u)
    x = rng.uniform(-0.05, 0.05, dim)  # r_hi = max(1, ||y* - x||) = 1
    big = np.maximum(np.abs(u - x), np.abs(2.0**-40 * u - x))
    c = theta * np.linalg.norm(big) / 4.0
    lin, l1 = rng.uniform(-1.0, 1.0, dim), 1.0
    g = Sum(0.5, lin, l1)
    w = lin + np.sign(u) * (l1 - c)
    assert not solve_exact(g, w, x).any()  # every coordinate at the kink
    assert _perturbed_path(g, w, x, theta, seed) == "certified"


def test_certificate_margin_inside_the_rounding_slack_does_not_fire():
    # ||m|| = 1 exactly and theta ||E|| = 1 - 100 2^-51 to an ulp, so at
    # n = 64 theta ||E|| slack = 1 - 32 2^-51 lies between ||m|| floor and
    # ||m||: that margin is inside the rounding bounds and must not certify
    v, e = np.full(64, 0.125), np.zeros(64)
    e[0] = 2.0 * (1.0 - 100 * 2.0**-51)
    assert not _fails_between(v, e, v, e, 0.5)
    e[0] = 2.0 * (1.0 - 200 * 2.0**-51)  # a margin past both bounds
    assert _fails_between(v, e, v, e, 0.5)
