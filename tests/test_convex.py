
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcboost.convex import (Sum, l2_norm, membership_gap, row_norms,
                            subdiff_bounds, value_rows)
from dcboost.core import DcProblem
from dcboost.drivers import criticality_residual

from conftest import box_reference, kinked_point, random_expr, random_point


# --- values ---------------------------------------------------------------


def test_value_quadratic_plus_linear():
    f = Sum(1.5, [1.0, 1.0], 0.0)
    assert f.value([1.0, 1.0]) == pytest.approx(5.0, abs=1e-15)


def test_value_l1_at_origin():
    assert Sum(0.0, [0.0, 0.0], 1.0).value([0.0, 0.0]) == 0.0


def test_value_empty_sum():
    # every part zero: the zero function
    assert Sum(0.0, np.zeros(3), 0.0).value([3.0, -2.0, 7.0]) == 0.0


def test_value_dimension_mismatch():
    f = Sum(0.0, [1.0, 1.0], 0.0)
    for method in (f.value, f.subgrad, f.bounds):
        with pytest.raises(ValueError, match="dimension mismatch"):
            method([1.0, 2.0, 3.0])


# --- canonical subgradients -------------------------------------------------


def test_subgrad_l1_sign_zero_is_zero():
    np.testing.assert_allclose(Sum(0.0, [0.0, 0.0], 1.0).subgrad([0.0, -2.0]),
                               [0.0, -1.0])


def test_subgrad_quad_plus_l1():
    f = Sum(0.5, [0.0, 0.0], 1.0)
    v = f.subgrad([1.0, 1.0])
    np.testing.assert_allclose(v, [2.0, 2.0])
    assert membership_gap(*f.bounds([1.0, 1.0]), v) <= 1e-10


def test_subgrad_linear_constant():
    np.testing.assert_allclose(Sum(0.0, [1.0, 1.0], 0.0).subgrad([9.0, -4.0]),
                               [1.0, 1.0])


# --- subdifferential bounds -------------------------------------------------


def test_box_l1_kink_and_smooth():
    lo, hi = Sum(0.0, [0.0, 0.0], 1.0).bounds([0.0, 3.0])
    np.testing.assert_allclose(lo, [-1.0, 1.0])
    np.testing.assert_allclose(hi, [1.0, 1.0])


def test_box_degenerate_at_smooth_point():
    f = Sum(0.5, [0.0, 0.0], 1.0)
    x = np.array([-1.0, -1.0])
    lo, hi = f.bounds(x)
    np.testing.assert_allclose(lo, [-2.0, -2.0])
    np.testing.assert_allclose(hi, [-2.0, -2.0])
    # definition check: every box corner satisfies the subgradient inequality
    rng = np.random.default_rng(7)
    for _ in range(100):
        z = rng.uniform(-4, 4, 2)
        for v in ([lo[0], lo[1]], [hi[0], hi[1]]):
            assert f.value(z) >= f.value(x) + np.dot(v, z - x) - 1e-12


def test_box_sum_is_minkowski_sum():
    # the box of the sum is the sum of its three parts' boxes, exact and
    # eps-widened alike
    lin = [0.25, -1.0, 0.5]
    f = Sum(0.5, lin, 2.0)
    parts = (Sum(0.5, np.zeros(3), 0.0), Sum(0.0, lin, 0.0),
             Sum(0.0, np.zeros(3), 2.0))
    x = np.array([0.0, 3.0, -0.5])
    for eps in (0.0, 0.09):
        lo, hi = f.bounds(x, eps)
        boxes = [p.bounds(x, eps) for p in parts]
        np.testing.assert_allclose(lo, sum(b[0] for b in boxes))
        np.testing.assert_allclose(hi, sum(b[1] for b in boxes))


@pytest.mark.parametrize("x0", [0.0, 0.7, -1.3])
def test_box_tightness_1d(x0):
    # interval grid points satisfy the subgradient inequality; values just
    # outside either endpoint fail it for some z (the violating z sits within
    # O(1e-6) of the base point, with margin about delta^2 / (2 sigma))
    f = Sum(0.5, [0.0], 1.0)
    x = np.array([x0])
    lo, hi = f.bounds(x)
    coarse = np.linspace(-3, 3, 101)
    fine = x0 + np.linspace(-4e-6, 4e-6, 2001)
    zs = np.concatenate([coarse, fine])

    def worst_slack(v):
        vals = 0.5 * zs**2 + np.abs(zs)
        return np.min(vals - (f.value(x) + v * (zs - x0)))

    for v in np.linspace(lo[0], hi[0], 25):
        assert worst_slack(v) >= -1e-12
    for v in (lo[0] - 1e-6, hi[0] + 1e-6):
        assert worst_slack(v) < -1e-14


def test_membership_gap_and_projection():
    lo, hi = np.array([-1.0, 2.0]), np.array([1.0, 2.0])
    assert membership_gap(lo, hi, np.array([0.0, 2.0])) == 0.0
    assert membership_gap(lo, hi, np.array([1.5, 2.0])) == pytest.approx(0.5)
    np.testing.assert_allclose(np.clip([5.0, 0.0], lo, hi), [1.0, 2.0])


# --- certified approximate subgradients --------------------------------------


def test_linearization_cert_quadratic_by_hand():
    f = Sum(0.5, [0.0], 0.0)
    cert = f.linearization_cert([1.0], [0.8])
    assert cert.w[0] == pytest.approx(0.8)
    assert cert.eps_achieved == pytest.approx(0.02, abs=1e-15)
    # relaxed subgradient inequality on a grid of evaluation points
    for z in np.linspace(-2, 2, 81):
        assert 0.5 * z**2 >= 0.5 + 0.8 * (z - 1.0) - cert.eps_achieved - 1e-12


def test_linearization_cert_linear_piece_has_zero_gap():
    cert = Sum(0.0, [0.0], 1.0).linearization_cert([1.0], [0.5])
    assert cert.w[0] == pytest.approx(1.0)
    assert cert.eps_achieved == 0.0


def test_eps_subgrad_zero_target_is_exact(rng):
    f = Sum(0.7, np.zeros(3), 0.3)
    x = np.array([1.0, -2.0, 0.0])
    cert = f.eps_subgrad(x, 0.0, rng)
    np.testing.assert_allclose(cert.w, f.subgrad(x))
    assert cert.eps_achieved == 0.0


def test_eps_subgrad_respects_budget(rng):
    for _ in range(50):
        dim = int(rng.integers(1, 5))
        f = random_expr(rng, dim)
        x = random_point(rng, dim)
        target = float(rng.uniform(0.0, 0.2))
        cert = f.eps_subgrad(x, target, rng)
        assert 0.0 <= cert.eps_achieved <= target
        # soundness of the certificate at sampled evaluation points
        for _ in range(20):
            z = random_point(rng, dim, scale=5.0)
            assert f.value(z) >= (
                f.value(x) + cert.w @ (z - x) - cert.eps_achieved - 1e-10
            )


# --- moduli -----------------------------------------------------------------


def test_modulus_examples():
    assert Sum(1.5, [1.0, 1.0], 0.0).modulus() == 3.0
    assert Sum(0.5, [0.0], 0.0).modulus() == 1.0
    assert Sum(0.0, [0.0], 1.0).modulus() == 0.0


# --- eps-widened boxes --------------------------------------------------------


def test_eps_box_reduces_to_exact_at_zero(rng):
    # the widened bounds tend to the exact ones as eps -> 0, at the kink too
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        f = random_expr(rng, dim)
        x = random_point(rng, dim)
        exact = f.bounds(x)
        widened = f.bounds(x, 1e-300)
        np.testing.assert_allclose(widened[0], exact[0], atol=1e-12)
        np.testing.assert_allclose(widened[1], exact[1], atol=1e-12)


def test_eps_box_1d_atoms_are_exact():
    # quadratic: 2at +- 2 sqrt(a eps); l1: [-b,b] cut by v t >= b|t| - eps
    eps = 0.09
    q_lo, q_hi = Sum(1.0, [0.0], 0.0).bounds([2.0], eps)
    assert q_lo[0] == pytest.approx(4.0 - 2 * np.sqrt(eps))
    assert q_hi[0] == pytest.approx(4.0 + 2 * np.sqrt(eps))
    f = Sum(0.0, [0.0], 1.0)
    l_lo, l_hi = f.bounds([0.5], eps)
    assert l_lo[0] == pytest.approx(1.0 - eps / 0.5)
    assert l_hi[0] == pytest.approx(1.0)
    # membership is exactly the relaxed inequality for the endpoint values
    x = np.array([0.5])
    for v in (l_lo[0], l_hi[0]):
        for z in np.linspace(-3, 3, 61):
            assert f.value([z]) >= f.value(x) + v * (z - 0.5) - eps - 1e-12
    for z in np.linspace(-3, 3, 61):
        if f.value([z]) < f.value(x) + (l_lo[0] - 1e-3) * (z - 0.5) - eps:
            break
    else:
        pytest.fail("value below the widened interval should violate somewhere")


# --- hypothesis properties -----------------------------------------------------


finite = st.floats(-5, 5, allow_nan=False)


@st.composite
def expr_and_points(draw):
    dim = draw(st.integers(1, 3))
    a = draw(st.floats(0, 2))
    b = draw(st.floats(0, 2))
    c = draw(st.lists(finite, min_size=dim, max_size=dim))
    f = Sum(a, np.array(c), b)
    x = np.array(draw(st.lists(finite, min_size=dim, max_size=dim)))
    y = np.array(draw(st.lists(finite, min_size=dim, max_size=dim)))
    return f, x, y


@settings(max_examples=60, deadline=None)
@given(expr_and_points())
def test_subgradient_inequality(data):
    f, x, z = data
    v = f.subgrad(x)
    assert f.value(z) >= f.value(x) + v @ (z - x) - 1e-12


@settings(max_examples=60, deadline=None)
@given(expr_and_points())
def test_strong_convexity_lower_bound(data):
    f, x, y = data
    sigma = f.modulus()
    v = f.subgrad(x)
    lhs = f.value(y)
    rhs = f.value(x) + v @ (y - x) + 0.5 * sigma * np.dot(y - x, y - x)
    assert lhs >= rhs - 1e-10


@settings(max_examples=60, deadline=None)
@given(expr_and_points())
def test_strong_monotonicity(data):
    f, x, y = data
    sigma = f.modulus()
    w, v = f.subgrad(x), f.subgrad(y)
    assert (w - v) @ (x - y) >= sigma * np.dot(y - x, y - x) - 1e-10


@settings(max_examples=60, deadline=None)
@given(expr_and_points())
def test_subgrad_lies_in_box(data):
    f, x, _ = data
    assert membership_gap(*f.bounds(x), f.subgrad(x)) <= 1e-12


# --- construction ----------------------------------------------------------------


def test_separable_coefficients():
    # the triple is the Sum's own fields: float weights and a read-only copy
    # of the linear part
    lin = np.array([1.0, 2.0])
    f = Sum(1, lin, 0.75)
    assert (f.quad, f.l1) == (1.0, 0.75) and type(f.quad) is float
    np.testing.assert_array_equal(f.lin, [1.0, 2.0])
    assert not f.lin.flags.writeable
    lin[0] = 9.0
    assert f.lin[0] == 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.quad = 2.0
    # a -0.0 weight is stored as 0.0
    assert math.copysign(1.0, Sum(-0.0, [0.0], -0.0).l1) == 1.0


def test_mismatched_linear_terms_rejected_at_construction():
    # g's and h's linear parts fix their dimension, which must be the
    # problem's
    g, h = Sum(1.0, [1.0], 0.0), Sum(1.0, [1.0, 2.0], 0.0)
    with pytest.raises(ValueError, match="dimension mismatch"):
        DcProblem.from_components("bad", g, h, dim=2)
    with pytest.raises(ValueError, match="dimension mismatch"):
        DcProblem.from_components("bad", h, h, dim=3)
    with pytest.raises(ValueError, match="1-D"):
        Sum(1.0, [[1.0, 2.0]], 0.0)


def _part_references(f, x, eps):
    """(value, subgradient, eps-interval lo, hi) of each of the three parts
    of f, written out."""
    a, c, b = f.quad, f.lin, f.l1
    grad = 2.0 * a * x
    r = 2.0 * np.sqrt(a * eps)
    with np.errstate(divide="ignore", invalid="ignore"):
        lo = np.where(x > 0, np.maximum(-b, b - eps / x), -b)
        hi = np.where(x < 0, np.minimum(b, -b - eps / x), b)
    return [(a * (x @ x), grad, grad - r, grad + r), (c @ x, c, c, c),
            (b * np.sum(np.abs(x)), b * np.sign(x), lo, hi)]


def test_compiled_calculus_matches_per_atom_reference(rng):
    # value, subgradient and (widened) bounds are the sums of the parts'
    for _ in range(300):
        dim = int(rng.integers(1, 5))
        f = random_expr(rng, dim)
        x = random_point(rng, dim)
        exact = _part_references(f, x, 0.0)
        assert f.value(x) == pytest.approx(sum(p[0] for p in exact),
                                           rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(f.subgrad(x), sum(p[1] for p in exact),
                                   rtol=1e-12, atol=1e-12)
        eps = float(rng.uniform(0.0, 0.5))
        for parts, (lo, hi) in ((exact, f.bounds(x)),
                                (_part_references(f, x, eps),
                                 f.bounds(x, eps))):
            np.testing.assert_allclose(lo, sum(p[2] for p in parts),
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(hi, sum(p[3] for p in parts),
                                       rtol=1e-12, atol=1e-12)


def _summed_parts(f, x):
    """f(x) and f's subgradient at x as the parts' numpy results summed into
    0.0 and into a zero buffer, in the order quad, lin, l1."""
    value, grad = 0.0, np.zeros_like(x)
    if f.quad:
        value += float(f.quad * (x @ x))
        grad += 2.0 * f.quad * x
    value += float(f.lin @ x)
    grad += f.lin
    if f.l1:
        value += float(f.l1 * np.add.reduce(np.abs(x)))
        grad += f.l1 * np.sign(x)
    return value, grad


def _pinned_rows(rng, dim):
    """Rows for the row-kernel bit pins: signed zeros, kinked and subnormal
    points, random points at spread scales, a row whose squares overflow to
    inf and a row holding a NaN."""
    huge = np.full(dim, 1e200)
    huge[::2] = -1e200
    nan = random_point(rng, dim)
    nan[dim // 2] = math.nan
    spread = (rng.standard_normal((40, dim))
              * 10.0 ** rng.uniform(-150, 150, (40, 1)))
    return np.vstack([np.zeros(dim), -np.zeros(dim), kinked_point(rng, dim),
                      kinked_point(rng, dim, 1e-300), random_point(rng, dim),
                      rng.uniform(-1e-308, 1e-308, dim), huge, nan, spread])


def test_value_rows_and_row_norms_match_the_one_point_calls_bit_for_bit(rng):
    # value_rows shares z @ z and sum |z_i| between its two functions and
    # takes one dot per row; each row's two values, and its norm, keep the
    # bits of the one-point calls, which keep those of the parts summed one
    # at a time (the subgradient too), on every row _pinned_rows makes
    def bits(values):
        return np.asarray(values, float).view(np.int64)

    for dim in (1, 2, 3, 7, 32, 33, 1000):
        lin = rng.uniform(-2.0, 2.0, dim)
        lin[::3], lin[1::3] = 0.0, -0.0
        fs = [Sum(0.75, lin, 0.5), Sum(0.5, np.zeros(dim), 0.0),
              Sum(0.0, lin, 1.25), Sum(0.0, -np.zeros(dim), 0.0),
              random_expr(rng, dim)]
        Z = _pinned_rows(rng, dim)
        with np.errstate(over="ignore", invalid="ignore"):
            assert (bits(row_norms(Z)) == bits([l2_norm(z) for z in Z])).all()
            one_point = []
            for f in fs:
                for z in Z:
                    value, grad = _summed_parts(f, z)
                    assert type(f.value(z)) is float
                    assert bits(f.value(z)) == bits(value)
                    assert f.subgrad(z).tobytes() == grad.tobytes()
                one_point.append(bits([f.value(z) for z in Z]))
            for f, f_bits in zip(fs, one_point):
                for h, h_bits in zip(fs, one_point):
                    rows = value_rows(f, h, Z)
                    assert [(v.dtype, v.shape) for v in rows] == [
                        (np.float64, (len(Z),))] * 2
                    assert (bits(rows[0]) == f_bits).all()
                    assert (bits(rows[1]) == h_bits).all()


def test_negative_weights_rejected():
    with pytest.raises(ValueError, match="quadratic"):
        Sum(-1.0, [0.0], 0.0)
    with pytest.raises(ValueError, match="l1"):
        Sum(0.0, [0.0], -0.5)


@pytest.mark.parametrize("build", [
    lambda: Sum(math.nan, [0.0], 0.0),
    lambda: Sum(math.inf, [0.0], 0.0),
    lambda: Sum(0.0, [0.0], math.nan),
    lambda: Sum(0.0, [0.0], math.inf),
    lambda: Sum(0.0, [math.nan, 1.0], 0.0),
    lambda: Sum(0.0, [1.0, -math.inf], 0.0),
], ids=["quad-nan", "quad-inf", "l1-nan", "l1-inf", "lin-nan", "lin-inf"])
def test_non_finite_weights_rejected(build):
    # NaN passes a bare `a < 0` test, so each weight must lie in [0, inf)
    with pytest.raises(ValueError, match="finite"):
        build()


# --- bounds read off the triple, bit for bit against the box arithmetic -------


def _membership_reference(lo, hi, v):
    return float(np.max(np.maximum(np.maximum(lo - v, v - hi), 0.0)))


def _gap_reference(g_box, h_box):
    (g_lo, g_hi), (h_lo, h_hi) = g_box, h_box
    return float(np.max(np.maximum(np.maximum(g_lo - h_hi, 0.0),
                                   np.maximum(h_lo - g_hi, 0.0))))


def _bits(v):
    return np.asarray(v, dtype=float).tobytes()


EXPLICIT_EXPRS = [
    Sum(0.5, np.zeros(3), 1.0),  # no linear part
    Sum(1.0, [-0.0, 0.0, 1.5], 0.0),  # no l1 part, signed zeros
    Sum(0.75, [0.5, -0.0, -2.0], -0.0),  # l1 weight -0.0
    Sum(0.5, [-0.0, 0.0, -0.0], 1.0),  # a signed-zero linear part
    Sum(0.0, [0.0, -0.0, 0.7], 0.3),  # no quadratic part
    Sum(0.0, [-0.0, -0.0, 1.0], 0.0),  # linear only
]
EPS_VALUES = [0.0, 1e-300, 0.09, 2.5]
KINK_POINTS = [
    np.array([0.0, -0.0, 1.0]),
    np.array([-0.0, 0.0, -1.0]),
    np.array([5e-324, -5e-324, 0.0]),
]


def _wide_cases(seed=1000, dim=1000):
    """(expression, point) pairs at a dimension past numpy's SIMD and blocked
    loops, the points kinked on every sign of zero and of 5e-324; the first
    expression's linear part holds signed zeros too."""
    rng = np.random.default_rng(seed)
    lin = rng.uniform(-2.0, 2.0, dim)
    lin[::7], lin[3::7] = 0.0, -0.0
    exprs = [Sum(0.75, lin, 0.5), Sum(1.0, lin, 0.0), Sum(0.0, lin, 0.3)]
    exprs += [random_expr(rng, dim) for _ in range(3)]
    return [(f, kinked_point(rng, dim)) for f in exprs]


# eps / 5e-324 overflows to inf in the reference and in the bounds alike
@pytest.mark.filterwarnings("ignore:overflow encountered in divide")
def test_bounds_match_box_reference_bit_for_bit(rng):
    cases = [(f, x) for f in EXPLICIT_EXPRS for x in KINK_POINTS]
    for _ in range(200):
        dim = int(rng.integers(1, 5))
        cases.append((random_expr(rng, dim), random_point(rng, dim)))
    cases += _wide_cases()
    for f, x in cases:
        dim = x.shape[0]
        triple = f.quad, f.lin, f.l1
        for eps in EPS_VALUES:
            ref_lo, ref_hi = box_reference(f, x, eps)
            for lo, hi in (subdiff_bounds(*triple, x, eps),
                           f.bounds(x, eps)):
                assert _bits(lo) == _bits(ref_lo) and _bits(hi) == _bits(ref_hi)
            lo, hi = subdiff_bounds(*triple, x, eps)
            vs = [rng.uniform(-4, 4, dim), np.zeros(dim), -np.zeros(dim),
                  ref_lo, ref_hi, 0.5 * (ref_lo + ref_hi)]
            for v in vs:
                assert _bits(np.clip(v, lo, hi)) == _bits(np.clip(v, ref_lo, ref_hi))
                assert _bits(membership_gap(lo, hi, v)) == _bits(
                    _membership_reference(ref_lo, ref_hi, v))
            # stacked rows, as the trace replay passes them
            assert _bits(membership_gap(lo, hi, np.array(vs))) == _bits(
                [_membership_reference(ref_lo, ref_hi, v) for v in vs])
        points = np.array([x, -x, np.zeros(dim), -np.zeros(dim)])
        rows = [subdiff_bounds(*triple, p) for p in points]
        lo, hi = subdiff_bounds(*triple, points)
        assert _bits(lo) == _bits([r[0] for r in rows])
        assert _bits(hi) == _bits([r[1] for r in rows])


@pytest.mark.filterwarnings("ignore:overflow encountered in divide")
def test_criticality_gap_matches_box_reference_bit_for_bit(rng):
    pairs = [(Sum(0.5, np.zeros(3), 1.0), Sum(0.5, [1.0, -0.0, 0.0], 0.0), 3),
             (EXPLICIT_EXPRS[3], EXPLICIT_EXPRS[2], 3)]
    for _ in range(100):
        dim = int(rng.integers(1, 5))
        pairs.append((random_expr(rng, dim, min_quad=0.1),
                      random_expr(rng, dim, min_quad=0.1), dim))
    for g, h, dim in pairs:
        prob = DcProblem.from_components("pair", g, h, dim)
        points = [x for x in KINK_POINTS if x.shape[0] == dim]
        for x in points + [random_point(rng, dim)]:
            for eps in EPS_VALUES:
                ref = _gap_reference(box_reference(g, x, eps),
                                     box_reference(h, x, eps))
                assert _bits(criticality_residual(prob, x, eps)) == _bits(ref)


def _value_reference(f, x):
    total = 0.0
    if f.quad:
        total += float(f.quad * (x @ x))
    total += float(f.lin @ x)
    if f.l1:
        total += float(f.l1 * np.sum(np.abs(x)))
    return total


def test_value_matches_reference_bit_for_bit(rng):
    cases = [(f, x) for f in EXPLICIT_EXPRS for x in KINK_POINTS]
    for _ in range(100):
        dim = int(rng.integers(1, 5))
        cases.append((random_expr(rng, dim), random_point(rng, dim)))
    cases += _wide_cases()
    for f, x in cases:
        assert _bits(f.value(x)) == _bits(_value_reference(f, x))


def test_l2_norm_matches_np_linalg_norm_bit_for_bit(rng):
    # l2_norm stands in for np.linalg.norm on 1-D float vectors; pin it on
    # signed zeros and subnormals, at dim 1, 2 and past numpy's SIMD and
    # blocked loops
    for dim in (1, 2, 1000):
        for scale in (3.0, 1e-160, 1e150):
            for _ in range(40):
                v = kinked_point(rng, dim, scale)
                for w in (v, -v, np.zeros(dim), -np.zeros(dim)):
                    assert (np.float64(l2_norm(w)).tobytes()
                            == np.linalg.norm(w).tobytes())
