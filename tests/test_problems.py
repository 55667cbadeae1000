import dataclasses

import numpy as np
import pytest

from dcboost.core import validate
from dcboost.drivers import criticality_residual
from dcboost import problems


def test_get_ex1_values():
    prob = problems.resolve("ex1")
    assert prob.phi([-1.0, -1.0]) == pytest.approx(-2.0)
    assert prob.phi_lower_bound == -2.0
    assert len(prob.known_critical_points) == 4


def test_get_ex2_critical_point():
    prob = problems.resolve("ex2")
    assert criticality_residual(prob, [1.5, 0.0]) == 0.0
    assert prob.phi_lower_bound == -1.125


def _triple(f):
    return f.quad, f.lin.tolist(), f.l1


def test_random_sep_deterministic():
    a = problems.resolve("random-sep(dim=5,seed=7)")
    b = problems.resolve("random-sep(dim=5,seed=7)")
    for f, f2 in ((a.g, b.g), (a.h, b.h)):
        assert _triple(f) == _triple(f2)
    assert a.sigma == b.sigma
    c = problems.resolve("random-sep(dim=5,seed=8)")
    assert _triple(c.g) != _triple(a.g)


def test_random_sep_modulus_floor():
    for seed in range(30):
        prob = problems.random_separable(3, seed)
        assert prob.sigma >= 0.5
        assert prob.g.modulus() >= prob.sigma
        assert prob.h.modulus() >= prob.sigma


def test_resolve_round_trips_names():
    prob = problems.resolve("random-sep(dim=4,seed=11)")
    assert prob.name == "random-sep(dim=4,seed=11)"
    assert prob.dim == 4
    assert problems.resolve("ex1").name == "ex1"


def test_resolve_builds_each_name_once():
    # run resolves per start and check per trace; the problem they share
    # cannot be changed in place
    a = problems.resolve("random-sep(dim=5,seed=7)")
    assert problems.resolve("random-sep(dim=5,seed=7)") is a
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.dim = 6
    ex1 = problems.resolve("ex1")
    for values in (a.g.lin, a.h.lin, *ex1.known_critical_points):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 1.0


def test_unknown_name_rejected():
    with pytest.raises(ValueError, match="unknown problem"):
        problems.resolve("nope")
    with pytest.raises(ValueError, match="unknown problem"):
        problems.resolve("random-sep(dim=x,seed=1)")
    with pytest.raises(ValueError, match="unknown problem"):
        problems.resolve("random-sep")


def test_dimension_is_read_off_the_name_without_building():
    for name in ("ex1", "ex2", "random-sep(dim=4,seed=11)",
                 "random-sep(dim=07,seed=0)"):
        assert problems.dimension(name) == problems.resolve(name).dim
    # no coefficient of 10**15 is drawn: 7.1 PiB
    assert problems.dimension("random-sep(dim=1000000000000000,seed=0)") \
        == 10**15
    for name in ("nope", "random-sep(dim=x,seed=1)", "random-sep"):
        with pytest.raises(ValueError, match="unknown problem"):
            problems.dimension(name)


def test_registered_problems_accept_reference_config():
    cfg = problems.experiment_config()
    for prob in (problems.resolve("ex1"), problems.resolve("ex2"),
                 problems.resolve("random-sep(dim=4,seed=3)")):
        assert validate(prob, cfg) == []


def test_known_critical_points_have_zero_residual():
    for name in ("ex1", "ex2"):
        prob = problems.resolve(name)
        for p in prob.known_critical_points:
            assert criticality_residual(prob, p) == 0.0


def _sign_interval(t, b):
    """lo/hi of b * d|.|(t), vectorized."""
    lo = np.where(t > 0, b, -b)
    hi = np.where(t < 0, -b, b)
    return lo, hi


def _gap(alo, ahi, blo, bhi):
    return np.maximum(np.maximum(alo - bhi, blo - ahi), 0.0)


def grid_residual_ex1(x, y):
    # d g = {3t + 1}; d h = t + d|t| per coordinate
    out = np.zeros_like(x)
    for t in (x, y):
        lo, hi = _sign_interval(t, 1.0)
        out = np.maximum(out, _gap(3 * t + 1, 3 * t + 1, t + lo, t + hi))
    return out


def grid_residual_ex2(x, y):
    # coordinate 1: d g = 2t - 2.5 + d|t|, d h = {t}
    lo1, hi1 = _sign_interval(x, 1.0)
    g1 = _gap(2 * x - 2.5 + lo1, 2 * x - 2.5 + hi1, x, x)
    lo2, hi2 = _sign_interval(y, 1.0)
    g2 = _gap(2 * y + lo2, 2 * y + hi2, y, y)
    return np.maximum(g1, g2)


@pytest.mark.parametrize(
    "name,grid_residual",
    [("ex1", grid_residual_ex1), ("ex2", grid_residual_ex2)],
)
def test_critical_set_complete_by_grid_scan(name, grid_residual):
    # brute-force completeness: on a 0.01 grid over [-3,3]^2 the only points
    # with residual below 1e-3 sit on the declared critical set
    prob = problems.resolve(name)
    ticks = np.round(np.linspace(-3.0, 3.0, 601), 10)
    gx, gy = np.meshgrid(ticks, ticks, indexing="ij")
    res = grid_residual(gx, gy)
    small = res < 1e-3
    pts = np.stack([gx[small], gy[small]], axis=1)
    known = np.asarray(prob.known_critical_points)
    assert len(pts) >= len(known)
    dists = np.min(
        np.linalg.norm(pts[:, None, :] - known[None, :, :], axis=2), axis=1
    )
    assert np.max(dists) < 1.5e-2
    # and each declared point really appears with zero residual on the grid
    for p in known:
        i = np.argmin(np.abs(ticks - p[0]))
        j = np.argmin(np.abs(ticks - p[1]))
        assert res[i, j] == 0.0


def test_grid_residual_agrees_with_module_residual(rng):
    # route equivalence between the test-side closed forms and subdiff boxes
    for name, fn in (("ex1", grid_residual_ex1), ("ex2", grid_residual_ex2)):
        prob = problems.resolve(name)
        for _ in range(100):
            x = rng.uniform(-3, 3, 2)
            if rng.random() < 0.3:
                x[rng.integers(0, 2)] = 0.0
            expected = float(fn(np.array([x[0]]), np.array([x[1]]))[0])
            assert criticality_residual(prob, x) == pytest.approx(
                expected, abs=1e-12
            )


def test_sample_starts_deterministic_and_bounded():
    a = problems.sample_starts(50, [-10, 10], 42, 2)
    b = problems.sample_starts(50, [-10, 10], 42, 2)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (50, 2)
    assert np.all(a >= -10) and np.all(a <= 10)
    with pytest.raises(ValueError):
        problems.sample_starts(5, [1, -1], 0, 2)
