import dataclasses

import numpy as np
import pytest

from dcboost.core import (
    DirectNu,
    EpsSchedule,
    GrippoNu,
    InvariantViolation,
    IterationRecord,
    RatioNu,
    SolverConfig,
    Termination,
    Trace,
    ZeroNu,
    ZhangHagerNu,
)
from dcboost.nonmonotone import (
    first_step_nu,
    nu_init,
    nu_next,
    step_domination_start,
    verify_summability,
)
from dcboost.drivers import run_inmbdca
from dcboost import problems


def make_trace(nus, d_norms):
    """Synthetic trace with only the fields the verifiers read."""
    records = [
        IterationRecord(
            k=k, x=np.zeros(1), phi_x=0.0, eps_k=0.0, eps_certified=0.0,
            w=np.zeros(1), y=np.zeros(1), xi=np.zeros(1), d_norm=d,
            inexact_lhs=0.0, inexact_rhs=0.0, nu_k=nu, lambda_bar=1.0,
            lambda_k=0.0, n_backtracks=0, phi_y=0.0, phi_next=0.0,
        )
        for k, (nu, d) in enumerate(zip(nus, d_norms))
    ]
    return Trace("synthetic", SolverConfig(), np.zeros(1), records,
                 np.zeros(1), 0.0, Termination.MAX_ITER)


# --- initialization -----------------------------------------------------------


def test_init_zhang_hager_offset():
    state, nu0 = nu_init(ZhangHagerNu(c0_offset=1.0), phi_x0=2.0)
    assert nu0 == 1.0
    assert state.q == 1.0 and state.c == 3.0


def test_init_grippo_single_value_window():
    state, nu0 = nu_init(GrippoNu(m=5), phi_x0=7.0)
    assert nu0 == 0.0
    assert state.window == (7.0,)


def test_init_zero_and_direct():
    assert nu_init(ZeroNu(), 1.0) == (None, 0.0)
    state, nu0 = nu_init(DirectNu(nu0=0.25), 1.0)
    assert nu0 == 0.25 and state.nu_prev == 0.25


def test_init_ratio_defers_to_first_direction():
    state, nu0 = nu_init(RatioNu(omega=0.01), 1.0)
    assert nu0 is None
    assert first_step_nu(RatioNu(omega=0.01), nu0, 8.0 / 9.0) == pytest.approx(
        0.01 * 8.0 / 9.0
    )
    assert first_step_nu(ZeroNu(), 0.0, 5.0) == 0.0


# --- single updates --------------------------------------------------------------


def test_direct_update_takes_the_admissible_bound():
    spec = DirectNu(delta_min=0.1, delta=0.5)
    state, _ = nu_init(spec, 5.0)
    state = dataclasses.replace(state, nu_prev=0.2)
    state, nu = nu_next(spec, state, 0, phi_prev=5.0, phi_curr=4.0,
                        eps_k=0.0, d_norm_sq=1.0)
    assert nu == pytest.approx(0.5 * 1.2)
    assert state.nu_prev == nu


def test_direct_update_respects_fraction_knob():
    spec = DirectNu(delta_min=0.1, delta=0.5, fraction=0.5)
    state, _ = nu_init(spec, 5.0)
    state = dataclasses.replace(state, nu_prev=0.2)
    _, nu = nu_next(spec, state, 0, 5.0, 4.0, 0.0, 1.0)
    assert nu == pytest.approx(0.25 * 1.2)


def test_direct_update_rejects_negative_budget():
    spec = DirectNu(delta_min=0.1, delta=0.5)
    state, _ = nu_init(spec, 0.0)
    with pytest.raises(InvariantViolation, match="descent"):
        nu_next(spec, state, 3, phi_prev=0.0, phi_curr=1.0, eps_k=0.0,
                d_norm_sq=1.0)


def test_direct_update_stays_inside_admissible_band(rng):
    # 0 <= nu_{k+1} <= (1 - delta_min) * budget for any admissible delta
    spec = DirectNu(delta_min=0.3, delta_rule=lambda k: 0.3 + 0.05 * (k % 10))
    state, _ = nu_init(spec, 0.0)
    for k in range(200):
        drop = float(rng.uniform(-0.9 * state.nu_prev, 2.0))
        budget = drop + state.nu_prev
        state, nu = nu_next(spec, state, k, drop, 0.0, 0.0, 1.0)
        assert 0.0 <= nu <= (1 - spec.delta_min) * budget + 1e-12


def test_grippo_nonnegative_and_zero_at_window_max(rng):
    spec = GrippoNu(m=4)
    state, nu = nu_init(spec, 3.0)
    assert nu == 0.0
    phi_prev = 3.0
    for k in range(100):
        phi = phi_prev - float(rng.uniform(-0.9 * nu, 1.0))
        state, nu = nu_next(spec, state, k, phi_prev, phi, 0.0, 1.0)
        assert nu >= 0.0
        if phi >= max(state.window):
            assert nu == 0.0
        phi_prev = phi


def test_grippo_update_window_max():
    spec = GrippoNu(m=3)
    state, _ = nu_init(spec, 5.0)
    # feed values so the window reads [5, 3, 4], then push 4
    state, _ = nu_next(spec, state, 0, 5.0, 3.0, 0.0, 1.0)
    state, _ = nu_next(spec, state, 1, 3.0, 4.0, 1.0, 1.0)
    state, nu = nu_next(spec, state, 2, 4.0, 4.0, 1.0, 1.0)
    assert state.window == (5.0, 3.0, 4.0, 4.0)
    assert nu == pytest.approx(1.0)


def test_grippo_window_is_capped():
    spec = GrippoNu(m=2)
    state, _ = nu_init(spec, 10.0)
    for k, phi in enumerate([9.0, 8.0, 7.0, 6.0]):
        prev = state.window[-1]
        state, _ = nu_next(spec, state, k, prev, phi, 1.0, 1.0)
    assert state.window == (8.0, 7.0, 6.0)


def test_ratio_update_uses_next_index():
    spec = RatioNu(omega=0.01)
    _, nu = nu_next(spec, None, 0, 1.0, 0.5, 0.0, d_norm_sq=2.0)
    assert nu == pytest.approx(0.01 * 2.0 / 2.0)  # u(k+1) = k + 2 at k = 0
    _, nu = nu_next(spec, None, 8, 1.0, 0.5, 0.0, d_norm_sq=3.0)
    assert nu == pytest.approx(0.01 * 3.0 / 10.0)


def test_ratio_custom_divisor():
    spec = RatioNu(omega=0.5, u_rule=lambda k: 2.0 ** k)
    _, nu = nu_next(spec, None, 2, 0.0, 0.0, 0.0, d_norm_sq=4.0)
    assert nu == pytest.approx(0.5 * 4.0 / 8.0)


# --- zhang-hager algebra -----------------------------------------------------------


def test_zhang_hager_identity_synthetic_50_steps(rng):
    spec = ZhangHagerNu(eta_min=0.2, eta_max=0.85, eta=0.7)
    phi = 5.0
    state, nu = nu_init(spec, phi)
    for k in range(50):
        # stay inside the admissible budget: phi may rise by less than nu
        drop = float(rng.uniform(-0.9 * nu if nu > 0 else 0.0, 1.0))
        phi_next = phi - drop
        q_prev = state.q
        state, nu_next_val = nu_next(spec, state, k, phi, phi_next, 0.0, 1.0)
        delta = 1.0 / state.q
        expected = (1.0 - delta) * (phi - phi_next + nu)
        assert nu_next_val == pytest.approx(expected, abs=1e-12)
        assert delta >= (1.0 - spec.eta_max) - 1e-12
        assert state.q >= 1.0
        assert state.q == pytest.approx(0.7 * q_prev + 1.0)
        phi, nu = phi_next, nu_next_val


def test_zhang_hager_stays_nonnegative_with_positive_eps():
    # with a positive approximate-subgradient budget the raw cost-update gap
    # can dip below zero; the returned allowance must be floored at zero
    spec = ZhangHagerNu(eta_min=0.0, eta_max=0.8, c0_offset=0.2)
    cfg = dataclasses.replace(
        problems.experiment_config(),
        nu=spec,
        eps=EpsSchedule.geometric(0.4, 0.6),
    )
    for name in ("ex1", "ex2"):
        prob = problems.resolve(name)
        trace = run_inmbdca(prob, cfg, [5.0, -6.0], seed=21)
        assert all(r.nu_k >= 0.0 for r in trace.records)
        assert trace.termination.value in ("step_tol", "d_zero")


def test_zhang_hager_identity_on_real_run():
    prob = problems.resolve("ex2")
    cfg = dataclasses.replace(
        problems.experiment_config(),
        nu=ZhangHagerNu(eta_min=0.0, eta_max=0.8, c0_offset=0.5),
    )
    trace = run_inmbdca(prob, cfg, [-4.4615, -9.0766], seed=3)
    assert len(trace.records) > 3
    # replay the recurrence from the recorded phi values
    spec = cfg.nu
    state, nu = nu_init(spec, trace.records[0].phi_x)
    assert trace.records[0].nu_k == pytest.approx(nu, abs=1e-15)
    for prev, curr in zip(trace.records, trace.records[1:]):
        state, nu = nu_next(spec, state, prev.k, prev.phi_x, curr.phi_x,
                            prev.eps_k, 0.0)
        expected = (1.0 - 1.0 / state.q) * (prev.phi_x - curr.phi_x + prev.nu_k)
        assert nu == pytest.approx(expected, abs=1e-12)
        assert curr.nu_k == pytest.approx(nu, abs=1e-15)


# --- verifiers -----------------------------------------------------------------------


def test_summability_zero_strategy():
    report = verify_summability(make_trace([0.0] * 10, [1.0] * 10))
    assert report.bounded
    assert report.partial_sums == [0.0] * 10


def test_summability_decaying_sequence():
    nus = [0.01 * 0.5**k for k in range(80)]
    report = verify_summability(make_trace(nus, [1.0] * 80))
    assert report.bounded
    assert report.partial_sums[-1] == pytest.approx(sum(nus))


def test_summability_rejects_constant():
    report = verify_summability(make_trace([1.0] * 20, [1.0] * 20))
    assert not report.bounded


def test_domination_ratio_schedule():
    # nu_k = 0.01 d_k^2 / (k+1) <= 0.01 d_k^2 for every k
    d = [1.0, 0.8, 0.5, 0.3]
    nus = [0.01 * dk**2 / (k + 1) for k, dk in enumerate(d)]
    assert step_domination_start(make_trace(nus, d), 0.01) == 0


def test_domination_zero_strategy():
    assert step_domination_start(make_trace([0.0] * 5, [1.0] * 5), 1e-9) == 0


def test_domination_absent_for_constant_nu():
    d = [1.0, 0.5, 0.25, 0.125]
    assert step_domination_start(make_trace([1.0] * 4, d), 0.5) is None


def test_domination_partial():
    trace = make_trace([1.0, 1.0, 0.001, 0.001], [1.0] * 4)
    assert step_domination_start(trace, 0.01) == 2


def test_partial_sum_bound_from_direct_rule():
    # with delta_min > 0 and zero eps the later allowances sum below
    # (phi(x0) + nu0 - phibar) * (1 - delta_min) / delta_min
    spec = DirectNu(delta_min=0.3, delta=0.3, nu0=0.1)
    cfg = dataclasses.replace(problems.experiment_config(), nu=spec)
    for name in ("ex1", "ex2"):
        prob = problems.resolve(name)
        trace = run_inmbdca(prob, cfg, [6.0, 7.5], seed=11)
        nus = [r.nu_k for r in trace.records]
        bound = (
            (trace.records[0].phi_x + nus[0] - prob.phi_lower_bound)
            * (1 - spec.delta_min) / spec.delta_min
        )
        assert sum(nus[1:]) <= bound + 1e-9
