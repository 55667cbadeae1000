import dataclasses
import warnings

import numpy as np
import pytest

from dcboost import drivers

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
from dcboost.drivers import run_inmbdca, step_domination_start
from dcboost import problems


def make_trace(nus, d_norms):
    """Synthetic trace with only the fields the verifiers read."""
    records = [
        IterationRecord(
            k=k, x=np.zeros(1), phi_x=0.0, eps_k=0.0, eps_certified=0.0,
            w=np.zeros(1), y=np.array([d]), xi=np.zeros(1), nu_k=nu,
            lambda_k=0.0, n_backtracks=0, phi_y=0.0, phi_next=0.0,
        )
        for k, (nu, d) in enumerate(zip(nus, d_norms))
    ]
    return Trace("synthetic", SolverConfig(), np.zeros(1), records,
                 np.zeros(1), 0.0, Termination.MAX_ITER)


# --- the first step -------------------------------------------------------------


def test_init_zhang_hager_offset():
    nu0, memory = ZhangHagerNu(c0_offset=1.0).allowance(None, 0, 2.0, None, 1.0)
    assert nu0 == 1.0
    assert memory == (1.0, 3.0)  # (Q_0, C_0)


def test_init_grippo_single_value_window():
    nu0, window = GrippoNu(m=5).allowance(None, 0, 7.0, None, 1.0)
    assert nu0 == 0.0
    assert window == (7.0,)


def test_init_zero_and_direct():
    assert ZeroNu().allowance(None, 0, 1.0, None, 1.0) == (0.0, None)
    nu0, memory = DirectNu(nu0=0.25).allowance(None, 0, 1.0, None, 1.0)
    assert nu0 == 0.25 and memory == (1.0, 0.25)


def test_init_ratio_defers_to_first_direction():
    nu0, memory = RatioNu(omega=0.01).allowance(None, 0, 1.0, None, 8.0 / 9.0)
    assert nu0 == 0.01 * 8.0 / 9.0 and memory is None


# --- later steps -------------------------------------------------------------------


def test_direct_update_takes_the_admissible_bound():
    spec = DirectNu(delta=0.5)
    # phi fell from 5 to 4 after an allowance of 0.2
    nu, memory = spec.allowance((5.0, 0.2), 1, 4.0, 0.0, 1.0)
    assert nu == pytest.approx(0.5 * 1.2)
    assert memory == (4.0, nu)


def test_direct_update_floors_a_negative_budget_at_zero():
    # the descent inequality that a negative budget breaks is checked by
    # the solver loop, as descent_y and linesearch
    nu, memory = DirectNu(delta=0.5).allowance((0.0, 0.0), 3, 1.0, 0.0, 1.0)
    assert nu == 0.0 and memory == (1.0, 0.0)


def _overshooting_search(monkeypatch, at_call):
    """Make the solver's linesearch accept, on its ``at_call``-th call, a
    value 10 above what it found: past the allowance, so the step's
    linesearch inequality and the direct rule's budget both break."""
    calls = []
    real = drivers.nonmonotone_search

    def search(*args, **kwargs):
        res = real(*args, **kwargs)
        calls.append(res)
        if len(calls) == at_call:
            res = dataclasses.replace(res,
                                      accepted_value=res.accepted_value + 10.0)
        return res

    monkeypatch.setattr(drivers, "nonmonotone_search", search)
    return calls


def test_direct_rule_broken_step_is_flagged_by_the_loop(monkeypatch):
    prob = problems.resolve("ex2")
    cfg = dataclasses.replace(problems.experiment_config(),
                              nu=DirectNu(delta=0.5, nu0=0.1))
    _overshooting_search(monkeypatch, at_call=1)
    with pytest.raises(InvariantViolation, match="^linesearch failed at "
                                                 "iteration 0:"):
        run_inmbdca(prob, cfg, [2.0, 1.0], seed=11)
    # strict=False warns and runs on, through the direct rule's update of
    # the negative budget, to a normal stop
    calls = _overshooting_search(monkeypatch, at_call=1)
    with pytest.warns(RuntimeWarning, match="linesearch failed at iteration 0"):
        trace = run_inmbdca(prob, cfg, [2.0, 1.0], seed=11, strict=False)
    first = trace.records[0]
    assert first.phi_x - first.phi_next + first.nu_k + first.eps_k < 0.0
    assert len(calls) > 1 and trace.records[1].nu_k == 0.0
    assert trace.termination in (Termination.STEP_TOL, Termination.D_ZERO)


@pytest.mark.parametrize("delta", [0.3, 0.55, 0.75, 1.0])
def test_direct_update_stays_inside_admissible_band(rng, delta):
    # 0 <= nu_{k+1} <= (1 - 0.3) * budget for any delta >= 0.3
    spec = DirectNu(delta=delta)
    nu, _ = spec.allowance(None, 0, 0.0, None, 1.0)
    for k in range(1, 201):
        drop = float(rng.uniform(-0.9 * nu, 2.0))
        budget = drop + nu
        # phi fell by drop, to 0
        nu, _ = spec.allowance((drop, nu), k, 0.0, 0.0, 1.0)
        assert 0.0 <= nu <= (1 - 0.3) * budget + 1e-12


def test_grippo_nonnegative_and_zero_at_window_max(rng):
    spec = GrippoNu(m=4)
    nu, window = spec.allowance(None, 0, 3.0, None, 1.0)
    assert nu == 0.0
    phi_prev = 3.0
    for k in range(1, 101):
        phi = phi_prev - float(rng.uniform(-0.9 * nu, 1.0))
        nu, window = spec.allowance(window, k, phi, 0.0, 1.0)
        assert nu >= 0.0
        if phi >= max(window):
            assert nu == 0.0
        phi_prev = phi


def _feed(spec, phis):
    """Allowance and memory after the values ``phis``, one per step."""
    nu = memory = None
    for k, phi in enumerate(phis):
        nu, memory = spec.allowance(memory, k, phi, 1.0, 1.0)
    return nu, memory


def test_grippo_update_window_max():
    # the window reads [5, 3, 4], then 4 is pushed
    nu, window = _feed(GrippoNu(m=3), [5.0, 3.0, 4.0, 4.0])
    assert window == (5.0, 3.0, 4.0, 4.0)
    assert nu == pytest.approx(1.0)


def test_grippo_window_is_capped():
    _, window = _feed(GrippoNu(m=2), [10.0, 9.0, 8.0, 7.0, 6.0])
    assert window == (8.0, 7.0, 6.0)


def test_ratio_update_uses_next_index():
    # step k divides by k + 1
    spec = RatioNu(omega=0.01)
    nu, _ = spec.allowance(None, 1, 0.5, 0.0, 2.0)
    assert nu == pytest.approx(0.01 * 2.0 / 2.0)
    nu, _ = spec.allowance(None, 9, 0.5, 0.0, 3.0)
    assert nu == pytest.approx(0.01 * 3.0 / 10.0)


@pytest.mark.parametrize("spec", [
    ZeroNu(), DirectNu(delta=0.25, nu0=0.3), DirectNu(),
    ZhangHagerNu(eta=0.5, c0_offset=0.2), ZhangHagerNu(), GrippoNu(m=3),
    RatioNu(omega=0.01),
], ids=["zero", "direct", "direct-defaults", "zhang_hager",
        "zhang_hager-defaults", "grippo", "ratio"])
def test_recorded_allowances_replay_bit_for_bit(spec):
    # each kind's one recurrence, rerun over a trace's phi(x^k), eps_{k-1}
    # and ||y - x||^2, gives every recorded nu_k: the loop runs nothing else
    prob = problems.resolve("ex2")
    cfg = dataclasses.replace(problems.experiment_config(), nu=spec,
                              eps=EpsSchedule.geometric(0.1, 0.5))
    for x0 in ([5.0, -6.0], [-4.4615, -9.0766]):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            trace = run_inmbdca(prob, cfg, x0, seed=5)
        assert len(trace.records) > 3
        memory = eps_prev = None
        for r in trace.records:
            d = r.y - r.x
            nu, memory = spec.allowance(memory, r.k, r.phi_x, eps_prev,
                                        float(d @ d))
            assert nu == r.nu_k
            eps_prev = r.eps_k


# --- zhang-hager algebra -----------------------------------------------------------


def test_zhang_hager_identity_synthetic_50_steps(rng):
    spec = ZhangHagerNu(eta=0.7)
    phi = 5.0
    nu, memory = spec.allowance(None, 0, phi, None, 1.0)
    for k in range(1, 51):
        # stay inside the admissible budget: phi may rise by less than nu
        drop = float(rng.uniform(-0.9 * nu if nu > 0 else 0.0, 1.0))
        phi_next = phi - drop
        q_prev = memory[0]
        nu_next, memory = spec.allowance(memory, k, phi_next, 0.0, 1.0)
        q = memory[0]
        delta = 1.0 / q
        expected = (1.0 - delta) * (phi - phi_next + nu)
        assert nu_next == pytest.approx(expected, abs=1e-12)
        assert delta >= (1.0 - spec.eta) - 1e-12
        assert q >= 1.0
        assert q == pytest.approx(0.7 * q_prev + 1.0)
        phi, nu = phi_next, nu_next


def test_zhang_hager_stays_nonnegative_with_positive_eps():
    # with a positive approximate-subgradient budget the raw cost-update gap
    # can dip below zero; the returned allowance must be floored at zero
    spec = ZhangHagerNu(eta=0.8, c0_offset=0.2)
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
        nu=ZhangHagerNu(eta=0.8, c0_offset=0.5),
    )
    trace = run_inmbdca(prob, cfg, [-4.4615, -9.0766], seed=3)
    assert len(trace.records) > 3
    # replay the recurrence from the recorded phi values
    spec = cfg.nu
    nu, memory = spec.allowance(None, 0, trace.records[0].phi_x, None, 0.0)
    assert trace.records[0].nu_k == nu
    for prev, curr in zip(trace.records, trace.records[1:]):
        nu, memory = spec.allowance(memory, curr.k, curr.phi_x, prev.eps_k,
                                    0.0)
        expected = (1.0 - 1.0 / memory[0]) * (prev.phi_x - curr.phi_x
                                              + prev.nu_k)
        assert nu == pytest.approx(expected, abs=1e-12)
        assert curr.nu_k == nu


# --- verifiers -----------------------------------------------------------------------


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
    # with delta > 0 and zero eps the later allowances sum below
    # (phi(x0) + nu0 - phibar) * (1 - delta) / delta
    spec = DirectNu(delta=0.3, nu0=0.1)
    cfg = dataclasses.replace(problems.experiment_config(), nu=spec)
    for name in ("ex1", "ex2"):
        prob = problems.resolve(name)
        trace = run_inmbdca(prob, cfg, [6.0, 7.5], seed=11)
        nus = [r.nu_k for r in trace.records]
        bound = (
            (trace.records[0].phi_x + nus[0] - prob.phi_lower_bound)
            * (1 - spec.delta) / spec.delta
        )
        assert sum(nus[1:]) <= bound + 1e-9
