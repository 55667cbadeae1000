import dataclasses
import math
import warnings

import numpy as np
import pytest

from dcboost.certificates import replay, slack_columns
from dcboost.convex import Sum
from dcboost.core import (
    DcProblem,
    DirectNu,
    EpsSchedule,
    InexactMode,
    InvariantViolation,
    Termination,
    ZeroNu,
    config_to_flat,
)
from dcboost.drivers import (
    _flag,
    complexity_report,
    criticality_residual,
    final_residual,
    run_inmbdca,
    solver_config,
)
from dcboost.linesearch import tau_bound
from dcboost import drivers, problems


EX1 = problems.resolve("ex1")
EX2 = problems.resolve("ex2")
REF = problems.experiment_config()


from conftest import edited, traces_field_equal as records_equal


def descends(prob, trace):
    """Both halves of the descent to y, and the descent from y along the
    step, hold on every record, to 1e-9."""
    s = slack_columns(trace.records, prob, trace.config, trace.final_x)
    return all((s[name] >= -1e-9).all() for name in (
        "g_linearization", "h_eps_subgradient", "linesearch"))


# --- main runs -------------------------------------------------------------------


def test_reference_run_reaches_the_unique_critical_point():
    trace = run_inmbdca(EX2, REF, [-4.4615, -9.0766], seed=5)
    assert trace.termination is Termination.STEP_TOL
    assert np.linalg.norm(trace.final_x - np.array([1.5, 0.0])) < 1e-3
    assert abs(trace.final_phi + 1.125) < 1e-5


def test_critical_start_stops_on_zero_direction():
    cfg = dataclasses.replace(REF, theta=0.0, eps=EpsSchedule.zero(),
                              inexact_mode=InexactMode.EXACT)
    trace = run_inmbdca(EX2, cfg, [1.5, 0.0], seed=0)
    assert trace.termination is Termination.D_ZERO
    assert len(trace.records) <= 1
    np.testing.assert_allclose(trace.final_x, [1.5, 0.0])


def test_max_iter_zero_yields_empty_trace():
    cfg = dataclasses.replace(REF, max_iter=0)
    trace = run_inmbdca(EX1, cfg, [3.0, 4.0], seed=0)
    assert trace.records == []
    assert trace.termination is Termination.MAX_ITER
    np.testing.assert_allclose(trace.final_x, [3.0, 4.0])
    assert trace.final_phi == pytest.approx(EX1.phi([3.0, 4.0]))


def test_invalid_config_rejected():
    cfg = dataclasses.replace(REF, theta=0.6)
    with pytest.raises(ValueError, match="invalid configuration"):
        run_inmbdca(EX1, cfg, [1.0, 1.0])


@pytest.mark.parametrize("mode", [InexactMode.INNER_SOLVER,
                                  InexactMode.PERTURBED_EXACT])
def test_inexact_mode_without_theta_rejected(mode):
    cfg = dataclasses.replace(REF, theta=0.0, inexact_mode=mode)
    with pytest.raises(ValueError, match=f"inexact_mode {mode.value} needs "
                                         "theta > 0"):
        run_inmbdca(EX2, cfg, [1.0, 1.0])
    # solver_config gives the baselines the exact mode, which needs no theta
    for solver in ("nmbdca", "bdca", "dca"):
        assert run_inmbdca(EX2, solver_config(solver, cfg), [1.0, 1.0]).records


def test_runs_are_deterministic_given_seed():
    a = run_inmbdca(EX2, REF, [-4.4615, -9.0766], seed=9)
    b = run_inmbdca(EX2, REF, [-4.4615, -9.0766], seed=9)
    assert records_equal(a, b, tol=0.0)


@pytest.mark.parametrize("name", ["ex2", "random-sep(dim=1000,seed=0)"])
def test_step_tolerance_reads_the_step_norm_bit_for_bit(name):
    # the run stops once ||x_{k+1} - x_k|| < stop_step_tol, the norm taken as
    # np.linalg.norm takes it: at each new smallest step k, a tolerance one
    # ulp above that step stops the run at k, and the step itself stops it
    # at the next new smallest step
    prob = problems.resolve(name)
    x0 = np.linspace(-4.0, 3.0, prob.dim)
    cfg = dataclasses.replace(REF, stop_step_tol=1e-300, max_iter=25)
    xs = [r.x for r in run_inmbdca(prob, cfg, x0, seed=3).records]
    steps = [float(np.linalg.norm(b - a)) for a, b in zip(xs, xs[1:])]
    new_min = [k for k, s in enumerate(steps) if s < min(steps[:k], default=np.inf)]
    assert len(new_min) > 10

    def stops_at(tol):
        trace = run_inmbdca(prob, dataclasses.replace(cfg, stop_step_tol=tol),
                            x0, seed=3)
        if trace.termination is Termination.STEP_TOL:
            return len(trace.records) - 1
        return None

    for k in new_min:
        assert stops_at(float(np.nextafter(steps[k], np.inf))) == k
    for k, later in zip(new_min, new_min[1:]):
        assert stops_at(steps[k]) == later


# --- reductions --------------------------------------------------------------------


def test_inmbdca_with_exactness_collapses_to_nmbdca():
    base = dataclasses.replace(REF, nu=ZeroNu())
    inexact_cfg = dataclasses.replace(
        base, theta=0.0, eps=EpsSchedule.zero(), inexact_mode=InexactMode.EXACT
    )
    # nmBDCA overrides mode and schedule itself; hand it the noisy versions
    nm_cfg = dataclasses.replace(
        base, theta=0.0, eps=EpsSchedule.geometric(0.3, 0.5),
        inexact_mode=InexactMode.INNER_SOLVER,
    )
    a = run_inmbdca(EX2, inexact_cfg, [4.0, -7.0], seed=2)
    b = run_inmbdca(EX2, solver_config("nmbdca", nm_cfg), [4.0, -7.0])
    assert records_equal(a, b)


def test_zero_boost_collapses_to_dca():
    base = dataclasses.replace(
        REF, nu=ZeroNu(), theta=0.0, eps=EpsSchedule.zero(),
        inexact_mode=InexactMode.EXACT,
        lambda_bar=0.0,
    )
    a = run_inmbdca(EX1, base, [6.2945, 8.1158], seed=2)
    b = run_inmbdca(EX1, solver_config(
        "dca", dataclasses.replace(base, lambda_bar=1.0)), [6.2945, 8.1158])
    assert records_equal(a, b)
    assert all(r.lambda_k == 0.0 for r in a.records)


def test_bdca_is_monotone_on_smooth_g():
    # ex1's g is smooth, so with nu = 0 every step must decrease phi
    trace = run_inmbdca(EX1, solver_config("bdca", REF), [6.2945, 8.1158])
    phis = [r.phi_x for r in trace.records] + [trace.final_phi]
    assert all(b <= a + 1e-12 for a, b in zip(phis, phis[1:]))


def test_dca_one_step_from_reference_point():
    cfg = dataclasses.replace(REF, max_iter=1)
    trace = run_inmbdca(EX1, solver_config("dca", cfg), [1.0, 1.0])
    np.testing.assert_allclose(trace.records[0].y, [1 / 3, 1 / 3], atol=1e-14)
    np.testing.assert_allclose(trace.final_x, [1 / 3, 1 / 3], atol=1e-14)


def test_dca_lands_on_a_critical_point():
    trace = run_inmbdca(EX1, solver_config("dca", REF), [6.2945, 8.1158])
    dists = [np.linalg.norm(trace.final_x - np.asarray(p))
             for p in EX1.known_critical_points]
    assert min(dists) < 1e-3
    assert criticality_residual(EX1, trace.final_x) < 1e-3


def test_dca_immediate_stop_at_critical_point():
    trace = run_inmbdca(EX1, solver_config("dca", REF), [-1.0, -1.0])
    assert trace.termination is Termination.D_ZERO
    assert len(trace.records) <= 1


def test_dca_evaluates_g_only_together_with_h(monkeypatch):
    # every dca step is a zero step, after which x is y, whose phi the loop
    # already holds: g is evaluated only through value_rows, never alone
    calls = []
    value = Sum.value

    def counted(self, x):
        calls.append(x)
        return value(self, x)

    monkeypatch.setattr(Sum, "value", counted)
    starts = problems.sample_starts(20, [-10, 10], 42, 2)
    dca = solver_config("dca", REF)
    iters = sum(len(run_inmbdca(EX2, dca, x0).records) for x0 in starts)
    assert iters > 300 and calls == []


def test_one_row_evaluation_per_iteration_and_no_rng_where_nothing_draws(
        monkeypatch):
    # phi at x0, then at y and the first two trial points of each iteration
    # in one value_rows call; only a later trial is evaluated alone, g and h
    # once each, so a run whose searches accept within one backtrack
    # evaluates nothing more.  Only a run that can draw makes a generator
    rows, alone, made = [], [], []
    value_rows, value = drivers.value_rows, Sum.value
    default_rng = np.random.default_rng

    def counted_rows(f1, f2, Z):
        rows.append(len(Z))
        return value_rows(f1, f2, Z)

    def counted_value(self, x):
        alone.append(x)
        return value(self, x)

    def counted_rng(*args):
        made.append(args)
        return default_rng(*args)

    starts = problems.sample_starts(20, [-10, 10], 42, 2)
    monkeypatch.setattr(drivers, "value_rows", counted_rows)
    monkeypatch.setattr(Sum, "value", counted_value)
    monkeypatch.setattr(np.random, "default_rng", counted_rng)
    short = 0
    for i, x0 in enumerate(starts):
        rows.clear()
        alone.clear()
        trace = run_inmbdca(EX2, REF, x0, seed=[42, i])
        assert rows == [1] + [3] * len(trace.records)
        # an exhausted search examines max_backtracks + 1 trials, as
        # n_backtracks counts
        later = sum(max(min(r.n_backtracks, REF.max_backtracks) - 1, 0)
                    for r in trace.records)
        assert len(alone) == 2 * later
        short += later == 0
    assert 0 < short < len(starts) and made == []

    for solver in ("nmbdca", "bdca", "dca"):
        cfg = solver_config(solver, REF)
        assert [len(run_inmbdca(EX2, cfg, x0).records) for x0 in starts[:5]]
    assert made == []
    drawing = [dataclasses.replace(REF, eps=EpsSchedule.geometric(0.1)),
               problems.experiment_config(mode=InexactMode.PERTURBED_EXACT)]
    for cfg in drawing:
        run_inmbdca(EX2, cfg, starts[0], seed=[42, 0])
    assert made == [([42, 0],)] * 2


def test_monotone_configuration_is_monotone():
    cfg = dataclasses.replace(REF, nu=ZeroNu(), theta=0.0,
                              eps=EpsSchedule.zero(),
                              inexact_mode=InexactMode.EXACT)
    for prob, x0 in ((EX1, [5.0, -3.0]), (EX2, [-8.0, 9.0])):
        trace = run_inmbdca(prob, cfg, x0, seed=1)
        phis = [r.phi_x for r in trace.records] + [trace.final_phi]
        assert all(b <= a + 1e-12 for a, b in zip(phis, phis[1:]))


def test_direct_rule_keeps_phi_plus_nu_nonincreasing():
    cfg = dataclasses.replace(
        REF, nu=DirectNu(delta=0.5, nu0=0.5),
        eps=EpsSchedule.zero(),
    )
    trace = run_inmbdca(EX2, cfg, [-6.0, 4.0], seed=3)
    merit = [r.phi_x + r.nu_k for r in trace.records]
    assert all(b <= a + 1e-9 for a, b in zip(merit, merit[1:]))


def test_direct_rule_with_zero_delta_warns():
    cfg = dataclasses.replace(REF, nu=DirectNu(delta=0.0, nu0=0.5))
    with pytest.warns(RuntimeWarning, match="delta = 0"):
        run_inmbdca(EX2, cfg, [1.0, 1.0], seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_inmbdca(EX2, dataclasses.replace(REF, nu=DirectNu(delta=1e-3)),
                    [1.0, 1.0], seed=0)


# --- per-iteration certificates ----------------------------------------------------


@pytest.fixture(scope="module")
def sample_traces():
    traces = []
    for prob in (EX1, EX2):
        for mode in InexactMode:
            cfg = dataclasses.replace(REF, inexact_mode=mode)
            for i, x0 in enumerate(problems.sample_starts(5, [-10, 10], 17, 2)):
                traces.append((prob, run_inmbdca(prob, cfg, x0, seed=[17, i])))
    return traces


def test_trace_reconstruction(sample_traces):
    for _, trace in sample_traces:
        for prev, nxt in zip(trace.records, trace.records[1:]):
            d = prev.y - prev.x
            err = np.max(np.abs(nxt.x - (prev.y + prev.lambda_k * d)))
            assert err <= 1e-12
        if trace.records:
            last = trace.records[-1]
            err = np.max(np.abs(
                trace.final_x - (last.y + last.lambda_k * (last.y - last.x))
            ))
            assert err <= 1e-9


def test_relative_error_condition_on_every_iteration(sample_traces):
    for _, trace in sample_traces:
        for r in trace.records:
            assert r.inexact_lhs <= trace.config.theta * r.d_norm + 1e-12
            assert r.eps_certified <= r.eps_k + 1e-15


def test_descent_certificates_on_every_iteration(sample_traces):
    for prob, trace in sample_traces:
        assert descends(prob, trace)


def test_linesearch_condition_on_every_iteration(sample_traces):
    for _, trace in sample_traces:
        rho = trace.config.rho
        for r in trace.records:
            bound = r.phi_y - rho * r.lambda_k**2 * r.d_norm**2 + r.nu_k
            assert r.phi_next <= bound + 1e-12


def test_final_residual_small_on_terminated_runs(sample_traces):
    for prob, trace in sample_traces:
        assert trace.termination in (Termination.STEP_TOL, Termination.D_ZERO)
        assert final_residual(prob, trace) <= 1e-3


def _tau(prob, trace, r):
    """The step floor of record ``r`` (nu_k > 0), derived from the record."""
    return tau_bound(prob.g, r.x, r.y, r.y - r.x, r.nu_k, r.eps_k, prob.sigma,
                     trace.config.rho)


def test_backtrack_count_bounded_on_recorded_searches(sample_traces):
    import math

    for prob, trace in sample_traces:
        beta, lambda_bar = trace.config.beta, trace.config.lambda_bar
        for r in trace.records:
            if r.nu_k <= 0 or lambda_bar <= 0:
                continue
            ratio = min(_tau(prob, trace, r).tau, lambda_bar) / lambda_bar
            bound = max(0, math.ceil(math.log(ratio) / math.log(beta))) + 1
            assert r.n_backtracks <= bound


@pytest.mark.parametrize(
    "eps", [EpsSchedule.geometric(0.1, 0.5), EpsSchedule.harmonic2(0.1)]
)
def test_positive_eps_schedules_converge_with_certificates(eps):
    cfg = dataclasses.replace(REF, eps=eps)
    for prob, target in ((EX2, np.array([1.5, 0.0])),):
        trace = run_inmbdca(prob, cfg, [-4.4615, -9.0766], seed=13)
        assert trace.termination is Termination.STEP_TOL
        assert np.linalg.norm(trace.final_x - target) < 1e-3
        assert any(r.eps_k > 0 for r in trace.records)
        assert any(r.eps_certified > 0 for r in trace.records)
        for r in trace.records:
            assert r.eps_certified <= r.eps_k + 1e-15
        assert descends(prob, trace)
        assert final_residual(prob, trace) <= 1e-3
        rep = complexity_report(trace, prob.phi_lower_bound, prob.sigma,
                                cfg.theta)
        assert rep.prefix_ok


def test_tau_fields_populated_when_nu_positive(sample_traces):
    # the floor is derived from a record, not stored in it: every record
    # with nu_k > 0 has d != 0, so tau_bound gives its floor
    seen = 0
    for prob, trace in sample_traces:
        for r in trace.records:
            assert not hasattr(r, "tau") and not hasattr(r, "tau_hat")
            if r.nu_k > 0:
                assert r.d_norm > trace.config.d_zero_tol
                tb = _tau(prob, trace, r)
                assert 0 < tb.tau <= min(1.0, tb.tau_hat) + 1e-15
                seen += 1
    assert seen > 100


# --- descent recheck ------------------------------------------------------------------


def test_descent_y_slack_matches_hand_computation():
    cfg = dataclasses.replace(REF, theta=0.0, eps=EpsSchedule.zero(),
                              inexact_mode=InexactMode.EXACT, max_iter=1,
                              nu=ZeroNu())
    trace = run_inmbdca(EX1, solver_config("dca", cfg), [1.0, 1.0])
    assert EX1.sigma == 1.0
    s = slack_columns(trace.records, EX1, trace.config, trace.final_x)
    # x = (1, 1), y = (1/3, 1/3), w = (2, 2): <w, d> = -8/3, c ||d||^2 =
    # 4/9; g goes 5 -> 1 and phi 2 -> 2/9, so h goes 3 -> 7/9
    g_half, = s["g_linearization"]
    h_half, = s["h_eps_subgradient"]
    assert g_half == pytest.approx(5 - 1 - 8 / 3 - 4 / 9, abs=1e-12)
    assert h_half == pytest.approx(7 / 9 - 3 + 8 / 3, abs=1e-12)
    # together, the descent to y: phi(y) = 2/9 against 2 - 4/9, slack 4/3
    assert g_half + h_half == pytest.approx(4 / 3, abs=1e-12)


def test_replay_flags_corrupted_descent_y():
    trace = run_inmbdca(EX2, REF, [3.0, 3.0], seed=1)
    trace = edited(trace, {2: {"phi_y": trace.records[2].phi_y + 1.0}})
    worst = replay(trace, EX2)
    slack_h, k = worst["h_eps_subgradient"]
    assert k == 2
    assert slack_h < -0.5
    assert worst["g_linearization"][0] >= 0.0


def test_theta_near_boundary_still_descends():
    cfg = dataclasses.replace(REF, theta=0.5 - 1e-9)
    trace = run_inmbdca(EX2, cfg, [2.0, -2.0], seed=4)
    assert descends(EX2, trace)


def test_overflowing_start_fails_at_first_iteration():
    # phi(1e308, 0) is inf - inf = NaN, which every check must count as failed
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(InvariantViolation, match="at iteration 0:"):
            run_inmbdca(EX2, REF, [1e308, 0.0], seed=0)


def test_non_finite_phi_records_its_iteration_and_stops():
    # a lenient run from the same start ends after that one record, a zero
    # step to y: the lines that read phi fail and reconstruction holds
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        trace = run_inmbdca(EX2, REF, [1e308, 0.0], seed=0, strict=False)
    assert trace.termination is Termination.NON_FINITE
    r, = trace.records
    assert np.isnan(r.phi_x) and r.lambda_k == 0.0 and r.nu_k == 0.0
    assert trace.final_x.tobytes() == r.y.tobytes()
    flagged = {str(w.message).split(" failed")[0] for w in caught
               if " failed at iteration 0:" in str(w.message)}
    assert flagged == {"g linearization", "h eps subgradient", "linesearch",
                       "phi lower bound"}


# --- criticality residual ----------------------------------------------------------------


def test_residual_examples():
    assert criticality_residual(EX1, [-1.0, -1.0]) == 0.0
    assert criticality_residual(EX2, [1.5, 0.0]) == 0.0
    assert criticality_residual(EX2, [0.0, 0.0]) == pytest.approx(1.5)


def test_residual_eps_widening_never_increases():
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.uniform(-2, 2, 2)
        r0 = criticality_residual(EX2, x, 0.0)
        r1 = criticality_residual(EX2, x, 0.1)
        assert r1 <= r0 + 1e-12


# --- complexity report ------------------------------------------------------------------


def test_report_single_iteration_formula():
    cfg = dataclasses.replace(REF, max_iter=1)
    trace = run_inmbdca(EX2, cfg, [-4.0, 6.0], seed=7)
    rep = complexity_report(trace, -1.125, EX2.sigma, cfg.theta)
    r = trace.records[0]
    expected = np.sqrt(
        (r.phi_x + 1.125 + r.nu_k + r.eps_k) / (EX2.sigma / 2 - cfg.theta)
    )
    assert rep.n == 1
    assert rep.min_d_norm == pytest.approx(r.d_norm)
    assert rep.bound_total == pytest.approx(expected, rel=1e-12)
    assert rep.prefix_ok


def test_report_full_run_prefixes_hold():
    trace = run_inmbdca(EX2, REF, [-4.4615, -9.0766], seed=5)
    rep = complexity_report(trace, -1.125, EX2.sigma, REF.theta)
    assert rep.prefix_ok
    assert rep.min_d_norm <= rep.bound_total + 1e-10
    assert rep.liminf_proxy <= rep.min_d_norm + 1e-15
    # ratio allowance is eventually dominated, so the tail bound applies
    assert rep.tail_start is not None
    assert rep.bound_tail is not None
    assert rep.bound_tail >= rep.min_d_norm - 1e-10
    assert rep.bound_tail_stated <= rep.bound_tail


def test_report_flags_corrupted_directions():
    trace = run_inmbdca(EX2, REF, [-4.4615, -9.0766], seed=5)
    corrupted = dataclasses.replace(
        trace,
        records=[dataclasses.replace(r, y=r.x + 100.0 * (r.y - r.x))
                 for r in trace.records],
    )
    rep = complexity_report(corrupted, -1.125, EX2.sigma, REF.theta)
    assert not rep.prefix_ok


def test_report_rejects_bad_lower_bound():
    trace = run_inmbdca(EX2, REF, [-4.4615, -9.0766], seed=5)
    with pytest.raises(ValueError, match="lower bound"):
        complexity_report(trace, 0.0, EX2.sigma, REF.theta)


def test_report_takes_the_direction_norms_once(monkeypatch):
    calls = []
    norms = drivers.row_norms

    def counted(V):
        calls.append(len(V))
        return norms(V)

    trace = run_inmbdca(EX2, REF, [-4.4615, -9.0766], seed=5)
    monkeypatch.setattr(drivers, "row_norms", counted)
    rep = complexity_report(trace, -1.125, EX2.sigma, REF.theta)
    assert rep.tail_start is not None
    assert calls == [len(trace.records)]


def test_report_needs_records():
    cfg = dataclasses.replace(REF, max_iter=0)
    trace = run_inmbdca(EX2, cfg, [1.0, 1.0], seed=0)
    with pytest.raises(ValueError, match="nonempty"):
        complexity_report(trace, -1.125, EX2.sigma, cfg.theta)


# --- the diagnostics against a record by record reference ----------------------------


def _lowest_phi_by_records(trace):
    return min(min(min(r.phi_x, r.phi_y, r.phi_next) for r in trace.records),
               trace.final_phi)


def _domination_start_by_records(records, d_norms, delta):
    k0 = None
    for k in range(len(records) - 1, -1, -1):
        if not records[k].nu_k <= delta * (d_norms[k] * d_norms[k]):
            break
        k0 = k
    return k0


def _report_by_records(trace, phi_bar, sigma, theta, xi):
    """``complexity_report`` as a loop over the records' views, in Python
    floats: the reference its column expressions must give bit for bit."""
    records = trace.records
    coef = sigma / 2 - theta
    seen = _lowest_phi_by_records(trace)
    if not phi_bar <= seen + 1e-9:
        raise ValueError(
            f"phi_bar={phi_bar} exceeds a recorded value phi={seen}; not a "
            "lower bound"
        )
    d_norms = [r.d_norm for r in records]
    k0 = _domination_start_by_records(records, d_norms, xi * coef)
    phi0 = records[0].phi_x
    min_d = math.inf
    sum_nu = sum_eps = 0.0
    prefix_ok = eps_dominated = True
    bound = math.inf
    for n, (r, d_norm) in enumerate(zip(records, d_norms), start=1):
        if n - 1 == k0:
            numer = phi0 - phi_bar + sum_nu + sum_eps
        min_d = min(min_d, d_norm)
        sum_nu += r.nu_k
        sum_eps += r.eps_k
        bound = math.sqrt((phi0 - phi_bar + sum_nu + sum_eps) / (coef * n))
        if min_d > bound + 1e-10:
            prefix_ok = False
        if not r.eps_k <= xi * coef * (d_norm * d_norm) + 1e-15:
            eps_dominated = False
    n_total = len(records)
    tail_start = bound_tail = bound_tail_stated = None
    if k0 is not None and eps_dominated:
        tail_start = k0
        bound_tail = math.sqrt(numer / ((1 - 2 * xi) * coef * n_total))
        bound_tail_stated = math.sqrt(numer / ((1 - xi) * coef * n_total))
    return drivers.ComplexityReport(
        n_total, min_d, bound, prefix_ok, min(d_norms[n_total // 2:]), xi,
        tail_start, bound_tail, bound_tail_stated)


def _final_residual_by_records(problem, trace):
    r, xf = trace.records[-1], trace.final_x
    gap_g = (problem.g.value(xf) - problem.g.value(r.y)
             - float(r.xi @ (xf - r.y)))
    gap_h = (r.eps_k + problem.h.value(xf) - problem.h.value(r.x)
             - float(r.w @ (xf - r.x)))
    return criticality_residual(problem, xf, max(r.eps_k, gap_g, gap_h, 0.0))


def _outcome(report, *args):
    try:
        return repr(dataclasses.astuple(report(*args)))
    except ValueError as exc:
        return f"ValueError: {exc}"


def _edge_traces():
    """Traces whose norms, allowances and values reach the corners of the
    report: overflowing and NaN directions, each position of k0, NaN phi
    values, one record, a lenient run whose phi is NaN and a run that stops
    at once."""
    base = run_inmbdca(EX2, REF, [-4.4615, -9.0766], seed=5)
    last = len(base.records) - 1
    traces = {"run": base}
    for at, k in (("first", 0), ("middle", last // 2), ("last", last)):
        traces[f"y_overflows_at_{at}"] = edited(
            base, {k: {"y": np.array([1e308, -1e308])}})
        traces[f"y_nan_at_{at}"] = edited(
            base, {k: {"y": np.array([np.nan, 0.0])}})
    traces["k0_zero"] = edited(
        base, {k: {"nu_k": 0.0} for k in range(last + 1)})
    eps_before = {k: {"eps_k": 0.01 * r.d_norm ** 2}
                  for k, r in enumerate(base.records[:3])}
    traces["k0_later_with_eps_before"] = edited(
        base, {**eps_before, 3: {"nu_k": 1.0}})
    traces["k0_none"] = edited(base, {last: {"nu_k": 1.0}})
    # Python's min keeps a NaN only where it comes first
    traces["phi_x_nan_at_first"] = edited(base, {0: {"phi_x": np.nan}})
    traces["phi_y_nan_at_middle"] = edited(base,
                                           {last // 2: {"phi_y": np.nan}})
    traces["one_record"] = run_inmbdca(
        EX2, dataclasses.replace(REF, max_iter=1), [-4.0, 6.0], seed=7)
    traces["non_finite"] = run_inmbdca(EX2, REF, [1e308, 0.0], seed=0,
                                       strict=False)
    # a zero direction at once: phi(x^0) is the lowest value recorded
    traces["critical_start"] = run_inmbdca(EX2, dataclasses.replace(
        REF, theta=0.0, inexact_mode=InexactMode.EXACT), [1.5, 0.0], seed=0)
    # ... and with no tail bound to take the square root of its sums
    traces["critical_start_no_tail"] = edited(traces["critical_start"],
                                              {0: {"nu_k": 1e-300}})
    return traces


@pytest.fixture(scope="module")
def edge_traces():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return _edge_traces()


def test_edge_traces_reach_every_domination_case(edge_traces):
    delta = 0.25 * (EX2.sigma / 2 - REF.theta)
    starts = {name: drivers.step_domination_start(edge_traces[name], delta)
              for name in ("k0_zero", "k0_later_with_eps_before", "k0_none")}
    assert starts == {"k0_zero": 0, "k0_later_with_eps_before": 4,
                      "k0_none": None}
    assert np.isnan(edge_traces["non_finite"].records.columns["phi_x"]).all()


EDGE_NAMES = ["run", "k0_zero", "k0_later_with_eps_before", "k0_none",
              "phi_x_nan_at_first", "phi_y_nan_at_middle", "one_record",
              "non_finite", "critical_start", "critical_start_no_tail"] + [
    f"y_{kind}_at_{at}" for kind in ("overflows", "nan")
    for at in ("first", "middle", "last")]


def test_edge_traces_are_the_ones_named(edge_traces):
    assert sorted(edge_traces) == sorted(EDGE_NAMES)


@pytest.mark.parametrize("name", EDGE_NAMES)
def test_diagnostics_match_the_record_by_record_reference(edge_traces, name):
    trace = edge_traces[name]
    lowest = _lowest_phi_by_records(trace)
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore", RuntimeWarning)
        assert repr(drivers.lowest_phi(trace)) == repr(lowest)
        assert repr(final_residual(EX2, trace)) == repr(
            _final_residual_by_records(EX2, trace))
        for xi in (0.1, 0.25, 0.45):
            # the declared bound, the heuristic one, and one 5e-10 above
            # the lowest value: under phi(x^0) when it is the lowest, the
            # bound's square root has a negative argument
            for phi_bar in (EX2.phi_lower_bound, lowest - 1e-6,
                            lowest + 5e-10):
                args = (trace, phi_bar, EX2.sigma, REF.theta, xi)
                assert _outcome(complexity_report, *args) == _outcome(
                    _report_by_records, *args)


# --- strictness --------------------------------------------------------------------------


def test_flag_strict_raises_and_lenient_warns():
    with pytest.raises(InvariantViolation, match="nope"):
        _flag(True, "nope")
    with pytest.warns(RuntimeWarning, match="nope"):
        _flag(False, "nope")


def test_wrong_lower_bound_aborts_run():
    g, h = EX1.g, EX1.h
    bad = DcProblem.from_components("bad-bound", g, h, dim=2,
                                    phi_lower_bound=999.0)
    with pytest.raises(InvariantViolation, match="lower bound"):
        run_inmbdca(bad, REF, [1.0, 1.0], seed=0)


# ids name each solver with the run_ function it once had its own wrapper for
@pytest.mark.parametrize("solver", drivers.SOLVERS,
                         ids=lambda solver: f"{solver}-run_{solver}")
def test_solver_config_is_what_each_driver_runs(solver):
    cfg = dataclasses.replace(REF, eps=EpsSchedule.geometric(1e-2, 0.5))
    trace = run_inmbdca(EX2, solver_config(solver, cfg), [1.0, 1.0])
    assert config_to_flat(trace.config) == config_to_flat(
        solver_config(solver, cfg))
    # the baselines take exact subproblems, bdca no allowance, dca no boost
    exact = solver != "inmbdca"
    assert all((r.eps_k == 0.0) == exact for r in trace.records)
    assert any(r.nu_k > 0.0 for r in trace.records) == (solver != "bdca")
    assert any(r.lambda_k > 0.0 for r in trace.records) == (solver != "dca")
    with pytest.raises(ValueError, match="unknown solver 'pdca'"):
        solver_config("pdca", cfg)
