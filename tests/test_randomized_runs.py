"""Randomized end-to-end regression: arbitrary separable instances under
arbitrary valid configurations must keep every certificate intact, including
instances where g and h share an l1 kink at the solution."""

import dataclasses
import warnings

import numpy as np

from dcboost.certificates import slacks
from dcboost.core import (
    DirectNu,
    EpsSchedule,
    GrippoNu,
    InexactMode,
    LambdaBarRule,
    RatioNu,
    ZeroNu,
    ZhangHagerNu,
)
from dcboost.drivers import (
    complexity_report,
    final_residual,
    run_inmbdca,
)
from dcboost import problems


def test_randomized_configurations_keep_certificates():
    rng = np.random.default_rng(424242)
    modes = list(InexactMode)
    terminated = 0
    for _ in range(80):
        dim = int(rng.integers(1, 6))
        prob = problems.random_separable(dim, seed=int(rng.integers(0, 10**6)))
        nu = [
            ZeroNu(),
            RatioNu(omega=float(rng.uniform(0.001, 0.5))),
            DirectNu(delta_min=0.2, delta=0.5, nu0=float(rng.uniform(0, 1))),
            ZhangHagerNu(eta_min=0.0, eta_max=0.8, c0_offset=0.5),
            GrippoNu(m=int(rng.integers(1, 6))),
        ][rng.integers(0, 5)]
        eps = [
            EpsSchedule.zero(),
            EpsSchedule.geometric(float(rng.uniform(0, 0.5)), 0.5),
            EpsSchedule.harmonic2(float(rng.uniform(0, 0.5))),
        ][rng.integers(0, 3)]
        cfg = dataclasses.replace(
            problems.experiment_config(),
            rho=float(rng.uniform(0.1, 2.0)),
            beta=float(rng.uniform(0.05, 0.9)),
            theta=float(rng.uniform(0.0, 0.49)) * prob.sigma,
            lambda_bar=LambdaBarRule.constant(float(rng.uniform(0.0, 3.0))),
            nu=nu,
            eps=eps,
            inexact_mode=modes[rng.integers(0, 3)],
            max_iter=200,
        )
        x0 = rng.uniform(-10, 10, dim)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            trace = run_inmbdca(prob, cfg, x0, seed=int(rng.integers(0, 10**6)))

        for r in trace.records:
            s = slacks(r, prob, cfg)
            assert s["descent_y"] >= -1e-9 and s["descent_step"] >= -1e-9
            assert r.inexact_lhs <= r.inexact_rhs + 1e-12
            assert r.eps_certified <= r.eps_k + 1e-15
            assert r.nu_k >= 0.0
        if trace.records:
            phi_bar = min(
                min(r.phi_x, r.phi_y, r.phi_next) for r in trace.records
            ) - 1e-6
            rep = complexity_report(trace, phi_bar, prob.sigma, cfg.theta)
            assert rep.prefix_ok
        if trace.termination.value in ("step_tol", "d_zero"):
            terminated += 1
            assert final_residual(prob, trace) <= 1e-3
    assert terminated >= 40
