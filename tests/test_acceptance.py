"""End-to-end acceptance suite.

One test per criterion; each prints a PASS/FAIL line (visible with -s) and
asserts the criterion at its stated tolerance.  The benchmark runs use the
reference study configuration: rho = 0.6, beta = 0.1, trial step 1,
theta = 0.2, allowance 0.01 ||d^k||^2 / (k+1), step tolerance 1e-5, starts
drawn uniformly from [-10, 10]^2.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from dcboost.certificates import slack_columns
from dcboost.core import (
    DirectNu,
    EpsSchedule,
    GrippoNu,
    InexactMode,
    Termination,
    ZeroNu,
    ZhangHagerNu,
)
from dcboost.drivers import (
    complexity_report,
    criticality_residual,
    run_inmbdca,
    solver_config,
)
from dcboost.linesearch import tau_bound
from dcboost.subproblem import solve_exact
from dcboost import problems

from conftest import grid_argmin, random_expr, random_point, traces_field_equal

REF = problems.experiment_config()
N_STARTS = 100
SEED = 42


def report(num, ok, description):
    print(f"[acceptance] criterion {num:2d}: {'PASS' if ok else 'FAIL'} - "
          f"{description}")
    assert ok, f"criterion {num}: {description}"


@pytest.fixture(scope="module")
def study():
    """100 seeded starts per problem under the reference configuration."""
    out = {}
    for name in ("ex1", "ex2"):
        prob = problems.resolve(name)
        starts = problems.sample_starts(N_STARTS, [-10, 10], SEED, prob.dim)
        t0 = time.perf_counter()
        traces = [
            run_inmbdca(prob, REF, x0, seed=[SEED, i])
            for i, x0 in enumerate(starts)
        ]
        out[name] = (prob, traces, time.perf_counter() - t0)
    return out


def test_criterion_1_ex2_unique_target(study):
    prob, traces, wall = study["ex2"]
    target = np.array([1.5, 0.0])
    dist = max(np.linalg.norm(t.final_x - target) for t in traces)
    phi_err = max(abs(t.final_phi + 1.125) for t in traces)
    ok = (
        all(t.termination is Termination.STEP_TOL for t in traces)
        and dist <= 1e-3
        and phi_err <= 1e-5
        and wall < 5.0
    )
    report(1, ok,
           f"ex2 x100: max dist {dist:.2e} (<=1e-3), max |phi - opt| "
           f"{phi_err:.2e} (<=1e-5), {wall:.2f}s (<5s)")


def test_criterion_2_ex1_critical_set(study):
    prob, traces, wall = study["ex1"]
    critical = np.asarray(prob.known_critical_points)
    dist = max(
        min(np.linalg.norm(t.final_x - c) for c in critical) for t in traces
    )
    resid = max(criticality_residual(prob, t.final_x) for t in traces)
    best_phi = min(t.final_phi for t in traces)
    ok = (
        dist <= 1e-3
        and resid <= 1e-3
        and best_phi <= -2.0 + 1e-5
        and wall < 5.0
    )
    report(2, ok,
           f"ex1 x100: max dist to critical set {dist:.2e} (<=1e-3), max "
           f"residual {resid:.2e} (<=1e-3), best phi {best_phi:.9f} "
           f"(<=-2+1e-5), {wall:.2f}s (<5s)")


def test_criterion_3_descent_certificates(study):
    worst = math.inf
    count = 0
    for name in ("ex1", "ex2"):
        prob, traces, _ = study[name]
        for trace in traces:
            s = slack_columns(trace.records, prob, trace.config,
                              trace.final_x)
            # np.min keeps a NaN, which then fails the comparison below
            worst = np.min([worst, s["g_linearization"].min(),
                            s["h_eps_subgradient"].min(),
                            s["linesearch"].min()])
            count += len(trace.records)
    ok = worst >= -1e-9
    report(3, ok,
           f"both halves of the descent to y and the linesearch descent on "
           f"{count} iterations: worst slack "
           f"{worst:.2e} (>=-1e-9)")


def test_criterion_4_inexactness_certificates(study):
    worst_rel = math.inf
    worst_gap = 0.0
    count = 0
    for name in ("ex1", "ex2"):
        prob, traces, _ = study[name]
        mode_runs = {InexactMode.INNER_SOLVER: traces[:10]}
        for mode in (InexactMode.PERTURBED_EXACT, InexactMode.EXACT):
            cfg = dataclasses.replace(REF, inexact_mode=mode)
            starts = problems.sample_starts(10, [-10, 10], SEED + 1, prob.dim)
            mode_runs[mode] = [
                run_inmbdca(prob, cfg, x0, seed=[SEED + 1, i])
                for i, x0 in enumerate(starts)
            ]
        for mode, traces_m in mode_runs.items():
            for trace in traces_m:
                s = slack_columns(trace.records, prob, trace.config,
                                  trace.final_x)
                worst_rel = np.min([worst_rel, s["inexact_bound"].min()])
                worst_gap = np.max([worst_gap,
                                    -s["subgrad_membership"].min()])
                count += len(trace.records)
    ok = worst_rel >= -1e-12 and worst_gap <= 1e-10
    report(4, ok,
           f"relative-error and membership on {count} iterations across all "
           f"three modes: worst margin {worst_rel:.2e} (>=-1e-12), worst "
           f"membership gap {worst_gap:.2e} (<=1e-10)")


def test_criterion_5_tau_guarantee(study):
    states = 0
    worst = math.inf
    for name in ("ex1", "ex2"):
        prob, traces, _ = study[name]
        for trace in traces:
            for r in trace.records:
                d = r.y - r.x
                if r.nu_k <= 0 or not d.any():
                    continue
                d_sq = float(d @ d)
                tau = tau_bound(prob.g, r.x, r.y, d, r.nu_k, r.eps_k,
                                prob.sigma, REF.rho).tau
                for lam in (tau, tau / 2):
                    lhs = prob.phi(r.y + lam * d)
                    rhs = r.phi_y - REF.rho * lam * lam * d_sq + r.nu_k
                    worst = min(worst, rhs - lhs)
                states += 1
    ok = states >= 100 and worst >= -1e-10
    report(5, ok,
           f"acceptance inequality at tau and tau/2 on {states} recorded "
           f"states: worst slack {worst:.2e} (>=-1e-10)")


def test_criterion_6_complexity_bound(study):
    checked = 0
    ok = True
    for name in ("ex1", "ex2"):
        prob, traces, _ = study[name]
        for trace in traces:
            rep = complexity_report(
                trace, prob.phi_lower_bound, prob.sigma, REF.theta
            )
            ok = ok and rep.prefix_ok
            checked += rep.n
    report(6, ok,
           f"decay bound holds on every prefix of every run "
           f"({checked} prefixes, tolerance 1e-10)")


def test_criterion_7_reduction_equivalence():
    base = dataclasses.replace(REF, nu=ZeroNu())
    exact_cfg = dataclasses.replace(
        base, theta=0.0, eps=EpsSchedule.zero(), inexact_mode=InexactMode.EXACT
    )
    # hand solver_config configs it must override for the baselines
    noisy_cfg = dataclasses.replace(
        base, theta=0.0, eps=EpsSchedule.geometric(0.3, 0.5),
        inexact_mode=InexactMode.INNER_SOLVER,
    )
    ok = True
    for name, x0 in (("ex1", [6.2945, 8.1158]), ("ex2", [-4.4615, -9.0766])):
        prob = problems.resolve(name)
        a = run_inmbdca(prob, exact_cfg, x0, seed=1)
        b = run_inmbdca(prob, solver_config("nmbdca", noisy_cfg), x0)
        ok = ok and traces_field_equal(a, b, tol=1e-12)
        c = run_inmbdca(
            prob,
            dataclasses.replace(exact_cfg, lambda_bar=0.0),
            x0, seed=1,
        )
        d = run_inmbdca(prob, solver_config("dca", noisy_cfg), x0)
        ok = ok and traces_field_equal(c, d, tol=1e-12)
    report(7, ok,
           "exactness collapse: inmbdca(theta=0, eps=0, nu=0, exact) equals "
           "nmbdca, and zero-boost equals dca, field-identical to 1e-12")


def test_criterion_8_strategy_algebra(rng):
    # real run driven by the cost-update rule: its recurrence, replayed over
    # the recorded phi values, gives every recorded nu_k bit for bit
    spec = ZhangHagerNu(eta=0.8, c0_offset=0.5)
    cfg = dataclasses.replace(REF, nu=spec)
    prob = problems.resolve("ex2")
    trace = run_inmbdca(prob, cfg, [-4.4615, -9.0766], seed=3)
    ok = True
    steps = 0
    memory = prev = None
    for r in trace.records:
        # the cost-update rule reads neither eps nor ||d||^2
        nu, memory = spec.allowance(memory, r.k, r.phi_x, None, 0.0)
        ok = ok and nu == r.nu_k
        if prev is not None:
            q = memory[0]
            identity = (1 - 1 / q) * (prev.phi_x - r.phi_x + prev.nu_k)
            ok = ok and abs(nu - identity) <= 1e-12
            ok = ok and 1 / q >= (1 - spec.eta) - 1e-12
            steps += 1
        prev = r
    # synthetic 50-step sequence to exercise the recurrence at length
    phi = 5.0
    nu_s, memory = spec.allowance(None, 0, phi, None, 0.0)
    for k in range(1, 51):
        drop = float(rng.uniform(-0.9 * nu_s if nu_s > 0 else 0.0, 1.0))
        nxt = phi - drop
        val, memory = spec.allowance(memory, k, nxt, 0.0, 0.0)
        identity = (1 - 1 / memory[0]) * (phi - nxt + nu_s)
        ok = ok and abs(val - identity) <= 1e-12
        ok = ok and 1 / memory[0] >= (1 - spec.eta) - 1e-12
        phi, nu_s = nxt, val
        steps += 1

    # window rule against a brute-force maximum on random value sequences
    cases = 0
    for _ in range(1000):
        m = int(rng.integers(1, 6))
        phis = rng.uniform(-5, 5, int(rng.integers(2, 12)))
        gspec = GrippoNu(m=m)
        gnu, window = gspec.allowance(None, 0, phis[0], None, 0.0)
        ok = ok and gnu == 0.0
        for k in range(1, len(phis)):
            budget = phis[k - 1] - phis[k] + (max(window) - phis[k - 1])
            if budget < 0:
                # keep the admissible-budget precondition satisfied
                phis[k] = phis[k - 1] + (max(window) - phis[k - 1])
                budget = 0.0
            gnu, window = gspec.allowance(window, k, phis[k], 0.0, 0.0)
            brute = max(phis[max(0, k - m):k + 1]) - phis[k]
            ok = ok and abs(gnu - brute) <= 1e-12
        cases += 1
    report(8, ok,
           f"cost-update replay, identity and delta floor on {steps} steps; "
           f"window allowance matches brute force on {cases} sequences")


def test_criterion_9_oracle_soundness(rng):
    worst = math.inf
    trees = 50
    for _ in range(trees):
        dim = int(rng.integers(1, 4))
        f = random_expr(rng, dim)
        sigma = f.modulus()
        cert = None
        for i in range(200):
            x = random_point(rng, dim)
            z = random_point(rng, dim)
            v, u = f.subgrad(x), f.subgrad(z)
            worst = min(worst, f.value(z) - f.value(x) - v @ (z - x) + 1e-12)
            worst = min(
                worst,
                f.value(z) - f.value(x) - v @ (z - x)
                - 0.5 * sigma * float((z - x) @ (z - x)) + 1e-10,
            )
            worst = min(
                worst,
                float((v - u) @ (x - z)) - sigma * float((z - x) @ (z - x))
                + 1e-10,
            )
            if i % 50 == 0:
                cert = f.eps_subgrad(x, float(rng.uniform(0, 0.3)), rng)
                anchor_x = x
            worst = min(
                worst,
                f.value(z) - f.value(anchor_x) - cert.w @ (z - anchor_x)
                + cert.eps_achieved + 1e-10,
            )
        ok_trees = worst >= 0.0
    grid_ok = True
    for _ in range(100):
        g = random_expr(rng, 2, min_quad=0.25)
        w = rng.uniform(-3, 3, 2)
        x = random_point(rng, 2)
        err = float(np.max(np.abs(solve_exact(g, w, x) - grid_argmin(g, w, x))))
        grid_ok = grid_ok and err <= 1e-4
    ok = ok_trees and grid_ok
    report(9, ok,
           f"subgradient/strong-convexity/monotonicity/eps-certificate "
           f"inequalities on {trees} trees x 200 samples (worst margin "
           f"{worst:.2e}) and closed form vs grid search on 100 instances "
           f"(<=1e-4)")


def test_criterion_10_merit_monotone_under_direct_rule():
    cfg = dataclasses.replace(
        REF, nu=DirectNu(delta=0.5, nu0=0.5),
        eps=EpsSchedule.zero(),
    )
    worst = math.inf
    steps = 0
    for name in ("ex1", "ex2"):
        prob = problems.resolve(name)
        starts = problems.sample_starts(10, [-10, 10], SEED + 2, prob.dim)
        for i, x0 in enumerate(starts):
            trace = run_inmbdca(prob, cfg, x0, seed=[SEED + 2, i])
            merit = [r.phi_x + r.nu_k for r in trace.records]
            for a, b in zip(merit, merit[1:]):
                worst = min(worst, a - b)
                steps += 1
    ok = worst >= -1e-9
    report(10, ok,
           f"phi + nu nonincreasing under the direct rule with zero eps: "
           f"worst step {worst:.2e} over {steps} steps (>=-1e-9)")
