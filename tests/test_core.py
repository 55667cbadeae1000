import base64
import dataclasses
import json
import math

import numpy as np
import pytest

from dcboost.convex import L1, Linear, Quadratic
from dcboost.core import (
    DcProblem,
    DirectNu,
    EpsSchedule,
    GrippoNu,
    InexactMode,
    IterationRecord,
    LambdaBarRule,
    RatioNu,
    SolverConfig,
    Termination,
    Trace,
    TRACE_CSV_COLUMNS,
    ZeroNu,
    ZhangHagerNu,
    config_from_flat,
    config_to_flat,
    validate,
)
from dcboost import problems
from dcboost.cli import main


# --- objective values --------------------------------------------------------


def test_phi_known_values():
    ex1 = problems.resolve("ex1")
    ex2 = problems.resolve("ex2")
    assert ex1.phi([-1.0, -1.0]) == pytest.approx(-2.0, abs=1e-15)
    assert ex2.phi([1.5, 0.0]) == pytest.approx(-1.125, abs=1e-15)
    assert ex1.phi([0.0, 0.0]) == 0.0


def test_phi_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        problems.resolve("ex1").phi([1.0, 2.0, 3.0])


def test_phi_matches_closed_form(rng):
    closed = {
        "ex1": lambda x: x[0] ** 2 + x[1] ** 2 + x[0] + x[1] - abs(x[0]) - abs(x[1]),
        "ex2": lambda x: 0.5 * (x[0] ** 2 + x[1] ** 2) + abs(x[0]) + abs(x[1]) - 2.5 * x[0],
    }
    for name, fn in closed.items():
        prob = problems.resolve(name)
        for _ in range(20):
            x = rng.uniform(-5, 5, 2)
            assert prob.phi(x) == pytest.approx(fn(x), abs=1e-12)


# --- problem construction ------------------------------------------------------


def test_from_components_takes_min_modulus():
    ex1 = problems.resolve("ex1")
    assert ex1.sigma == 1.0
    ex2 = problems.resolve("ex2")
    assert ex2.sigma == 1.0


def test_sigma_above_modulus_rejected():
    g = Quadratic(1.5) + Linear([1.0, 1.0])
    h = Quadratic(0.5) + L1(1.0)
    with pytest.raises(ValueError, match="modulus"):
        DcProblem("bad", g, h, dim=2, sigma=2.0)
    with pytest.raises(ValueError, match="sigma"):
        DcProblem("bad", g, h, dim=2, sigma=0.0)


# --- validate -------------------------------------------------------------------


def test_validate_reference_config_clean():
    cfg = problems.experiment_config()
    assert validate(problems.resolve("ex1"), cfg) == []


def test_validate_theta_boundary():
    cfg = dataclasses.replace(problems.experiment_config(), theta=0.5)
    msgs = validate(problems.resolve("ex1"), cfg)
    assert any("theta ≥ sigma/2" in m for m in msgs)


def test_validate_beta_boundary():
    cfg = dataclasses.replace(problems.experiment_config(), beta=1.0)
    msgs = validate(problems.resolve("ex1"), cfg)
    assert any("beta ∉ (0,1)" in m for m in msgs)


def test_validate_is_pure():
    cfg = dataclasses.replace(problems.experiment_config(), beta=1.0, rho=-1.0)
    prob = problems.resolve("ex2")
    assert validate(prob, cfg) == validate(prob, cfg)


def test_validate_positive_tolerances():
    cfg = dataclasses.replace(problems.experiment_config(), stop_step_tol=0.0)
    assert any("stop_step_tol" in m for m in validate(problems.resolve("ex1"), cfg))


# --- schedules -------------------------------------------------------------------


def test_eps_schedule_values():
    assert EpsSchedule.zero().at(5) == 0.0
    geo = EpsSchedule.geometric(1.0, 0.5)
    assert [geo.at(k) for k in range(3)] == [1.0, 0.5, 0.25]
    har = EpsSchedule.harmonic2(2.0)
    assert har.at(0) == 2.0
    assert har.at(3) == pytest.approx(2.0 / 16)


def test_eps_schedule_summable():
    # the nonzero schedules must have convergent partial sums
    for sched in (EpsSchedule.geometric(1.0, 0.9), EpsSchedule.harmonic2(1.0)):
        tail = sum(sched.at(k) for k in range(10_000, 11_000))
        assert tail < 1e-3


def test_eps_schedule_validation():
    with pytest.raises(ValueError):
        EpsSchedule.geometric(1.0, 1.0)
    with pytest.raises(ValueError):
        EpsSchedule("geometric", -1.0, 0.5)
    with pytest.raises(ValueError):
        EpsSchedule("nope")


def test_lambda_bar_rules():
    assert LambdaBarRule.constant(2.5).trial(7) == 2.5
    assert LambdaBarRule.zero_boost().trial(0) == 0.0


# --- nu strategy specs -------------------------------------------------------------


def test_nu_spec_validation():
    with pytest.raises(ValueError):
        DirectNu(delta_min=1.0)
    with pytest.raises(ValueError):
        DirectNu(delta_min=0.5, delta=0.4)
    with pytest.raises(ValueError):
        ZhangHagerNu(eta_min=0.5, eta_max=0.4)
    with pytest.raises(ValueError):
        ZhangHagerNu(c0_offset=0.0)
    with pytest.raises(ValueError):
        GrippoNu(m=0)
    with pytest.raises(ValueError):
        RatioNu(omega=0.0)


def test_direct_delta_resolution():
    assert DirectNu(delta_min=0.2).delta_at(3) == 0.2
    assert DirectNu(delta_min=0.2, delta=0.6).delta_at(3) == 0.6
    spec = DirectNu(delta_min=0.2, delta_rule=lambda k: 0.5 + 0.1 * (k % 2))
    assert spec.delta_at(0) == 0.5
    assert spec.delta_at(1) == 0.6
    with pytest.raises(ValueError, match="delta rule"):
        DirectNu(delta_min=0.5, delta_rule=lambda k: 0.1).delta_at(0)


# --- config round trip ----------------------------------------------------------------


@pytest.mark.parametrize(
    "nu",
    [
        ZeroNu(),
        DirectNu(delta_min=0.25, delta=0.5, nu0=0.3, fraction=0.9),
        ZhangHagerNu(eta_min=0.1, eta_max=0.8, c0_offset=2.0, eta=0.5),
        GrippoNu(m=4),
        RatioNu(omega=0.01),
    ],
)
def test_config_flat_round_trip(nu):
    cfg = SolverConfig(
        rho=0.6,
        beta=0.1,
        theta=0.2,
        lambda_bar=LambdaBarRule.constant(1.0),
        eps=EpsSchedule.harmonic2(0.5),
        nu=nu,
        stop_step_tol=1e-5,
        d_zero_tol=1e-12,
        max_iter=321,
        max_backtracks=42,
        inexact_mode=InexactMode.PERTURBED_EXACT,
    )
    flat = config_to_flat(cfg)
    json.dumps(flat)
    assert config_from_flat(flat) == cfg


@pytest.mark.parametrize("nu, nu_keys", [
    (ZeroNu(), []),
    (DirectNu(delta_min=0.25, delta=0.5),
     ["nu.delta_min", "nu.delta", "nu.nu0", "nu.fraction"]),
    (DirectNu(), ["nu.delta_min", "nu.nu0", "nu.fraction"]),  # delta None
    (ZhangHagerNu(eta=0.5),
     ["nu.eta_min", "nu.eta_max", "nu.c0_offset", "nu.eta"]),
    (GrippoNu(m=4), ["nu.m"]),
    (RatioNu(omega=0.01, u_rule=lambda k: k + 2), ["nu.omega"]),
])
def test_config_flat_key_order(nu, nu_keys):
    # the key order of every trace's meta line; rule callables have no key
    assert list(config_to_flat(SolverConfig(nu=nu))) == [
        "rho", "beta", "theta", "lambda_bar", "lambda_bar.kind",
        "eps.kind", "eps.eps0", "eps.q", "stop_step_tol", "d_zero_tol",
        "max_iter", "max_backtracks", "inexact_mode", "nu.kind", *nu_keys,
    ]


@pytest.mark.parametrize("flat, key", [
    ({"nu.kind": "ratio"}, "nu.omega"),
    ({"nu.kind": "grippo"}, "nu.m"),
    ({"max_iter": None}, "max_iter"),
    ({"max_iter": 2.7}, "max_iter"),
    ({"nu.kind": "grippo", "nu.m": 1.5}, "nu.m"),
    ({"inexact_mode": "fast"}, "inexact_mode"),
    ({"nu.kind": "bogus"}, "nu.kind"),
])
def test_config_from_flat_names_the_bad_key(flat, key):
    with pytest.raises(ValueError, match=repr(key)):
        config_from_flat(flat)


# --- trace serialization -----------------------------------------------------------------


def _tiny_trace():
    rec = IterationRecord(
        k=0,
        x=np.array([1.0, 1.0]),
        phi_x=2.0,
        eps_k=0.0,
        eps_certified=0.0,
        w=np.array([2.0, 2.0]),
        y=np.array([1 / 3, 1 / 3]),
        xi=np.array([2.0, 2.0]),
        d_norm=float(np.sqrt(8.0 / 9.0)),
        inexact_lhs=0.0,
        inexact_rhs=0.0,
        nu_k=0.0,
        lambda_bar=1.0,
        lambda_k=1.0,
        n_backtracks=0,
        phi_y=2.0 / 9.0,
        phi_next=-10.0 / 9.0,
    )
    return Trace(
        problem_name="ex1",
        config=problems.experiment_config(),
        x0=np.array([1.0, 1.0]),
        records=[rec],
        final_x=np.array([-1 / 3, -1 / 3]),
        final_phi=-10.0 / 9.0,
        termination=Termination.MAX_ITER,
    )


def test_trace_jsonl_round_trip(tmp_path):
    trace = _tiny_trace()
    trace.records.append(dataclasses.replace(
        trace.records[0], k=1, n_backtracks=3, tau_hat=0.75, tau=0.5))
    path = tmp_path / "t.jsonl"
    trace.write_jsonl(path)
    back = Trace.read_jsonl(path)
    assert back.problem_name == trace.problem_name
    assert back.config == trace.config
    assert back.termination is trace.termination
    np.testing.assert_array_equal(back.x0, trace.x0)
    np.testing.assert_array_equal(back.final_x, trace.final_x)
    assert len(back.records) == 2
    for a, b in zip(trace.records, back.records):
        for field in dataclasses.fields(IterationRecord):
            want, got = getattr(a, field.name), getattr(b, field.name)
            if isinstance(want, np.ndarray):
                np.testing.assert_array_equal(got, want)
            else:
                assert got == want and type(got) is type(want), field.name
    assert back.records[0].tau is None and back.records[0].tau_hat is None


def _with_record(trace, k, **changes):
    records = list(trace.records)
    records[k] = dataclasses.replace(records[k], **changes)
    return dataclasses.replace(trace, records=records)


def test_trace_jsonl_rejects_non_finite_values(tmp_path):
    # a bad value anywhere leaves no file, neither a truncated trace nor
    # the partial file the lines stream to
    trace = _tiny_trace()
    trace.records.extend(dataclasses.replace(trace.records[0], k=k)
                         for k in (1, 2, 3))
    y_nan = trace.records[3].y.copy()
    y_nan[1] = math.nan
    for bad in (_with_record(trace, 0, phi_x=math.nan),
                _with_record(trace, 3, phi_x=math.nan),
                _with_record(trace, 3, y=y_nan),
                dataclasses.replace(trace,
                                    final_x=np.array([0.0, math.inf]))):
        with pytest.raises(ValueError):
            bad.write_jsonl(tmp_path / "t.jsonl")
        assert list(tmp_path.iterdir()) == []


# float64 values a decimal or byte encoding could get wrong
EDGE_FLOATS = [-0.0, 5e-324, 1.7976931348623157e308,
               -1.7976931348623157e308]


@pytest.mark.parametrize("dim", [1, 2, 1000])
def test_trace_arrays_round_trip_bit_exact(tmp_path, dim):
    base = np.concatenate([EDGE_FLOATS,
                           np.random.default_rng(dim).standard_normal(dim)])
    arrays = [base[(np.arange(dim) + i) % base.size] for i in range(6)]
    trace = _tiny_trace()
    trace = dataclasses.replace(
        trace, x0=arrays[0], final_x=arrays[1],
        records=[dataclasses.replace(trace.records[0], x=arrays[2],
                                     w=arrays[3], y=arrays[4],
                                     xi=arrays[5])])
    trace.write_jsonl(tmp_path / "t.jsonl")
    back = Trace.read_jsonl(tmp_path / "t.jsonl")
    rec = back.records[0]
    for got, want in zip((back.x0, back.final_x, rec.x, rec.w, rec.y,
                          rec.xi), arrays):
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()  # tells -0.0 from 0.0


def test_trace_meta_names_the_array_encoding(tmp_path):
    trace = _tiny_trace()
    trace.write_jsonl(tmp_path / "t.jsonl")
    meta, record = map(json.loads,
                       (tmp_path / "t.jsonl").read_text().splitlines())
    assert meta["arrays"] == "base64-f8le"
    # the one-line decode the README gives
    y = np.frombuffer(base64.b64decode(record["y"]), "<f8")
    assert y.tobytes() == trace.records[0].y.tobytes()


def test_legacy_list_trace_checks_like_base64(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--problem", "ex2", "--out", str(out),
                 "--start=5.0,5.0", "--rho", "0.6", "--beta", "0.1",
                 "--theta", "0.2", "--nu-kind", "ratio", "--nu-omega", "0.01",
                 "--inexact-mode", "inner_solver"]) == 0
    path = out / "trace_000.jsonl"

    def as_list(s):
        return np.frombuffer(base64.b64decode(s), "<f8").tolist()

    meta, *records = map(json.loads, path.read_text().splitlines())
    del meta["arrays"]
    for obj, names in ((meta, ("x0", "final_x")),
                       *((r, ("x", "w", "y", "xi")) for r in records)):
        obj.update({name: as_list(obj[name]) for name in names})
    legacy = tmp_path / "legacy.jsonl"
    legacy.write_text("".join(json.dumps(obj) + "\n"
                              for obj in (meta, *records)))

    capsys.readouterr()
    assert main(["check", str(path)]) == 0
    encoded = capsys.readouterr().out
    assert main(["check", str(legacy)]) == 0
    assert capsys.readouterr().out.replace(str(legacy), str(path)) == encoded
    a, b = Trace.read_jsonl(path), Trace.read_jsonl(legacy)
    for ra, rb in zip(a.records, b.records):
        for name in ("x", "w", "y", "xi"):
            assert getattr(ra, name).tobytes() == getattr(rb, name).tobytes()


def test_trace_jsonl_exact_floats(tmp_path):
    # repr round-trip keeps float64 values bit-exact through the file
    trace = _tiny_trace()
    path = tmp_path / "t.jsonl"
    trace.write_jsonl(path)
    back = Trace.read_jsonl(path)
    assert back.records[0].phi_next == trace.records[0].phi_next
    assert back.records[0].d_norm == trace.records[0].d_norm


def test_trace_csv_columns(tmp_path):
    trace = _tiny_trace()
    path = tmp_path / "t.csv"
    trace.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(TRACE_CSV_COLUMNS)
    assert TRACE_CSV_COLUMNS == [
        "k", "phi_x", "eps_k", "eps_certified", "d_norm", "inexact_lhs",
        "inexact_rhs", "nu_k", "lambda_bar", "lambda_k", "n_backtracks",
        "phi_y", "phi_next", "tau_hat", "tau",
    ]
    row = lines[1].split(",")
    assert row[0] == "0"
    assert float(row[1]) == 2.0
    assert row[-1] == ""  # tau not populated


def test_trace_read_rejects_empty(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        Trace.read_jsonl(path)


def test_trace_read_rejects_headerless(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"k": 0}\n')
    with pytest.raises(ValueError, match="header"):
        Trace.read_jsonl(path)
