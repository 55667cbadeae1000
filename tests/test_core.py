import base64
import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from dcboost.convex import Sum
from dcboost.core import (
    CONFIG_KEYS,
    DcProblem,
    DirectNu,
    EpsSchedule,
    GrippoNu,
    InexactMode,
    IterationRecord,
    RatioNu,
    SolverConfig,
    Termination,
    Trace,
    ZeroNu,
    ZhangHagerNu,
    config_from_flat,
    config_to_flat,
    validate,
)
from dcboost import drivers, problems


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
    g = Sum(1.5, [1.0, 1.0], 0.0)
    h = Sum(0.5, [0.0, 0.0], 1.0)
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
    # q is checked whatever the kind, so a non-finite one never reaches a
    # trace header
    with pytest.raises(ValueError, match="q must"):
        EpsSchedule("zero", 0.0, math.nan)
    with pytest.raises(ValueError, match="q must"):
        EpsSchedule("harmonic2", 0.1, math.inf)


# --- nu strategy specs -------------------------------------------------------------


def test_nu_spec_validation():
    for delta in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError, match="delta must"):
            DirectNu(delta=delta)
    DirectNu(delta=1.0)  # no allowance after the first step
    with pytest.raises(ValueError, match="nu0 must"):
        DirectNu(nu0=math.inf)
    with pytest.raises(ValueError):
        ZhangHagerNu(c0_offset=0.0)
    for eta in (-0.1, 1.0, math.nan):
        with pytest.raises(ValueError, match="eta must"):
            ZhangHagerNu(eta=eta)
    with pytest.raises(ValueError):
        GrippoNu(m=0)
    with pytest.raises(ValueError):
        RatioNu(omega=0.0)


# --- config round trip ----------------------------------------------------------------


@pytest.mark.parametrize(
    "nu",
    [
        ZeroNu(),
        DirectNu(delta=0.5, nu0=0.3),
        ZhangHagerNu(eta=0.5, c0_offset=2.0),
        GrippoNu(m=4),
        RatioNu(omega=0.01),
    ],
)
def test_config_flat_round_trip(nu):
    # every field of every part is off its default and has exactly one flat
    # key, so a field that config_to_flat dropped would fail the round trip
    cfg = SolverConfig(
        rho=0.6,
        beta=0.1,
        theta=0.2,
        lambda_bar=2.5,
        eps=EpsSchedule.geometric(0.5, 0.25),
        nu=nu,
        stop_step_tol=1e-5,
        d_zero_tol=1e-11,
        max_iter=321,
        max_backtracks=42,
        inexact_mode=InexactMode.PERTURBED_EXACT,
    )
    keys = ["nu.kind"]
    for part, prefix in ((cfg, ""), (cfg.eps, "eps."), (nu, "nu.")):
        for f in dataclasses.fields(part):
            if dataclasses.is_dataclass(getattr(part, f.name)):
                continue  # a part, keyed by its own fields
            assert getattr(part, f.name) != f.default, f.name
            assert prefix + f.name in CONFIG_KEYS, f.name
            keys.append(prefix + f.name)
    flat = config_to_flat(cfg)
    assert sorted(flat) == sorted(keys)
    json.dumps(flat)
    assert config_from_flat(flat) == cfg


@pytest.mark.parametrize("nu, nu_keys", [
    (ZeroNu(), []),
    (DirectNu(delta=0.5), ["nu.delta", "nu.nu0"]),
    (DirectNu(), ["nu.delta", "nu.nu0"]),  # every default is written
    (ZhangHagerNu(eta=0.5), ["nu.eta", "nu.c0_offset"]),
    (GrippoNu(m=4), ["nu.m"]),
    (RatioNu(omega=0.01), ["nu.omega"]),
])
def test_config_flat_key_order(nu, nu_keys):
    # the key order of every trace's meta line
    assert list(config_to_flat(SolverConfig(nu=nu))) == [
        "rho", "beta", "theta", "lambda_bar",
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
    # retired keys, never read as their successors' defaults
    ({"nu.kind": "direct", "nu.delta_min": 0.2}, "nu.delta_min"),
    ({"nu.kind": "zhang_hager", "nu.eta_max": 0.8}, "nu.eta_max"),
    ({"nu.kind": "ratio", "nu.omega": 0.01, "nu.fraction": 1.0},
     "nu.fraction"),
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
        nu_k=0.0,
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
    trace = dataclasses.replace(trace, records=[
        *trace.records, dataclasses.replace(trace.records[0], k=1,
                                            n_backtracks=3, nu_k=0.5)])
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


def _with_record(trace, k, **changes):
    records = list(trace.records)
    records[k] = dataclasses.replace(records[k], **changes)
    return dataclasses.replace(trace, records=records)


def test_trace_jsonl_rejects_non_finite_values(tmp_path):
    # a bad value anywhere leaves no file, neither a truncated trace nor
    # the partial file the lines stream to
    trace = _tiny_trace()
    trace = dataclasses.replace(trace, records=[
        *trace.records, *(dataclasses.replace(trace.records[0], k=k)
                          for k in (1, 2, 3))])
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
    assert meta["arrays"] == "base64-f8le-derived"
    # the one-line decode the README gives
    y = np.frombuffer(base64.b64decode(record["y"]), "<f8")
    assert y.tobytes() == trace.records[0].y.tobytes()


def _two_step_trace(x1, xi0=None):
    """A two-record trace whose first step derives x = (0.5, 0.0); the
    second record holds ``x1`` and the first ``xi0`` (default: w)."""
    rec = _tiny_trace().records[0]
    w = np.array([2.0, -0.0])
    first = dataclasses.replace(rec, x=np.array([1.0, 0.0]), w=w,
                                y=np.array([0.75, 0.0]),
                                xi=w.copy() if xi0 is None else xi0)
    second = dataclasses.replace(first, k=1, x=x1, xi=w.copy())
    return dataclasses.replace(_tiny_trace(), x0=first.x.copy(),
                               records=[first, second],
                               final_x=np.array([0.25, 0.0]))


def _stored(path):
    """The record lines of a written trace, as JSON objects."""
    return [json.loads(ln) for ln in path.read_text().splitlines()[1:]]


def _assert_records_bit_equal(back, trace):
    for a, b in zip(trace.records, back.records, strict=True):
        for name in ("x", "w", "y", "xi"):
            assert getattr(b, name).tobytes() == getattr(a, name).tobytes()


@pytest.mark.parametrize("x1, stored", [
    ([0.5, 0.0], False),
    ([np.nextafter(0.5, 1.0), 0.0], True),  # one ulp
    ([0.5, -0.0], True),  # signed zero
    ([0.5 + 1e-6, 0.0], True),
], ids=["derived", "one-ulp", "signed-zero", "offset-1e-6"])
def test_x_is_left_out_only_when_its_bytes_are_derived(tmp_path, x1, stored):
    trace = _two_step_trace(np.array(x1))
    path = tmp_path / "t.jsonl"
    trace.write_jsonl(path)
    first, second = _stored(path)
    assert "x" not in first  # x0's bytes
    assert ("x" in second) is stored
    _assert_records_bit_equal(Trace.read_jsonl(path), trace)


def test_xi_one_ulp_from_w_is_stored(tmp_path):
    w = np.array([2.0, -0.0])
    for xi0, stored in ((w.copy(), False),
                        (np.array([np.nextafter(2.0, 3.0), -0.0]), True),
                        (np.array([2.0, 0.0]), True)):
        trace = _two_step_trace(np.array([0.5, 0.0]), xi0)
        path = tmp_path / "t.jsonl"
        trace.write_jsonl(path)
        first, second = _stored(path)
        assert ("xi" in first) is stored and "xi" not in second
        back = Trace.read_jsonl(path)
        _assert_records_bit_equal(back, trace)
        assert back.records[1].xi is back.records[1].w  # w decoded once


def test_x_is_stored_when_its_derivation_overflows(tmp_path):
    # y + lambda (y - x) overflows to inf: the finite next x is stored, and
    # neither writing nor reading warns
    big = 1.7976931348623157e308
    rec = dataclasses.replace(_tiny_trace().records[0],
                              x=np.array([-big, 0.0]), y=np.array([big, 0.0]))
    trace = dataclasses.replace(
        _tiny_trace(), x0=rec.x.copy(),
        records=[rec, dataclasses.replace(rec, k=1)])
    path = tmp_path / "t.jsonl"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace.write_jsonl(path)
        back = Trace.read_jsonl(path)
    assert ["x" in obj for obj in _stored(path)] == [False, True]
    _assert_records_bit_equal(back, trace)


def test_solver_trace_leaves_out_x_and_closed_form_xi(tmp_path, monkeypatch):
    # every x is derived; xi is left out exactly where the subproblem took
    # its closed form (xi = w), and kept where it was solved inexactly
    modes = []
    solve = drivers.solve_inexact

    def logged(*args):
        sol = solve(*args)
        modes.append(sol.mode_used)
        return sol

    monkeypatch.setattr(drivers, "solve_inexact", logged)
    problem = problems.resolve("random-sep(dim=200,seed=0)")
    config = problems.experiment_config(mode=InexactMode.PERTURBED_EXACT)
    x0 = np.random.default_rng(1).uniform(-10.0, 10.0, 200)
    trace = drivers.run_inmbdca(problem, config, x0, seed=[42, 0])
    path = tmp_path / "t.jsonl"
    trace.write_jsonl(path)
    stored = _stored(path)
    assert len(stored) == len(modes) == len(trace.records)
    assert not any("x" in obj for obj in stored)
    closed = [m is InexactMode.EXACT for m in modes]
    assert ["xi" not in obj for obj in stored] == closed
    assert any(closed) and not all(closed)
    _assert_records_bit_equal(Trace.read_jsonl(path), trace)


def test_trace_jsonl_exact_floats(tmp_path):
    # repr round-trip keeps float64 values bit-exact through the file
    trace = _tiny_trace()
    path = tmp_path / "t.jsonl"
    trace.write_jsonl(path)
    back = Trace.read_jsonl(path)
    assert back.records[0].phi_next == trace.records[0].phi_next
    assert back.records[0].d_norm == trace.records[0].d_norm


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


def _nan_at(a, i=0):
    a = np.array(a)
    a[i] = math.nan
    return a


@pytest.mark.parametrize("edits, message", [
    # the non-finite y of record 2 comes before the non-finite w of record 3
    (lambda r: {2: {"y": _nan_at(r[2].y)}, 3: {"w": _nan_at(r[3].w)}},
     "field 'y': non-finite value"),
    # an x off its derivation is stored, and comes before y in its record
    (lambda r: {2: {"x": r[2].x + math.inf, "y": _nan_at(r[2].y)}},
     "field 'x': non-finite value"),
    (lambda r: {2: {"x": r[2].x + 1e-6, "w": _nan_at(r[2].w)}},
     "field 'w': non-finite value"),
    # a record's scalars are encoded after its arrays, a record before the
    # next one
    (lambda r: {1: {"phi_next": math.nan, "xi": _nan_at(r[1].xi)},
                2: {"y": _nan_at(r[2].y)}}, "field 'xi': non-finite value"),
    (lambda r: {1: {"phi_next": math.nan}, 2: {"y": _nan_at(r[2].y)}},
     "Out of range float values are not JSON compliant"),
    # an infinite x equal to its overflowing derivation is still stored
    (lambda r: {1: {"x": np.array([-1e308, 0.0]), "y": np.array([1e308, 0.0]),
                    "lambda_k": 1.0},
                2: {"x": np.array([math.inf, 0.0])}},
     "field 'x': non-finite value"),
], ids=["y-before-next-w", "stored-x-before-y", "finite-stored-x", "xi",
        "scalar", "overflowed-x"])
def test_writer_raises_the_first_error_of_a_record_by_record_write(
        tmp_path, edits, message):
    ex2 = problems.resolve("ex2")
    trace = drivers.run_inmbdca(ex2, problems.experiment_config(),
                                [5.0, 5.0])
    records = list(trace.records)
    for k, fields in edits(records).items():
        records[k] = dataclasses.replace(records[k], **fields)
    bad = dataclasses.replace(trace, records=records)
    with pytest.raises(ValueError) as raised:
        bad.write_jsonl(tmp_path / "t.jsonl")
    assert str(raised.value).startswith(message)
    assert list(tmp_path.iterdir()) == []  # neither the trace nor .partial
