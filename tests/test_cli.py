import argparse
import base64
import csv
import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from dcboost import cli, problems
from dcboost.certificates import slacks
from dcboost.convex import separable_coefficients
from dcboost.cli import main
from dcboost.core import Trace


REF_FLAGS = [
    "--solver", "inmbdca",
    "--rho", "0.6", "--beta", "0.1", "--theta", "0.2",
    "--lambda-bar", "1.0",
    "--nu-kind", "ratio", "--nu-omega", "0.01",
    "--stop-step-tol", "1e-5",
    "--inexact-mode", "inner_solver",
    "--max-iter", "500",
]


def run_dir(tmp_path, name="out"):
    d = tmp_path / name
    return str(d)


def read_summary(out):
    with open(f"{out}/summary.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def test_run_single_start_reaches_target(tmp_path):
    out = run_dir(tmp_path)
    code = main(["run", "--problem", "ex2", "--out", out,
                 "--start=-4.4615,-9.0766", *REF_FLAGS])
    assert code == 0
    rows = read_summary(out)
    assert len(rows) == 1
    final = np.array([float(v) for v in rows[0]["final_x"].split(";")])
    assert np.linalg.norm(final - np.array([1.5, 0.0])) < 1e-3
    assert rows[0]["termination"] == "step_tol"
    assert float(rows[0]["final_residual"]) <= 1e-3


def test_run_then_check_passes(tmp_path):
    out = run_dir(tmp_path)
    assert main(["run", "--problem", "ex1", "--out", out,
                 "--starts-count", "5", "--starts-seed", "42",
                 "--starts-box", "-10", "10", *REF_FLAGS]) == 0
    traces = sorted(str(p) for p in (tmp_path / "out").glob("trace_*.jsonl"))
    assert len(traces) == 5
    assert main(["check", *traces]) == 0


def test_run_then_complexity_passes(tmp_path):
    out = run_dir(tmp_path)
    assert main(["run", "--problem", "ex2", "--out", out,
                 "--start", "3.0,4.0", *REF_FLAGS]) == 0
    trace = f"{out}/trace_000.jsonl"
    assert main(["complexity", trace, "--phibar", "-1.125"]) == 0
    # the problem's declared bound is picked up when the flag is omitted
    assert main(["complexity", trace]) == 0


def test_complexity_heuristic_bound_when_undeclared(tmp_path, capsys):
    # random-sep declares no lower bound; the best recorded value minus a
    # margin stands in and is flagged as heuristic
    out = run_dir(tmp_path)
    assert main(["run", "--problem", "random-sep(dim=2,seed=9)", "--out", out,
                 "--start", "3.0,4.0", *REF_FLAGS]) == 0
    code = main(["complexity", f"{out}/trace_000.jsonl"])
    captured = capsys.readouterr().out
    assert code == 0
    assert "heuristic stand-in" in captured


def test_complexity_rejects_invalid_phibar(tmp_path, capsys):
    out = run_dir(tmp_path)
    main(["run", "--problem", "ex2", "--out", out, "--start", "3.0,4.0",
          *REF_FLAGS])
    code = main(["complexity", f"{out}/trace_000.jsonl", "--phibar", "0.0"])
    assert code == 2
    assert "lower bound" in capsys.readouterr().err


def test_summary_is_byte_identical_across_runs(tmp_path):
    args = ["--problem", "ex1", "--starts-count", "8", "--starts-seed", "7",
            "--starts-box", "-10", "10", *REF_FLAGS]
    out_a, out_b = run_dir(tmp_path, "a"), run_dir(tmp_path, "b")
    assert main(["run", "--out", out_a, *args]) == 0
    assert main(["run", "--out", out_b, *args]) == 0
    a = open(f"{out_a}/summary.csv", "rb").read()
    b = open(f"{out_b}/summary.csv", "rb").read()
    assert a == b
    assert a.endswith(b"\n")


def test_worker_pool_matches_sequential(tmp_path):
    args = ["--problem", "ex2", "--starts-count", "4", "--starts-seed", "3",
            *REF_FLAGS]
    out_a, out_b = run_dir(tmp_path, "seq"), run_dir(tmp_path, "par")
    assert main(["run", "--out", out_a, *args]) == 0
    assert main(["run", "--out", out_b, "--workers", "2", *args]) == 0
    assert (
        open(f"{out_a}/summary.csv", "rb").read()
        == open(f"{out_b}/summary.csv", "rb").read()
    )


def test_check_flags_corrupted_linesearch(tmp_path, capsys):
    out = run_dir(tmp_path)
    main(["run", "--problem", "ex2", "--out", out, "--start", "5.0,5.0",
          *REF_FLAGS])
    path = f"{out}/trace_000.jsonl"
    lines = open(path).read().splitlines()
    rec = json.loads(lines[3])
    rec["phi_next"] += 1.0
    lines[3] = json.dumps(rec)
    open(path, "w").write("\n".join(lines) + "\n")
    code = main(["check", path])
    captured = capsys.readouterr().out
    assert code == 1
    assert "linesearch" in captured
    assert f"at k={rec['k']}" in captured
    assert "VIOLATED" in captured


def test_check_rejects_a_nan_phi_token(tmp_path, capsys):
    # the writer never emits NaN, so a trace holding it is malformed; a NaN
    # slack is still the worst value (tests/test_certificates.py)
    out = run_dir(tmp_path)
    assert main(["run", "--problem", "ex2", "--out", out, "--start=5.0,5.0",
                 *REF_FLAGS]) == 0
    path = f"{out}/trace_000.jsonl"
    lines = open(path).read().splitlines()
    rec = json.loads(lines[2])
    rec["phi_x"] = math.nan
    lines[2] = json.dumps(rec)
    open(path, "w").write("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["check", path]) == 2
    assert (f"{path}: parse error: line 3: NaN is not a finite JSON number"
            in capsys.readouterr().err)


@pytest.mark.parametrize("flags, config", [
    (["--start=nan,0"], None),
    (["--start=inf,0"], None),
    (["--start=a,0"], None),
    ([], {"starts": [[1.0, 2.0], [math.nan, 0.0]]}),
    ([], {"starts.box": [-math.inf, 10.0]}),
    ([], {"starts.box": [0.0, math.nan]}),
    ([], {"starts.box": [-1e308, 1e308]}),
    ([], {"max_iter": None}),
    ([], {"max_iter": 2.7}),
    ([], {"starts.count": None}),
    ([], {"nu.omgea": 0.01}),
    ([], {"rhoo": 0.6}),
    ([], {"workers": 2}),
    (["--nu-kind", "zhang_hager", "--nu-eta", "0.95"], None),
])
def test_bad_starts_rejected_before_writing(tmp_path, capsys, flags, config):
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        flags = [*flags, "--config", str(path)]
    out = tmp_path / "out"
    assert main(["run", "--problem", "ex2", "--out", str(out), *REF_FLAGS,
                 *flags]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("run: ")
    for key in set(config or ()) - {"starts", "starts.box"}:
        assert repr(key) in err  # the message names the offending key


@pytest.mark.parametrize("flags", [
    ["--rho", "nan"],
    ["--rho", "inf"],
    ["--theta", "nan"],
    ["--stop-step-tol", "nan"],
    ["--d-zero-tol", "nan"],
    ["--d-zero-tol", "inf"],
    ["--lambda-bar", "nan"],
    ["--eps-kind", "geometric", "--eps-eps0", "nan"],
    ["--nu-kind", "direct", "--nu-delta-min", "0.1", "--nu-nu0", "nan"],
    ["--nu-kind", "ratio", "--nu-omega", "nan"],
    ["--nu-kind", "zhang_hager", "--nu-c0-offset", "nan"],
    ["--nu-kind", "grippo"],
])
def test_non_finite_config_values_rejected(tmp_path, capsys, flags):
    out = tmp_path / "out"
    assert main(["run", "--problem", "ex2", "--out", str(out), "--start=1,1",
                 *REF_FLAGS, *flags]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("run: ")


@pytest.mark.parametrize("mode", ["inner_solver", "perturbed_exact"])
def test_inexact_mode_without_theta_rejected(tmp_path, capsys, mode):
    # at theta 0 every mode returns the exact solution, so the mode would
    # have no effect
    out = tmp_path / "out"
    assert main(["run", "--problem", "ex2", "--out", str(out),
                 "--inexact-mode", mode]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("run: ") and "inexact_mode" in err
    assert "theta" in err


@pytest.mark.parametrize("kind, key", [("ratio", "nu.omega"),
                                       ("grippo", "nu.m")])
def test_nu_kind_without_its_key_rejected(tmp_path, capsys, kind, key):
    out = tmp_path / "out"
    assert main(["run", "--problem", "ex1", "--out", str(out), "--start=1,1",
                 "--nu-kind", kind]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("run: ") and repr(key) in err


def test_nu_keys_of_another_kind_are_ignored(tmp_path):
    # REF_FLAGS hold nu.omega; switching the kind must not trip over it
    out = run_dir(tmp_path)
    assert main(["run", "--problem", "ex2", "--out", out, "--start=1,1",
                 *REF_FLAGS, "--nu-kind", "direct", "--nu-delta-min",
                 "0.1"]) == 0
    assert Trace.read_jsonl(f"{out}/trace_000.jsonl").config.nu.kind == "direct"


def test_run_options_are_pinned():
    # every run flag with its value type and choices; the config flags are
    # derived from the dataclasses, so this pins the derivation
    sub = argparse.ArgumentParser().add_subparsers()
    cli._build_run_parser(sub)
    floats = ["--rho", "--beta", "--theta", "--lambda-bar", "--eps-eps0",
              "--eps-q", "--nu-omega", "--nu-delta", "--nu-delta-min",
              "--nu-nu0", "--nu-fraction", "--nu-eta", "--nu-eta-min",
              "--nu-eta-max", "--nu-c0-offset", "--stop-step-tol",
              "--d-zero-tol", "--starts-box"]
    ints = ["--nu-m", "--max-iter", "--max-backtracks", "--starts-count",
            "--starts-seed", "--workers"]
    expected = {
        "-h": (None, None), "--help": (None, None),
        "--config": (None, None), "--out": (None, None),
        "--problem": (None, None), "--start": (None, None),
        "--plot-data": (None, None),
        "--solver": (None, ["bdca", "dca", "inmbdca", "nmbdca"]),
        "--eps-kind": (None, ["zero", "geometric", "harmonic2"]),
        "--nu-kind": (None, ["zero", "direct", "zhang_hager", "grippo",
                             "ratio"]),
        "--inexact-mode": (None, ["inner_solver", "perturbed_exact",
                                  "exact"]),
        **{flag: (float, None) for flag in floats},
        **{flag: (int, None) for flag in ints},
    }
    actual = {
        option: (action.type,
                 None if action.choices is None else list(action.choices))
        for action in sub.choices["run"]._actions
        for option in action.option_strings
    }
    assert actual == expected


@pytest.fixture(scope="module")
def stored_traces(tmp_path_factory):
    """The lines of an ex2 trace and of a dim-3 random-sep trace."""
    out = tmp_path_factory.mktemp("stored")
    assert main(["run", "--problem", "ex2", "--out", str(out / "ex2"),
                 "--start=5.0,5.0", *REF_FLAGS]) == 0
    assert main(["run", "--problem", "random-sep(dim=3,seed=5)", "--out",
                 str(out / "dim3"), "--start=1,2,3", *REF_FLAGS]) == 0
    return {name: (out / name / "trace_000.jsonl").read_text().splitlines()
            for name in ("ex2", "dim3")}


def _set(line, name, value):
    obj = json.loads(line)
    obj[name] = value
    return json.dumps(obj)


def _drop(line, name):
    obj = json.loads(line)
    del obj[name]
    return json.dumps(obj)


@pytest.mark.parametrize("field, line_no, edit", [
    ("k", 3, lambda ln: _set(ln, "k", None)),
    ("phi_x", 3, lambda ln: _set(ln, "phi_x", None)),
    ("y", 3, lambda ln: _set(ln, "y", [1, 2, 3])),
    ("w", 3, lambda ln: _drop(ln, "w")),
    ("x", 3, lambda ln: _set(ln, "x", "not base64!")),
    ("xi", 3, lambda ln: _set(ln, "xi", "AAAAAAAAAAAAAAAA")),  # 12 bytes
    ("final_x", 1, lambda ln: _set(ln, "final_x", [1.0])),
    ("x0", None, None),  # a dim-3 trace that names ex2
])
@pytest.mark.parametrize("command", ["check", "complexity"])
def test_malformed_trace_names_line_and_field(tmp_path, capsys, stored_traces,
                                              command, field, line_no, edit):
    if edit is None:
        lines = list(stored_traces["dim3"])
        lines[0] = _set(lines[0], "problem_name", "ex2")
    else:
        lines = list(stored_traces["ex2"])
        lines[line_no - 1] = edit(lines[line_no - 1])
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{path}: parse error: ")
    assert f"field {field!r}" in err
    if line_no is not None:
        assert f"line {line_no}: " in err


@pytest.mark.parametrize("line_no, name, value, token", [
    (1, "final_phi", math.nan, "NaN"),
    (3, "tau", math.nan, "NaN"),
    (3, "lambda_bar", math.inf, "Infinity"),
    (2, "phi_next", -math.inf, "-Infinity"),
])
@pytest.mark.parametrize("command", ["check", "complexity"])
def test_non_finite_token_is_a_parse_error(tmp_path, capsys, stored_traces,
                                           command, line_no, name, value,
                                           token):
    lines = list(stored_traces["ex2"])
    lines[line_no - 1] = _set(lines[line_no - 1], name, value)
    assert token in lines[line_no - 1]
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err == (
        f"{path}: parse error: line {line_no}: {token} is not a finite JSON "
        "number\n")


@pytest.mark.parametrize("line_no, name", [(3, "phi_x"), (1, "final_phi")])
@pytest.mark.parametrize("command", ["check", "complexity"])
def test_integer_beyond_float_range_is_a_parse_error(
        tmp_path, capsys, stored_traces, command, line_no, name):
    lines = list(stored_traces["ex2"])
    lines[line_no - 1] = _set(lines[line_no - 1], name, 10**400)
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err == (
        f"{path}: parse error: line {line_no}: field {name!r}: int too large "
        "to convert to float\n")


@pytest.mark.parametrize("name, value", [
    ("k", True), ("k", 1.0), ("n_backtracks", 0.0), ("tau", "x"),
    ("phi_y", False), ("tau_hat", [1.0]),
])
def test_scalar_of_the_wrong_type_names_its_field(tmp_path, capsys,
                                                  stored_traces, name, value):
    # the reader takes a record whose scalars all have their field's type
    # as it is; any other record is read field by field
    lines = list(stored_traces["ex2"])
    lines[2] = _set(lines[2], name, value)
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err.startswith(
        f"{path}: parse error: line 3: field {name!r}: expected ")


def test_reader_converts_ints_and_fills_missing_optionals(tmp_path,
                                                          stored_traces):
    lines = list(stored_traces["ex2"])
    path = tmp_path / "t.jsonl"
    path.write_text("\n".join(lines) + "\n")
    plain = Trace.read_jsonl(path)
    lines[2] = _set(lines[2], "phi_x", 1)
    lines[3] = _drop(_drop(lines[3], "tau"), "tau_hat")
    path.write_text("\n".join(lines) + "\n")
    edited = Trace.read_jsonl(path)
    r1, r2 = edited.records[1], edited.records[2]
    assert type(r1.phi_x) is float and r1.phi_x == 1.0
    assert r2.tau is None and r2.tau_hat is None
    ref = plain.records[1]
    assert (r1.k, r1.phi_y, r1.tau) == (ref.k, ref.phi_y, ref.tau)
    assert r1.x.tobytes() == ref.x.tobytes()


def test_read_record_is_frozen_and_replaceable(tmp_path, stored_traces):
    path = tmp_path / "t.jsonl"
    path.write_text("\n".join(stored_traces["ex2"]) + "\n")
    r = Trace.read_jsonl(path).records[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.phi_x = 0.0
    moved = dataclasses.replace(r, phi_x=2.5)
    assert moved.phi_x == 2.5 and r.phi_x != 2.5
    assert moved.k == r.k and moved.y is r.y


@pytest.mark.parametrize("field", ["x", "xi"])
@pytest.mark.parametrize("marker", [{"arrays": "base64-f8le"}, {}],
                         ids=["base64-f8le", "no-arrays-key"])
def test_unmarked_trace_may_not_leave_out_x_or_xi(tmp_path, capsys,
                                                   stored_traces, field,
                                                   marker):
    # a header without the derived-arrays marker stores every array, as
    # traces written before it did; such a trace checks clean, and one of
    # them without x or xi is a parse error naming the field
    lines = stored_traces["ex2"]
    path = tmp_path / "t.jsonl"
    path.write_text("\n".join(lines) + "\n")
    full = Trace.read_jsonl(path)
    meta = json.loads(lines[0])
    del meta["arrays"]
    meta.update(marker)
    records = [json.loads(line) for line in lines[1:]]
    for obj, r in zip(records, full.records):
        obj.update({name: base64.b64encode(getattr(r, name).tobytes())
                    .decode("ascii") for name in ("x", "xi")})

    def write():
        path.write_text("".join(json.dumps(obj) + "\n"
                                for obj in (meta, *records)))

    write()
    capsys.readouterr()
    assert main(["check", str(path)]) == 0
    del records[1][field]
    write()
    assert main(["check", str(path)]) == 2
    assert (f"{path}: parse error: line 3: field {field!r} is missing"
            in capsys.readouterr().err)


def test_check_flags_x_shifted_off_its_derivation(tmp_path, capsys):
    # shifting one record's x by 1e-6 keeps it on disk, bit for bit, and
    # breaks the reconstruction of the step that led to it; the next x,
    # derived from the shifted one, no longer matches either and is kept
    out = run_dir(tmp_path)
    assert main(["run", "--problem", "ex2", "--out", out, "--start=5.0,5.0",
                 *REF_FLAGS]) == 0
    path = f"{out}/trace_000.jsonl"
    trace = Trace.read_jsonl(path)
    k = 2
    records = list(trace.records)
    records[k] = dataclasses.replace(records[k], x=records[k].x + 1e-6)
    dataclasses.replace(trace, records=records).write_jsonl(path)
    with open(path, encoding="utf-8") as fh:
        stored = [json.loads(line) for line in fh.readlines()[1:]]
    assert ["x" in obj for obj in stored] == [i in (k, k + 1)
                                              for i in range(len(records))]
    assert (Trace.read_jsonl(path).records[k].x.tobytes()
            == records[k].x.tobytes())
    capsys.readouterr()
    assert main(["check", path]) == 1
    report = capsys.readouterr().out
    assert f"reconstruction: worst slack -1.414e-06 at k={k - 1} [VIOLATED]" \
        in report
    assert report.count("VIOLATED") == 1


def test_check_rejects_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert main(["check", str(path)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_empty_starts_list_is_ok(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "problem": "ex1", "solver": "dca", "starts": [],
        "rho": 0.6, "beta": 0.1, "theta": 0.2,
    }))
    out = run_dir(tmp_path)
    assert main(["run", "--config", str(cfg), "--out", out]) == 0
    assert read_summary(out) == []


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "problem": "ex2",
        "solver": "inmbdca",
        "rho": 0.6, "beta": 0.1, "theta": 0.2,
        "lambda_bar": 1.0,
        "nu.kind": "ratio", "nu.omega": 0.01,
        "stop_step_tol": 1e-5,
        "inexact_mode": "inner_solver",
        "starts": [[2.0, 2.0]],
    }))
    out = run_dir(tmp_path)
    assert main(["run", "--config", str(cfg), "--out", out,
                 "--theta", "0.1"]) == 0
    trace = Trace.read_jsonl(f"{out}/trace_000.jsonl")
    assert trace.config.theta == 0.1  # flag wins over the file
    assert trace.config.rho == 0.6


def test_usage_errors(tmp_path, capsys):
    out = run_dir(tmp_path)
    assert main(["run", "--out", out, *REF_FLAGS]) == 2  # no problem
    assert main(["run", "--problem", "nope", "--out", out, *REF_FLAGS]) == 2
    assert main(["run", "--problem", "ex1", "--out", out,
                 *REF_FLAGS, "--theta", "0.5"]) == 2  # invalid config
    capsys.readouterr()


def test_plot_data_files(tmp_path):
    out = run_dir(tmp_path)
    assert main(["run", "--problem", "ex2", "--out", out,
                 "--start", "1.0,1.0", "--plot-data", *REF_FLAGS]) == 0
    phi_rows = open(f"{out}/phi_000.csv").read().splitlines()
    path_rows = open(f"{out}/path_000.csv").read().splitlines()
    assert phi_rows[0] == "k,phi_x"
    assert path_rows[0] == "x1,x2"
    trace = Trace.read_jsonl(f"{out}/trace_000.jsonl")
    assert len(phi_rows) == len(trace.records) + 2  # header + final value
    assert len(path_rows) == len(trace.records) + 2


def test_solver_vocabulary(tmp_path):
    # every registered problem x solver runs and produces checkable traces
    for problem in ("ex1", "ex2", "random-sep(dim=3,seed=5)"):
        for solver in ("dca", "bdca", "nmbdca", "inmbdca"):
            out = run_dir(tmp_path, f"{hash(problem) % 997}_{solver}")
            flags = [f if f != "inmbdca" else solver for f in REF_FLAGS]
            assert main(["run", "--problem", problem, "--out", out,
                         "--starts-count", "2", "--starts-seed", "6",
                         *flags]) == 0
            assert main(["check", f"{out}/trace_000.jsonl",
                         f"{out}/trace_001.jsonl"]) == 0


def test_dca_trace_has_zero_steps(tmp_path):
    out = run_dir(tmp_path)
    assert main(["run", "--problem", "ex1", "--out", out,
                 "--start", "4.0,-3.0", "--solver", "dca",
                 "--rho", "0.6", "--beta", "0.1", "--theta", "0.2"]) == 0
    trace = Trace.read_jsonl(f"{out}/trace_000.jsonl")
    assert all(r.lambda_k == 0.0 for r in trace.records)
    assert all(r.lambda_bar == 0.0 for r in trace.records)


def test_dca_trace_with_lambda_bar_kind_still_reads(tmp_path, capsys):
    # dca trace headers written before the trial step became a plain float
    # hold "lambda_bar.kind": "zero_boost" beside "lambda_bar": 0.0
    out = run_dir(tmp_path)
    assert main(["run", "--problem", "ex1", "--out", out,
                 "--start", "4.0,-3.0", "--solver", "dca"]) == 0
    path = tmp_path / "out" / "trace_000.jsonl"
    meta, *records = path.read_text().splitlines()
    meta = json.loads(meta)
    config = {**meta["config"], "lambda_bar.kind": "zero_boost"}
    assert config["lambda_bar"] == 0.0
    meta["config"] = config
    path.write_text("\n".join([json.dumps(meta), *records]) + "\n")
    assert Trace.read_jsonl(path).config.lambda_bar == 0.0
    assert main(["check", str(path)]) == 0
    # the old header is no longer a valid run config: the key is unknown
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**config, "problem": "ex1",
                               "starts": [[4.0, -3.0]]}))
    capsys.readouterr()
    assert main(["run", "--config", str(cfg), "--out",
                 run_dir(tmp_path, "rerun")]) == 2
    assert not (tmp_path / "rerun").exists()
    assert "'lambda_bar.kind'" in capsys.readouterr().err


# Taken at the commit before the subdifferential bounds were read off the
# compiled triple, over dim-2 problems only, so that numpy's reduction order
# cannot differ between platforms.  A hot-path change that moves any decoded
# trace value or summary residual by one bit fails here.
GOLDEN_TRACE_SHA256 = (
    "44b045f8081906ea59544a91882fca2f3cbf75afe1d7a251556f55468a1b6b19")
GOLDEN_FINAL_RESIDUALS = {
    f"{problem}_{mode}": ["0.0"] * 5
    for problem in ("ex1", "ex2") for mode in ("inner_solver", "perturbed_exact")
}


def _trace_digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        trace = Trace.read_jsonl(path)
        h.update(repr((trace.problem_name, trace.final_phi,
                       trace.termination.value)).encode())
        h.update(trace.x0.tobytes() + trace.final_x.tobytes())
        for r in trace.records:
            for f in dataclasses.fields(r):
                v = getattr(r, f.name)
                h.update(v.tobytes() if isinstance(v, np.ndarray)
                         else repr(v).encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def golden_runs(tmp_path_factory):
    """The 20 golden traces' paths and each run's summary residuals."""
    root = tmp_path_factory.mktemp("golden")
    paths, residuals = [], {}
    for problem in ("ex1", "ex2"):
        for mode in ("inner_solver", "perturbed_exact"):
            out = run_dir(root, f"{problem}_{mode}")
            assert main(["run", "--problem", problem, "--out", out,
                         "--starts-count", "5", "--starts-seed", "42",
                         "--starts-box", "-10", "10", *REF_FLAGS,
                         "--inexact-mode", mode]) == 0
            paths += sorted(str(p) for p in
                            (root / f"{problem}_{mode}").glob("trace_*.jsonl"))
            residuals[f"{problem}_{mode}"] = [
                row["final_residual"] for row in read_summary(out)]
    return paths, residuals


def test_golden_traces_and_residuals(golden_runs):
    paths, residuals = golden_runs
    assert len(paths) == 20
    assert residuals == GOLDEN_FINAL_RESIDUALS
    assert _trace_digest(paths) == GOLDEN_TRACE_SHA256


def test_descent_step_is_descent_y_plus_linesearch(golden_runs):
    # descent_step's slack is, term for term, descent_y's plus linesearch's;
    # on every golden record the computed slacks agree to a few ulps of the
    # largest term, so descent_step checks nothing the other two miss
    paths, _ = golden_runs
    records = 0
    for path in paths:
        trace = Trace.read_jsonl(path)
        problem, config = problems.resolve(trace.problem_name), trace.config
        coefficients = separable_coefficients(problem.g, problem.dim)
        for r in trace.records:
            s = slacks(r, problem, config, coefficients)
            d_sq = r.d_norm**2
            terms = (r.phi_x, (problem.sigma / 2 - config.theta) * d_sq,
                     config.rho * r.lambda_k**2 * d_sq, r.nu_k, r.eps_k,
                     r.phi_y, r.phi_next)
            gap = s["descent_step"] - (s["descent_y"] + s["linesearch"])
            assert abs(gap) <= 4 * math.ulp(max(map(abs, terms))), (path, r.k)
            records += 1
    assert records > 100


@pytest.mark.parametrize("solver", ["nmbdca", "bdca", "dca"])
@pytest.mark.parametrize("theta", [[], ["--theta", "0.2"]])
def test_exact_solvers_record_the_mode_they_run(tmp_path, solver, theta):
    # nmbdca, bdca and dca always solve exactly, so the mode flag has no
    # effect with or without theta, and the header says what ran
    out = run_dir(tmp_path)
    assert main(["run", "--problem", "ex1", "--out", out, "--start=1,1",
                 "--solver", solver, "--inexact-mode", "inner_solver",
                 *theta]) == 0
    with open(f"{out}/trace_000.jsonl", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
    assert header["config"]["inexact_mode"] == "exact"


@pytest.mark.parametrize("solver", ["inmbdca", "nmbdca", "bdca", "dca"])
@pytest.mark.parametrize("flag, value", [("--lambda-bar", "-1"),
                                         ("--theta", "nan")])
def test_out_of_range_values_rejected_for_every_solver(tmp_path, capsys,
                                                       solver, flag, value):
    # dca runs with trial step 0, yet a trial step of -1 is still an error
    out = tmp_path / "out"
    assert main(["run", "--problem", "ex1", "--out", str(out), "--start=1,1",
                 "--solver", solver, flag, value]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("run: invalid configuration")
    assert flag[2:].replace("-", "_") in err
