import argparse
import base64
import binascii
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import pathlib
import runpy
import subprocess
import sys

import numpy as np
import pytest

from dcboost import cli, problems
from dcboost.certificates import slack_columns
from dcboost.cli import main
from dcboost.core import Records, Trace, config_from_flat, config_to_flat
from dcboost.drivers import complexity_report, solver_config
from dcboost.linesearch import tau_bound


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
    # above a recorded phi, or NaN, which no comparison would catch
    for phibar in ("0.0", "nan"):
        capsys.readouterr()
        code = main(["complexity", f"{out}/trace_000.jsonl", "--phibar",
                     phibar])
        assert code == 2
        assert "lower bound" in capsys.readouterr().err


def test_summary_is_byte_identical_across_runs(tmp_path):
    args = ["--problem", "ex1", "--starts-count", "8", "--starts-seed", "7",
            "--starts-box", "-10", "10", *REF_FLAGS]
    out_a, out_b = run_dir(tmp_path, "a"), run_dir(tmp_path, "b")
    assert main(["run", "--out", out_a, *args]) == 0
    assert main(["run", "--out", out_b, *args]) == 0
    a = pathlib.Path(out_a, "summary.csv").read_bytes()
    b = pathlib.Path(out_b, "summary.csv").read_bytes()
    assert a == b
    assert a.endswith(b"\n")


def test_summary_cells_repr_each_float_as_before():
    # a cell is the repr of each coordinate's Python float, read off tolist()
    # rather than a float() per element: the same text on signed zeros,
    # subnormals, the ends of the range and integral values
    x = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e-310, 1e308, -1e308,
                  1.7976931348623157e308, 3.0, -7.0, 2.0**53, 0.1, 1 / 3])
    assert cli._vec(x) == ";".join(repr(float(v)) for v in x)
    assert cli._vec(x[:1]) == "-0.0"


def test_summary_is_what_csv_writes_of_its_rows(tmp_path):
    # the cells are joined by commas as they stand: none holds a comma, a
    # quote or a line break, which csv would quote
    for problem, starts in [("ex2", ["--start=-0.0,5e-324", "--start=1,2"]),
                            ("random-sep(dim=40,seed=0)",
                             ["--starts-count", "2"]),
                            ("ex1", ["--starts-count", "0"])]:
        out = run_dir(tmp_path, problem)
        assert main(["run", "--problem", problem, "--out", out, *starts,
                     *REF_FLAGS]) == 0
        written = pathlib.Path(out, "summary.csv").read_bytes().decode()
        with open(f"{out}/summary.csv", newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        text = io.StringIO()
        writer = csv.DictWriter(text, fieldnames=reader.fieldnames,
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        assert written == text.getvalue()
    assert rows == [] and written.count("\n") == 1


def test_consecutive_main_calls_share_no_state(tmp_path, monkeypatch):
    # the parser is built once, at the first call; each parse fills a new
    # namespace, so no --start list, --config or --workers carries over
    seen = []
    monkeypatch.setattr(cli, "cmd_run", lambda args: seen.append(args) or 0)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"problem": "ex2"}')
    first = ["run", "--out", "a", "--config", str(cfg), "--start=1,1",
             "--start=2,2", "--workers", "2", "--theta", "0.3"]
    second = ["run", "--out", "b", "--start=3,3"]
    assert main(first) == 0 and main(second) == 0
    assert cli._parser() is cli._parser()
    fresh = cli._parser.__wrapped__
    assert [vars(args) for args in seen] == [
        vars(fresh().parse_args(first)), vars(fresh().parse_args(second))]
    assert (seen[0].start, seen[0].config, seen[0].workers) == (
        ["1,1", "2,2"], str(cfg), 2)
    assert (seen[1].start, seen[1].config, seen[1].workers,
            seen[1].theta) == (["3,3"], None, 1, None)


def test_worker_pool_matches_sequential(tmp_path):
    # perturbed_exact draws from the seed each start's payload carries
    for mode in ("inner_solver", "perturbed_exact"):
        args = ["--problem", "ex2", "--starts-count", "4", "--starts-seed",
                "3", *REF_FLAGS, "--inexact-mode", mode]
        seq, par = tmp_path / f"seq_{mode}", tmp_path / f"par_{mode}"
        assert main(["run", "--out", str(seq), *args]) == 0
        assert main(["run", "--out", str(par), "--workers", "2", *args]) == 0
        names = sorted(p.name for p in seq.iterdir())
        assert names == sorted(p.name for p in par.iterdir())
        assert len(names) == 5 and "summary.csv" in names
        for name in names:
            assert (seq / name).read_bytes() == (par / name).read_bytes()


def test_run_parses_its_config_once(tmp_path, monkeypatch):
    calls = []
    parse = cli.config_from_flat

    def counted(flat):
        calls.append(flat)
        return parse(flat)

    monkeypatch.setattr(cli, "config_from_flat", counted)
    assert main(["run", "--problem", "ex2", "--out", run_dir(tmp_path),
                 "--starts-count", "3", *REF_FLAGS]) == 0
    assert len(calls) == 1


def test_check_flags_corrupted_linesearch(tmp_path, capsys):
    out = run_dir(tmp_path)
    main(["run", "--problem", "ex2", "--out", out, "--start", "5.0,5.0",
          *REF_FLAGS])
    path = pathlib.Path(out, "trace_000.jsonl")
    lines = path.read_text().splitlines()
    rec = json.loads(lines[3])
    rec["phi_next"] += 1.0
    lines[3] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    code = main(["check", str(path)])
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
    path = pathlib.Path(out, "trace_000.jsonl")
    lines = path.read_text().splitlines()
    rec = json.loads(lines[2])
    rec["phi_x"] = math.nan
    lines[2] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["check", str(path)]) == 2
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
    (["--nu-kind", "zhang_hager", "--nu-eta", "1.0"], None),
    ([], {"starts.box": [1]}),
    ([], {"starts.box": [1, 2, 3]}),
    ([], {"starts": {}}),
    ([], {"starts": [[1, 2], [3]]}),
    ([], {"starts": "a"}),
    ([], {"starts.count": -1}),
    ([], {"starts.box": [5.0, 1.0]}),
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
    for key in config or ():
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
    ["--nu-kind", "direct", "--nu-delta", "0.1", "--nu-nu0", "nan"],
    ["--nu-kind", "ratio", "--nu-omega", "nan"],
    ["--nu-kind", "zhang_hager", "--nu-c0-offset", "nan"],
    ["--nu-kind", "grippo"],
    ["--eps-q", "nan"],
    ["--eps-kind", "harmonic2", "--eps-eps0", "0.1", "--eps-q", "inf"],
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
                 *REF_FLAGS, "--nu-kind", "direct", "--nu-delta",
                 "0.1"]) == 0
    assert Trace.read_jsonl(f"{out}/trace_000.jsonl").config.nu.kind == "direct"


def test_run_options_are_pinned():
    # every run flag with its value type and choices; the config flags are
    # derived from the dataclasses, so this pins the derivation
    sub = argparse.ArgumentParser().add_subparsers()
    cli._build_run_parser(sub)
    floats = ["--rho", "--beta", "--theta", "--lambda-bar", "--eps-eps0",
              "--eps-q", "--nu-omega", "--nu-delta", "--nu-nu0",
              "--nu-eta", "--nu-c0-offset", "--stop-step-tol",
              "--d-zero-tol", "--starts-box"]
    ints = ["--nu-m", "--max-iter", "--max-backtracks", "--starts-count",
            "--starts-seed", "--workers"]
    expected = {
        "-h": (None, None), "--help": (None, None),
        "--config": (None, None), "--out": (None, None),
        "--problem": (None, None), "--start": (None, None),
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


@pytest.mark.parametrize("line_no, name", [(3, "phi_x"), (1, "final_phi"),
                                           (3, "k"), (3, "n_backtracks")])
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


def _parent_decode(value):
    """The array decoder as it stood with ``base64.b64decode``: its
    accept/reject decisions and messages are the ones to keep."""
    if not isinstance(value, str):
        raise ValueError(f"expected a base64 string, got {value!r:.40}")
    try:
        raw = base64.b64decode(value, validate=True)
    except binascii.Error as exc:
        raise ValueError(f"invalid base64 ({exc})") from None
    if len(raw) % 8:
        raise ValueError(f"{len(raw)} bytes is not a whole number of "
                         "float64 values")
    return raw


_ZEROS16 = "A" * 22 + "=="  # the 16 bytes of two 0.0 values


@pytest.mark.parametrize("value", [
    _ZEROS16, _ZEROS16 + "==",  # accepted: padding beyond the last quantum
    _ZEROS16[:-1] + "é", "é" + _ZEROS16[1:],  # non-ASCII text
    _ZEROS16[:-1], "A" * 22,  # bad padding
    "=" + _ZEROS16[1:], "AAAA=" + _ZEROS16[5:], _ZEROS16 + "A",  # a stray =
    "A" * 11 + " " + "A" * 11 + "=", _ZEROS16 + "\n",  # whitespace
    "\t" + _ZEROS16[1:],
    "A" * 10 + "==", "A" * 12,  # 7 and 9 decoded bytes
    12345, None, [0.0, 0.0], {"x": 1},  # not a string
])
def test_array_decoding_keeps_its_accepted_inputs_and_messages(
        tmp_path, capsys, stored_traces, value):
    lines = list(stored_traces["ex2"])
    lines[2] = _set(lines[2], "w", value)
    path = tmp_path / "edited.jsonl"
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main(["check", str(path)])
    err = capsys.readouterr().err
    try:
        _parent_decode(value)
    except ValueError as exc:
        assert (code, err) == (2, f"{path}: parse error: line 3: field 'w': "
                                  f"{exc}\n")
    else:
        assert code != 2 and err == ""


def _set_literal(line, name, literal):
    """``line`` with field ``name`` holding the JSON number ``literal`` as
    written, which json.dumps could not produce for a value beyond range."""
    obj = json.loads(line)
    obj[name] = 0.125
    return json.dumps(obj).replace(f'"{name}": 0.125', f'"{name}": {literal}')


@pytest.mark.parametrize("line_no, name, literal", [
    (3, "phi_x", "1e400"), (3, "nu_k", "1E999"),
    (1, "final_phi", "1e400"),
])
@pytest.mark.parametrize("command", ["check", "complexity"])
def test_float_literal_beyond_range_is_a_parse_error(
        tmp_path, capsys, stored_traces, command, line_no, name, literal):
    # Python's JSON reads such a literal as inf; the writer never emits one
    lines = list(stored_traces["ex2"])
    lines[line_no - 1] = _set_literal(lines[line_no - 1], name, literal)
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main([command, str(path)]) == 2
    value = "-inf" if literal.startswith("-") else "inf"
    assert capsys.readouterr().err == (
        f"{path}: parse error: line {line_no}: field {name!r}: {value} is not "
        "a finite number\n")


@pytest.mark.parametrize("name, broken", [
    ("d_norm", []),  # derived from y - x: a stored d_norm is a stale key
    # the next record's x, derived by this lambda_k, moves 1e200 away from
    # its y, so that record's derived ||d|| squares to inf and g(x) reads
    # inf in both halves of the descent to y
    ("lambda_k", ["g_linearization", "h_eps_subgradient", "linesearch",
                  "reconstruction"]),
])
@pytest.mark.parametrize("command", ["check", "complexity"])
def test_a_square_beyond_float_range_is_violated_not_raised(
        tmp_path, capsys, stored_traces, command, name, broken):
    # 1e200**2 raises OverflowError for a float; the slack reads it as inf
    lines = list(stored_traces["ex2"])
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    main([command, str(path)])
    clean = capsys.readouterr().out
    lines[2] = _set(lines[2], name, 1e200)
    path.write_text("\n".join(lines) + "\n")
    code = main([command, str(path)])
    out = capsys.readouterr()
    if not broken:
        assert (code, out.out, out.err) == (0, clean, "")
        return
    assert code == 1
    if command == "check":
        flagged = [line.split(":")[0].strip()
                   for line in out.out.splitlines()
                   if line.endswith("[VIOLATED]")]
        assert flagged == broken
        assert "at k=1 [VIOLATED]" in out.out
    else:
        assert f"certificate replay failed: {', '.join(broken)}" in out.out
    assert out.err == ""


def _f8(values) -> str:
    return base64.b64encode(np.asarray(values, "<f8").tobytes()).decode()


def _check_with_w(tmp_path, capsys, stored_traces, edit):
    """``check`` on the ex2 trace whose first record storing xi, record k,
    has w replaced by ``edit(w, d)``, d = y - x: the exit code, k, the
    names of the [VIOLATED] lines and the output."""
    lines = list(stored_traces["ex2"])
    n = next(i for i, line in enumerate(lines[1:], 1)
             if "xi" in json.loads(line))
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n")
    r = Trace.read_jsonl(path).records[n - 1]
    lines[n] = _set(lines[n], "w", _f8(edit(r.w, r.y - r.x)))
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main(["check", str(path)])
    out = capsys.readouterr()
    flagged = [line.split(":")[0].strip() for line in out.out.splitlines()
               if line.endswith("[VIOLATED]")]
    return code, n - 1, flagged, out


@pytest.mark.parametrize("edit", [
    # across d, so <w, d> and both halves of the descent to y keep their
    # values up to rounding
    lambda w, d: w + 1e3 * np.array([-d[1], d[0]]) / np.sqrt(d @ d),
], ids=["shifted"])
def test_a_corrupted_w_violates_only_the_inexact_bound(tmp_path, capsys,
                                                       stored_traces, edit):
    # ||w - xi|| is recomputed from the record's pair, so an edited w
    # cannot pass on the strength of a stored norm
    code, k, flagged, out = _check_with_w(tmp_path, capsys, stored_traces,
                                          edit)
    assert (code, flagged) == (1, ["inexact_bound"])
    assert f"at k={k} [VIOLATED]" in out.out
    assert out.err == ""


def test_a_non_finite_w_violates_every_line_that_reads_w(tmp_path, capsys,
                                                          stored_traces):
    # ||w - xi|| and <w, d>, which both halves of the descent to y read,
    # are NaN
    code, k, flagged, out = _check_with_w(
        tmp_path, capsys, stored_traces,
        lambda w, d: np.array([math.nan, math.inf]))
    assert code == 1
    assert flagged == ["inexact_bound", "g_linearization",
                       "h_eps_subgradient"]
    assert out.out.count(f"at k={k} [VIOLATED]") == 3
    assert out.err == ""


# a record's keys in the format written before the direction norm, the
# inexactness pair's norms, the trial step and the step floor were left out
# of it
_LEGACY_RECORD_KEYS = (
    "k", "phi_x", "eps_k", "eps_certified", "d_norm", "inexact_lhs",
    "inexact_rhs", "nu_k", "lambda_bar", "lambda_k", "n_backtracks", "phi_y",
    "phi_next", "tau_hat", "tau", "x", "w", "y", "xi")


def test_legacy_record_keys_are_ignored(tmp_path, capsys, stored_traces):
    # wrong stored norms that a trusting reader would flag (1e3 > theta d)
    # or overflow on (1e200**2), and a step floor no search could keep
    lines = list(stored_traces["ex2"])
    stale = {"d_norm": 1e200, "inexact_lhs": 1e3, "inexact_rhs": 0.5,
             "lambda_bar": 1.0, "tau_hat": -1.0, "tau": None}
    legacy = [lines[0]]
    for line in lines[1:]:
        both = {**json.loads(line), **stale}
        legacy.append(json.dumps({key: both[key] for key in _LEGACY_RECORD_KEYS
                                  if key in both}))
    path = tmp_path / "t.jsonl"
    printed = []
    for text in (lines, legacy):
        path.write_text("\n".join(text) + "\n")
        capsys.readouterr()
        codes = (main(["check", str(path)]), main(["complexity", str(path)]))
        printed.append((codes, capsys.readouterr(), _trace_digest([path])))
    assert all(key in json.loads(legacy[1]) for key in stale)
    assert printed[0][0] == (0, 0) and printed[0][1].err == ""
    assert printed[1] == printed[0]


@pytest.mark.parametrize("name, value", [
    ("k", True), ("k", 1.0), ("n_backtracks", 0.0), ("phi_y", False),
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
    # the optional keys of a record are x and xi: a missing x is derived
    # from the record before, a missing xi is w
    lines = list(stored_traces["ex2"])
    path = tmp_path / "t.jsonl"
    path.write_text("\n".join(lines) + "\n")
    plain = Trace.read_jsonl(path)
    lines[2] = _set(lines[2], "phi_x", 1)
    path.write_text("\n".join(lines) + "\n")
    edited = Trace.read_jsonl(path)
    r0, r1 = edited.records[0], edited.records[1]
    assert type(r1.phi_x) is float and r1.phi_x == 1.0
    ref = plain.records[1]
    assert (r1.k, r1.phi_y) == (ref.k, ref.phi_y)
    stored = json.loads(lines[2])
    assert "x" not in stored
    assert r1.x.tobytes() == (r0.y + r0.lambda_k * (r0.y - r0.x)).tobytes()
    assert r1.x.tobytes() == ref.x.tobytes()
    for line, r in zip(lines[1:], edited.records):
        if "xi" not in json.loads(line):
            assert r.xi.tobytes() == r.w.tobytes()


def test_read_record_is_frozen_and_replaceable(tmp_path, stored_traces):
    path = tmp_path / "t.jsonl"
    path.write_text("\n".join(stored_traces["ex2"]) + "\n")
    r = Trace.read_jsonl(path).records[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.phi_x = 0.0
    moved = dataclasses.replace(r, phi_x=2.5)
    assert moved.phi_x == 2.5 and r.phi_x != 2.5
    assert moved.k == r.k and moved.y is r.y


@pytest.mark.parametrize("marker", [{"arrays": "base64-f8le"}, {}],
                         ids=["base64-f8le", "no-arrays-key"])
@pytest.mark.parametrize("command", ["check", "complexity"])
def test_a_header_without_the_derived_marker_is_a_parse_error(
        tmp_path, capsys, stored_traces, command, marker):
    # there is one trace format: a header marked as the format that stored
    # every array, or not marked at all, names the field
    lines = list(stored_traces["ex2"])
    meta = json.loads(lines[0])
    del meta["arrays"]
    meta.update(marker)
    lines[0] = json.dumps(meta)
    path = tmp_path / "t.jsonl"
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err.startswith(
        f"{path}: parse error: line 1: field 'arrays'")


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


def _shift_w(line, by):
    """A record line with ``by`` added to its w[0]."""
    w = np.frombuffer(base64.b64decode(json.loads(line)["w"]), "<f8") + [by, 0]
    return _set(line, "w", _f8(w))


@pytest.mark.parametrize("key, literal", [
    ("theta", "1e400"),  # read as inf
    ("theta", "100"), ("rho", "-5"), ("beta", "2")])
@pytest.mark.parametrize("command", ["check", "complexity"])
def test_a_header_config_no_run_could_write_is_a_parse_error(
        tmp_path, capsys, stored_traces, command, key, literal):
    # record 3's w, shifted by 0.5, fails check under the config its run
    # had; a header config outside validate's ranges cannot excuse it
    lines = list(stored_traces["ex2"])
    assert json.loads(lines[4])["k"] == 3
    lines[4] = _shift_w(lines[4], 0.5)
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n")
    assert main(["check", str(path)]) == 1
    lines[0] = _set(lines[0], "config", {
        **json.loads(lines[0])["config"], key: 0.125}).replace(
        f'"{key}": 0.125', f'"{key}": {literal}')
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{path}: parse error: field 'config': {key} ")


@pytest.mark.parametrize("command", ["check", "complexity"])
def test_a_header_problem_is_checked_against_x0_before_it_is_built(
        tmp_path, capsys, stored_traces, command, monkeypatch):
    # 10**15 coefficients would take 7.1 PiB
    name = "random-sep(dim=1000000000000000,seed=0)"
    lines = list(stored_traces["ex2"])
    lines[0] = _set(lines[0], "problem_name", name)
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n")
    built = []
    monkeypatch.setattr(problems, "random_separable",
                        lambda *args: built.append(args))
    capsys.readouterr()
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err == (
        f"{path}: parse error: field 'x0': 2 values, problem {name!r} has "
        "dimension 1000000000000000\n")
    assert built == []


def test_run_of_a_problem_too_large_to_build_is_a_usage_error(tmp_path,
                                                               capsys):
    out = run_dir(tmp_path)
    assert main(["run", "--problem", "random-sep(dim=1000000000000000,seed=0)",
                 "--out", out, *REF_FLAGS]) == 2
    assert capsys.readouterr().err.startswith("run: ")
    assert not os.path.exists(out)


def test_a_trace_that_cannot_be_written_is_an_error_record(tmp_path, capsys):
    # the other starts run and the summary is written, as for a start
    # whose run fails
    flags = ["run", "--problem", "ex2", "--starts-count", "3", *REF_FLAGS]
    assert main([*flags, "--out", run_dir(tmp_path, "clean")]) == 0
    out = tmp_path / "out"
    (out / "trace_001.jsonl").mkdir(parents=True)
    capsys.readouterr()
    assert main([*flags, "--out", str(out)]) == 1
    error, = [json.loads(line) for line in capsys.readouterr().err.splitlines()
              if line.startswith("{")]
    assert (error["error"], error["start_index"]) == ("IsADirectoryError", 1)
    clean = read_summary(tmp_path / "clean")
    assert read_summary(out) == [clean[0], clean[2]]
    assert sorted(p.name for p in out.iterdir()) == [
        "summary.csv", "trace_000.jsonl", "trace_001.jsonl", "trace_002.jsonl"]


def test_run_check_complexity_and_plot_data_build_no_record_view(
        tmp_path, monkeypatch):
    def no_view(self, i):
        raise AssertionError("a record view was built")

    monkeypatch.setattr(Records, "__getitem__", no_view)
    paths = []
    for problem in ("ex2", "random-sep(dim=3,seed=5)"):  # one with no bound
        out = tmp_path / problem
        assert main(["run", "--problem", problem, "--out", str(out),
                     "--starts-count", "2", *REF_FLAGS]) == 0
        paths += sorted(str(p) for p in out.glob("trace_*.jsonl"))
    assert main(["check", *paths]) == 0
    for path in paths:
        assert main(["complexity", path]) == 0
    runpy.run_path(str(SCRIPT))["write_plot_data"](tmp_path / "ex2")
    assert (tmp_path / "ex2" / "path_000.csv").read_text().count("\n") > 2


def test_check_rejects_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert main(["check", str(path)]) == 2
    assert "parse error" in capsys.readouterr().err


@pytest.fixture(scope="module")
def mixed_trace_paths(tmp_path_factory):
    """Trace files in interleaved order: ex1, ex2 and a dim-3 problem under
    two configs, theta 0.0 beside theta -0.0, zero-record ex2 traces and one
    whose lambda_k squares past float range (violated, with inf slacks)."""
    out = tmp_path_factory.mktemp("mixed")
    other = [*REF_FLAGS, "--rho", "0.3", "--theta", "0.1"]
    runs = {
        "ex1": ["--problem", "ex1", *REF_FLAGS],
        "ex2": ["--problem", "ex2", *REF_FLAGS],
        "ex2_other": ["--problem", "ex2", *other],
        "dim3": ["--problem", "random-sep(dim=3,seed=1)", *REF_FLAGS],
        "dim3_other": ["--problem", "random-sep(dim=3,seed=1)", *other],
        "theta0": ["--problem", "ex2", "--theta", "0.0"],
        "theta-0": ["--problem", "ex2", "--theta=-0.0"],
    }
    for name, flags in runs.items():
        assert main(["run", *flags, "--starts-count", "3", "--starts-seed",
                     "7", "--out", str(out / name)]) == 0
    (out / "zero").mkdir()
    for i in range(3):  # ex2 traces cut to their header
        header = (out / "ex2" / f"trace_{i:03d}.jsonl").read_text()
        (out / "zero" / f"trace_{i:03d}.jsonl").write_text(
            header.splitlines()[0] + "\n")
    path = out / "ex2" / "trace_002.jsonl"
    lines = path.read_text().splitlines()
    lines[2] = _set(lines[2], "lambda_k", 1e200)
    path.write_text("\n".join(lines) + "\n")
    order = ["ex2", "ex2", "zero", "ex2", "ex1", "ex2_other", "ex1", "dim3",
             "dim3_other", "dim3_other", "zero", "theta0", "theta-0",
             "theta-0", "theta0", "ex1", "dim3", "dim3", "ex2_other", "zero"]
    taken = {}
    paths = []
    for name in order:
        i = taken[name] = taken.get(name, -1) + 1
        paths.append(str(out / name / f"trace_{i:03d}.jsonl"))
    return paths


@pytest.fixture
def batch_sizes(monkeypatch):
    """The number of traces in each batch that ``check`` replays."""
    sizes = []
    replay_stacked = cli.replay_stacked

    def spy(traces, problem):
        sizes.extend([len(traces)] if traces else [])
        return replay_stacked(traces, problem)

    monkeypatch.setattr(cli, "replay_stacked", spy)
    return sizes


def test_one_check_prints_the_checks_of_each_file_in_turn(
        capsys, batch_sizes, mixed_trace_paths):
    capsys.readouterr()
    codes, outs = [], []
    for path in mixed_trace_paths:
        codes.append(main(["check", path]))
        out = capsys.readouterr()
        assert out.err == ""
        outs.append(out.out)
    assert batch_sizes == [1] * len(mixed_trace_paths)
    batch_sizes.clear()
    code = main(["check", *mixed_trace_paths])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (max(codes), "".join(outs), "")
    assert code == 1
    assert batch_sizes == [4, 1, 1, 1, 1, 2, 1, 1, 2, 1, 1, 2, 1, 1]
    signs = [line for line in "".join(outs).splitlines()
             if line.startswith("  inexact_bound: worst slack ")
             and "0.000e+00" in line]
    assert len(signs) == 4 and sum("-0.000e+00" in line for line in signs) == 2


def test_a_parse_error_stops_check_after_the_reports_before_it(
        tmp_path, capsys, monkeypatch, mixed_trace_paths):
    paths = list(mixed_trace_paths[:5])
    bad = tmp_path / "bad.jsonl"
    lines = pathlib.Path(paths[0]).read_text().splitlines()
    lines[1] = _set(lines[1], "k", "1")
    bad.write_text("\n".join(lines) + "\n")
    paths[2] = str(bad)
    capsys.readouterr()
    assert [main(["check", path]) for path in paths[:2]] == [0, 0]
    before = capsys.readouterr().out
    opened = []
    read = Trace.read_jsonl

    def spy(path):
        opened.append(path)
        return read(path)

    monkeypatch.setattr(Trace, "read_jsonl", spy)
    assert main(["check", *paths]) == 2
    out = capsys.readouterr()
    assert out.out == before
    assert out.err == (f"{bad}: parse error: line 2: field 'k': expected "
                       "int, got '1'\n")
    assert opened == paths[:3]


def test_a_dim_1000_trace_replays_alone(tmp_path, batch_sizes):
    out = tmp_path / "out"
    assert main(["run", "--problem", "random-sep(dim=1000,seed=0)",
                 "--starts-count", "3", "--max-iter", "1", "--out",
                 str(out)]) == 0
    traces = sorted(str(p) for p in out.glob("trace_*.jsonl"))
    assert main(["check", *traces]) == 0
    assert batch_sizes == [1, 1, 1]


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
    taken = tmp_path / "taken"
    taken.write_text("")
    for target in (taken, taken / "sub"):  # a regular file at or above --out
        assert main(["run", "--problem", "ex1", "--out", str(target),
                     "--start=1,1", *REF_FLAGS]) == 2
        assert capsys.readouterr().err.startswith("run: ")
    assert taken.read_text() == ""


SCRIPT = (pathlib.Path(__file__).resolve().parents[1] / "scripts"
          / "reproduce_experiments.py")


def test_plot_data_files(tmp_path, monkeypatch, capsys):
    # the reproduction script derives each documented start's objective and
    # path CSVs from its trace, ending with the final point, bit for bit
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--starts", "2",
                                      "--out", str(tmp_path)])
    runpy.run_path(str(SCRIPT), run_name="__main__")
    assert len(read_summary(tmp_path / "ex1")) == 2
    for name in ("ex1", "ex2"):
        out = tmp_path / f"{name}_single"
        trace = Trace.read_jsonl(out / "trace_000.jsonl")
        phis = [r.phi_x for r in trace.records] + [trace.final_phi]
        xs = [r.x for r in trace.records] + [trace.final_x]
        assert [r.k for r in trace.records] == list(range(len(phis) - 1))
        assert (out / "phi_000.csv").read_text().splitlines() == [
            "k,phi_x", *(f"{k},{v!r}" for k, v in enumerate(phis))]
        assert (out / "path_000.csv").read_text().splitlines() == [
            "x1,x2", *(f"{float(x[0])!r},{float(x[1])!r}" for x in xs)]


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
    assert trace.config.lambda_bar == 0.0


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


def test_retired_nu_key_in_a_trace_header_is_a_parse_error(tmp_path, capsys):
    # a direct trace written while nu.delta defaulted to nu.delta_min: read
    # as today's keys it would run the rule at delta 0, not 0.2
    out = run_dir(tmp_path)
    assert main(["run", "--problem", "ex2", "--out", out, "--start=5.0,5.0",
                 *REF_FLAGS, "--nu-kind", "direct", "--nu-delta", "0.2"]) == 0
    path = tmp_path / "out" / "trace_000.jsonl"
    meta, *records = path.read_text().splitlines()
    meta = json.loads(meta)
    config = meta["config"]
    del config["nu.delta"]
    config["nu.delta_min"] = 0.2
    path.write_text("\n".join([json.dumps(meta), *records]) + "\n")
    capsys.readouterr()
    for command in (["check", str(path)], ["complexity", str(path)]):
        assert main(command) == 2
        assert "'nu.delta_min'" in capsys.readouterr().err


# Taken over dim-2 problems only, so that numpy's reduction order cannot
# differ between platforms, and over the decoded record fields, so that a
# key the reader ignores does not move it.  A hot-path change that moves any
# decoded trace value or summary residual by one bit fails here.
GOLDEN_TRACE_SHA256 = (
    "895939a50de77dcd0010c9696097c77764b1403b0d5fc8e314699921b7488991")
# repr((tau_hat, tau)) from tau_bound on every golden record with nu_k > 0
# (so d != 0), in trace order: the step floor a record derives equals, bit
# for bit, the one the loop computed and stored before it was derived
GOLDEN_TAU_SHA256 = (
    "349c5aa0c52068388e5703bd3e3f897aa6aa1a0f51437bc02184707d73776d6b")
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


def test_golden_step_floors_are_pinned(golden_runs):
    paths, _ = golden_runs
    h = hashlib.sha256()
    floors = 0
    for path in paths:
        trace = Trace.read_jsonl(path)
        problem = problems.resolve(trace.problem_name)
        for r in trace.records:
            d = r.y - r.x
            if r.nu_k > 0 and d.any():
                tb = tau_bound(problem.g, r.x, r.y, d, r.nu_k, r.eps_k,
                               problem.sigma, trace.config.rho)
                h.update(repr((tb.tau_hat, tb.tau)).encode())
                floors += 1
    assert floors == 273
    assert h.hexdigest() == GOLDEN_TAU_SHA256


# Short runs under each nu kind, two each for the kinds with parameters (at
# their defaults and off them, and the direct rule under a positive eps that
# enters its budget), hashed as the golden traces are.  Every allowance
# recurrence is pinned bit for bit; the header is left out, so a renamed key
# does not move the digest.
NU_KIND_FLAGS = [
    ["--nu-kind", "direct", "--nu-delta", "0.5", "--nu-nu0", "0.5"],
    ["--nu-kind", "direct", "--eps-kind", "geometric", "--eps-eps0", "0.1"],
    ["--nu-kind", "zhang_hager", "--nu-eta", "0.8", "--nu-c0-offset", "0.5"],
    ["--nu-kind", "zhang_hager"],
    ["--nu-kind", "grippo", "--nu-m", "3"],
    ["--nu-kind", "ratio", "--nu-omega", "0.01"],
    ["--nu-kind", "zero"],
]
GOLDEN_NU_SHA256 = (
    "61efcf6024befe3403299f406fd8692eaf7703a9373e70d9b1472a08f3372001")


def test_every_nu_kind_is_pinned_bit_for_bit(tmp_path):
    paths = []
    for i, flags in enumerate(NU_KIND_FLAGS):
        for problem in ("ex1", "ex2"):
            out = run_dir(tmp_path, f"{i}_{problem}")
            assert main(["run", "--problem", problem, "--out", out,
                         "--starts-count", "3", "--starts-seed", "7",
                         *REF_FLAGS, *flags]) == 0
            paths += sorted(str(p) for p in
                            (tmp_path / f"{i}_{problem}").glob("trace_*.jsonl"))
    assert len(paths) == 42
    assert _trace_digest(paths) == GOLDEN_NU_SHA256


# repr of every ComplexityReport field, in field order, at each xi, with
# phi_bar the problem's declared lower bound: on the golden traces, where
# every tail bound starts at k0 = 0, and on runs whose larger allowance and
# eps budget give tail bounds from k0 > 0, so the sums before k0 enter
TAIL_FLAGS = ["--nu-omega", "1", "--eps-kind", "geometric", "--eps-eps0",
              "0.01", "--eps-q", "0.1"]
GOLDEN_COMPLEXITY_SHA256 = (
    "a5a2fd4f5332da84cf8bd3beed1a6f865f7aa4d12b9a4727d2558d0e55fabd15")


def test_golden_complexity_reports_are_pinned(golden_runs, tmp_path):
    paths, _ = golden_runs
    for problem in ("ex1", "ex2"):
        out = run_dir(tmp_path, problem)
        assert main(["run", "--problem", problem, "--out", out,
                     "--starts-count", "5", "--starts-seed", "42",
                     *REF_FLAGS, *TAIL_FLAGS]) == 0
        paths = paths + sorted(str(p) for p in
                               (tmp_path / problem).glob("trace_*.jsonl"))
    h = hashlib.sha256()
    heads = 0
    for path in paths:
        trace = Trace.read_jsonl(path)
        problem = problems.resolve(trace.problem_name)
        for xi in (0.1, 0.25, 0.45):
            report = complexity_report(trace, problem.phi_lower_bound,
                                       problem.sigma, trace.config.theta, xi)
            h.update(repr(dataclasses.astuple(report)).encode())
            heads += bool(report.tail_start)
    assert heads > 0
    assert h.hexdigest() == GOLDEN_COMPLEXITY_SHA256


def test_descent_step_is_g_plus_h_plus_linesearch(golden_runs):
    # the descent of a whole step, phi(x) - (c + rho lambda^2) ||d||^2 +
    # nu_k + eps_k - phi(x+), is term for term the slacks of the g half,
    # the h half and linesearch summed (g(x), g(y) and <w, d> cancel); on
    # every golden record they agree to a few ulps of the largest term, so
    # it is no certificate of its own
    paths, _ = golden_runs
    records = 0
    for path in paths:
        trace = Trace.read_jsonl(path)
        problem, config = problems.resolve(trace.problem_name), trace.config
        s = slack_columns(trace.records, problem, config, trace.final_x)
        for i, r in enumerate(trace.records):
            d_sq = r.d_norm**2
            decrease = (problem.sigma / 2 - config.theta) * d_sq
            step = config.rho * r.lambda_k**2 * d_sq
            whole = (r.phi_x - decrease - step + r.nu_k + r.eps_k) - r.phi_next
            g_x, g_y = problem.g.value(r.x), problem.g.value(r.y)
            w_d = float(r.w @ (r.y - r.x))
            terms = (r.phi_x, decrease, step, r.nu_k, r.eps_k, r.phi_y,
                     r.phi_next, g_x, g_y, w_d)
            gap = whole - (s["g_linearization"][i]
                           + s["h_eps_subgradient"][i] + s["linesearch"][i])
            assert abs(gap) <= 4 * math.ulp(max(map(abs, terms))), (path, r.k)
            records += 1
    assert records > 100


def test_inexact_bound_slack_is_nonnegative_exactly(golden_runs):
    # the solver accepts a pair when ||w - xi|| <= theta ||y - x||, and the
    # certificate recomputes both sides from the stored pair by the same
    # float operations, so on every record of the inner_solver and
    # perturbed_exact runs the slack is >= 0.0 with no tolerance
    paths, _ = golden_runs
    modes, records = set(), 0
    for path in paths:
        trace = Trace.read_jsonl(path)
        problem, config = problems.resolve(trace.problem_name), trace.config
        modes.add(config.inexact_mode.value)
        bound = slack_columns(trace.records, problem, config,
                              trace.final_x)["inexact_bound"]
        assert (bound >= 0.0).all(), (path, np.flatnonzero(~(bound >= 0.0)))
        records += len(bound)
    assert modes == {"inner_solver", "perturbed_exact"}
    assert records > 100


@pytest.mark.parametrize("solver", ["inmbdca", "nmbdca", "bdca", "dca"])
@pytest.mark.parametrize("theta", [[], ["--theta", "0.2"]])
def test_exact_solvers_record_the_mode_they_run(tmp_path, solver, theta):
    # the header holds solver_config of the configuration the flags give.
    # nmbdca, bdca and dca always solve exactly with zero eps, so the mode
    # and eps flags have no effect with or without theta; inmbdca runs them
    # as given, and inner_solver needs theta > 0
    flat = {"inexact_mode": "inner_solver", "eps.kind": "geometric",
            "eps.eps0": 1e-2, "eps.q": 0.5, **({"theta": 0.2} if theta else {})}
    out = run_dir(tmp_path)
    code = main(["run", "--problem", "ex1", "--out", out, "--start=1,1",
                 "--solver", solver, "--inexact-mode", "inner_solver",
                 "--eps-kind", "geometric", "--eps-eps0", "1e-2",
                 "--eps-q", "0.5", *theta])
    if solver == "inmbdca" and not theta:
        assert code == 2
        return
    assert code == 0
    with open(f"{out}/trace_000.jsonl", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
    assert header["config"] == config_to_flat(
        solver_config(solver, config_from_flat(flat)))
    with pytest.raises(ValueError, match="unknown solver 'pdca'"):
        solver_config("pdca", config_from_flat(flat))


@pytest.mark.parametrize("workers", ["1", "2"])
def test_run_warns_once_in_its_own_words(tmp_path, workers):
    # the direct rule at delta 0 has no summability guarantee: run says so
    # in one line of its own, not per start or worker under a source line
    # of the package, while numpy's warnings on an overflowing start print
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run(
        [sys.executable, "-m", "dcboost.cli", "run", "--problem", "ex2",
         "--out", str(tmp_path / "out"), "--nu-kind", "direct",
         "--nu-delta", "0", "--start=1,2", "--start=3,4",
         "--start=1e300,1e300", "--workers", workers],
        capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 1, proc.stderr  # the overflowing start fails
    assert [line for line in proc.stderr.splitlines()
            if "summability" in line] == [
        "run: warning: direct nu rule with delta = 0 carries no summability "
        "guarantee; proceeding anyway"]
    assert "cli.py" not in proc.stderr
    assert "RuntimeWarning: overflow encountered" in proc.stderr


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
