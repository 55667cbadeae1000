"""A trace's records are columns; each record is a view built on demand.

The run, the writer and the reader hand the columns on bit for bit, and a
view holds the same fields as the record the run made of that iteration.
"""

import dataclasses
import json

import numpy as np
import pytest

from dcboost import core, drivers, problems
from dcboost.core import (
    EpsSchedule,
    InexactMode,
    RECORD_ARRAYS,
    RECORD_SCALARS,
    Trace,
)

from conftest import edited

REF = problems.experiment_config()


def _run(monkeypatch, name, config, start):
    """A run and the rows its loop handed to the column builder."""
    rows = []
    build = drivers.record_columns

    def capture(values, dim):
        rows.extend(values)
        return build(values, dim)

    monkeypatch.setattr(drivers, "record_columns", capture)
    trace = drivers.run_inmbdca(problems.resolve(name), config, start)
    monkeypatch.undo()
    return trace, rows


def _same_value(a, b):
    """Equal bit for bit, and an int only where the other is one."""
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.tobytes() == b.tobytes()
    if isinstance(a, int) or isinstance(b, int):
        return type(a) is type(b) and a == b
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def _traces(monkeypatch):
    """(label, trace, the rows of its run or None) for each case."""
    out = []
    for label, name, config, start in [
        ("ex1", "ex1", REF, [5.0, -3.0]),
        ("ex2", "ex2", REF, [5.0, 5.0]),
        ("random-sep-geometric", "random-sep(dim=40,seed=1)",
         dataclasses.replace(REF, eps=EpsSchedule.geometric(1e-2, 0.5)),
         np.linspace(-5.0, 5.0, 40)),
        ("perturbed-exact", "ex2",
         dataclasses.replace(REF, inexact_mode=InexactMode.PERTURBED_EXACT),
         [-4.0, 2.0]),
        ("signed-zero-start", "ex2", REF, [-0.0, 3.0]),
    ]:
        trace, rows = _run(monkeypatch, name, config, start)
        out.append((label, trace, rows))
    ex2 = out[1][1]
    r = ex2.records[3]
    out.append(("stored-x", edited(ex2, {3: {"x": r.x + 1e-6}}), None))
    out.append(("signed-zeros", edited(ex2, {
        2: {"eps_k": -0.0, "w": np.array([-0.0, 0.0]),
            "xi": np.array([0.0, -0.0])}}), None))
    return out


def test_views_are_the_records_the_run_made(monkeypatch):
    for label, trace, rows in _traces(monkeypatch):
        if rows is None:
            continue
        assert len(trace.records) == len(rows) > 3, label
        fields = [f.name for f in dataclasses.fields(core.IterationRecord)]
        for record, row in zip(trace.records, rows):
            for name, value in zip(fields, row):
                assert _same_value(getattr(record, name), value), (label, name)


def test_the_reader_returns_the_columns_written_bit_for_bit(
        monkeypatch, tmp_path):
    cases = _traces(monkeypatch)
    assert any((r.xi != r.w).any() for r in cases[3][1].records)
    for label, trace, _ in cases:
        path = tmp_path / f"{label}.jsonl"
        trace.write_jsonl(path)
        back = Trace.read_jsonl(path)
        assert len(back.records) == len(trace.records)
        assert not back.records._views  # len built no record
        for name in RECORD_SCALARS + RECORD_ARRAYS:
            got, want = back.records.columns[name], trace.records.columns[name]
            assert got.dtype == want.dtype, (label, name)
            assert got.tobytes() == want.tobytes(), (label, name)
        for a, b in zip(trace.records, back.records):
            for f in dataclasses.fields(core.IterationRecord):
                assert _same_value(getattr(a, f.name), getattr(b, f.name))
    stored = [line for line in (tmp_path / "stored-x.jsonl").read_text()
              .splitlines()[1:] if '"x"' in line]
    assert len(stored) == 2  # record 3 and the record derived from it


def test_reader_builds_each_distinct_header_config_once(tmp_path,
                                                        monkeypatch):
    built = []
    parse = core.config_from_flat
    monkeypatch.setattr(core, "_CONFIGS", {})
    monkeypatch.setattr(core, "config_from_flat",
                        lambda flat: built.append(flat) or parse(flat))
    trace = drivers.run_inmbdca(problems.resolve("ex2"), REF, [5.0, 5.0])
    other = dataclasses.replace(trace, config=dataclasses.replace(
        REF, theta=0.1))
    for i in range(200):
        (trace if i % 2 else other).write_jsonl(tmp_path / f"t{i:03d}.jsonl")
    configs = {id(Trace.read_jsonl(tmp_path / f"t{i:03d}.jsonl").config)
               for i in range(200)}
    assert len(built) == len(configs) == 2
    # an error is raised again, never cached
    bad = tmp_path / "t000.jsonl"
    lines = bad.read_text().splitlines()
    lines[0] = lines[0].replace('"max_iter": 500', '"max_iter": 0.5')
    bad.write_text("\n".join(lines) + "\n")
    for _ in range(2):
        with pytest.raises(ValueError, match="max_iter"):
            Trace.read_jsonl(bad)
    assert len(built) == 4 and len(core._CONFIGS) == 2
    # the cache holds at most 64 configs
    for i in range(70):
        dataclasses.replace(trace, config=dataclasses.replace(
            REF, theta=0.1 + i / 1000)).write_jsonl(tmp_path / "c.jsonl")
        Trace.read_jsonl(tmp_path / "c.jsonl")
        assert len(core._CONFIGS) <= 64


@pytest.mark.parametrize("name, value, message", [
    ("k", 2**63, "field 'k': 9.22337e+18 is beyond the int64 range"),
    ("n_backtracks", -2**63 - 1,
     "field 'n_backtracks': -9.22337e+18 is beyond the int64 range"),
    # a null x is no left-out x
    ("x", None, "field 'x': expected a base64 string, got None"),
])
def test_a_record_the_columns_cannot_hold_names_its_field(tmp_path, name,
                                                         value, message):
    trace = drivers.run_inmbdca(problems.resolve("ex2"), REF, [5.0, 5.0])
    path = tmp_path / "t.jsonl"
    trace.write_jsonl(path)
    lines = path.read_text().splitlines()
    record = json.loads(lines[2])
    record[name] = value
    lines[2] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as raised:
        Trace.read_jsonl(path)
    assert str(raised.value) == f"line 3: {message}"


def test_an_undecodable_line_is_named_after_the_line_read_before_it(
        tmp_path):
    # as a reader going line by line names it: a dim-200 trace is decoded
    # in chunks, so the bad byte in its fifth line is met after whole lines
    trace = drivers.run_inmbdca(problems.resolve("random-sep(dim=200,seed=0)"),
                                REF, np.linspace(-5.0, 5.0, 200))
    path = tmp_path / "t.jsonl"
    trace.write_jsonl(path)
    lines = path.read_bytes().splitlines(keepends=True)
    assert len(lines) > 5 and sum(map(len, lines[:4])) > 8192
    lines[4] = b"\xff" + lines[4]
    path.write_bytes(b"".join(lines))
    with pytest.raises(ValueError, match=r"^line [1-4]: 'utf-8' codec can't "
                                         "decode byte 0xff"):
        Trace.read_jsonl(path)
